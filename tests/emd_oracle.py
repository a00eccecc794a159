"""The EMD path as it was before the batched engine, kept verbatim as an
oracle: the prediction-record parser that validated one dataclass at a
time (its reading of number lists is a parameter, so a test can apply the
strict number rule the parser has since gained), the scalar ground-truth set construction, the k x k cost loop, the
permutation loop and the command's per-proposal loop. The engine must give
the same permutations, member counts and cost bits, and raise the same
errors for the same proposals.
"""

import itertools
import math

import numpy as np

from crowdset.assignment import GtSet, pad_to_k, truncate_top_k
from crowdset.emd import (EmdMatch, PredictionSet, SlotPrediction, cls_loss,
                          reg_loss)
from crowdset.geometry import BBox, BoxDelta, iou
from crowdset.scene_io import PredictionRecord, SceneFileError


def coerced_floats(values, key, record_id):
    """A list of numbers as the parser first read it: float() of each."""
    return (float(v) for v in values)


def _parse_box(obj, record_id, floats):
    if "box_xyxy" in obj:
        x1, y1, x2, y2 = floats(obj["box_xyxy"], "box_xyxy", record_id)
        return BBox(x1, y1, x2, y2)
    if "box_xywh" in obj:
        x, y, w, h = floats(obj["box_xywh"], "box_xywh", record_id)
        if w < 0 or h < 0:
            raise SceneFileError(
                f"record {record_id!r}: negative width/height in box_xywh {[x, y, w, h]}"
            )
        return BBox(x, y, x + w, y + h)
    raise SceneFileError(f"record {record_id!r}: box needs a box_xyxy or box_xywh key")


def parse_prediction_record(obj, floats=coerced_floats):
    """One record; ``floats(values, key, record_id)`` reads each list of
    numbers."""
    rid = str(obj["id"])
    proposals = []
    for p in obj.get("proposals", []):
        box = _parse_box(p, rid, floats)
        slots = tuple(
            SlotPrediction(
                class_scores=list(floats(s["scores"], "scores", rid)),
                delta=BoxDelta(*floats(s["delta"], "delta", rid)),
            )
            for s in p["slots"]
        )
        proposals.append(PredictionSet(proposal=box, slots=slots))
    return PredictionRecord(id=rid, proposals=proposals)


def build_gt_set(proposal, gts, theta):
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    members = []
    for i, g in enumerate(gts):
        if g.ignore:
            continue
        v = iou(proposal, g.box)
        if v >= theta:
            members.append((-v, i, g))
    members.sort(key=lambda t: (t[0], t[1]))
    entries = tuple(g for _, _, g in members)
    return GtSet(entries=entries, source_proposal=proposal, theta=theta,
                 n_slots=len(entries))


def pair_cost_matrix(pred, gts, cfg):
    if len(pred.slots) != cfg.k:
        raise ValueError(f"prediction set has {len(pred.slots)} slots, config "
                         f"expects {cfg.k}")
    if gts.n_slots != cfg.k:
        raise ValueError(f"ground-truth set has {gts.n_slots} slots, config "
                         f"expects {cfg.k}")
    costs = np.zeros((cfg.k, cfg.k), dtype=np.float64)
    for i, slot in enumerate(pred.slots):
        for j in range(cfg.k):
            c = cls_loss(slot.class_scores, gts.slot_class(j))
            r = reg_loss(slot.delta, pred.proposal, gts.slot_box(j))
            costs[i, j] = c + r
    return costs


def emd_match(costs):
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {costs.shape}")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix contains non-finite entries")
    k = costs.shape[0]
    best_perm = None
    best_total = math.inf
    for perm in itertools.permutations(range(k)):
        total = 0.0
        for i in range(k):
            total += costs[i, perm[i]]
        if total < best_total:
            best_total = total
            best_perm = perm
    perm = best_perm
    per_slot = tuple(float(costs[i, perm[i]]) for i in range(k))
    total = 0.0
    for c in per_slot:
        total += c
    return EmdMatch(permutation=tuple(perm), per_slot_cost=per_slot, total=total)


def score_record(rec, gts, cfg, theta, truncate):
    """The command's loop over one record: ``(n_members, EmdMatch)`` per
    proposal."""
    rows = []
    for idx, pred in enumerate(rec.proposals):
        if len(pred.slots) != cfg.k:
            raise ValueError(f"record {rec.id!r} proposal {idx}: has "
                             f"{len(pred.slots)} slots, expected k={cfg.k}")
        gt_set = build_gt_set(pred.proposal, gts, theta)
        if gt_set.n_real > cfg.k:
            if truncate:
                gt_set = truncate_top_k(gt_set, cfg.k)
            else:
                raise ValueError(
                    f"record {rec.id!r} proposal {idx}: ground-truth set "
                    f"has {gt_set.n_real} members for k={cfg.k} (excess "
                    f"{gt_set.n_real - cfg.k}); pass --truncate-topk to "
                    f"keep the top-k by IoU")
        gt_set = pad_to_k(gt_set, cfg.k)
        try:
            match = emd_match(pair_cost_matrix(pred, gt_set, cfg))
        except ValueError as e:
            raise ValueError(f"record {rec.id!r} proposal {idx}: {e}") from None
        rows.append((gt_set.n_real, match))
    return rows
