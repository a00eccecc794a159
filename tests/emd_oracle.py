"""The EMD path as it was before the batched engine, kept verbatim as an
oracle: the scalar cost definitions (:func:`cls_loss`, :func:`smooth_l1`
and :func:`reg_loss`), the prediction-record parser that validated one
dataclass at a time (its reading of number lists is a parameter, so a test
can apply the strict number rule the parser has since gained), the scalar
ground-truth set construction, the k x k cost loop, the permutation loop
and the command's per-proposal loop. The engine must give the same
permutations, member counts and cost bits, and raise the same errors for
the same proposals.
"""

import itertools
import math

import numpy as np

from crowdset.assignment import (BACKGROUND_CLASS, GtSet, pad_to_k,
                                 truncate_top_k)
from crowdset.emd import (SCORE_EPS, EmdMatch, PredictionSet, SlotPrediction,
                          _vocabulary)
from crowdset.geometry import BBox, BoxDelta, encode_delta, iou
from crowdset.scene_io import PredictionRecord, SceneFileError


def cls_loss(scores: np.ndarray, target_class: int) -> float:
    """Cross-entropy of a probability vector against a target class:
    -log(p), p being the target-class score clamped to ``SCORE_EPS``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_class < scores.size:
        raise ValueError(_vocabulary(target_class, scores.size))
    return -math.log(max(float(scores[target_class]), SCORE_EPS))


def smooth_l1(x: float) -> float:
    """Smooth-L1 at beta 1 (Girshick, Fast R-CNN): 0.5 x^2 for |x| < 1,
    else |x| - 0.5; ``crowdset.emd._cost_tensor`` computes the same."""
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * x * x
    return ax - 0.5


def reg_loss(pred: BoxDelta, proposal: BBox, target_box: BBox | None) -> float:
    """Smooth-L1 regression loss of a predicted delta against a target box.

    A dummy target (``None``) contributes exactly 0: background slots carry
    no regression supervision.
    """
    if target_box is None:
        return 0.0
    want = encode_delta(proposal, target_box)
    return (
        smooth_l1(pred.dx - want.dx)
        + smooth_l1(pred.dy - want.dy)
        + smooth_l1(pred.dw - want.dw)
        + smooth_l1(pred.dh - want.dh)
    )


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
            # The slots past the real members are background dummies.
            g = gts.entries[j] if j < gts.n_real else None
            c = cls_loss(slot.class_scores,
                         BACKGROUND_CLASS if g is None else g.class_id)
            r = reg_loss(slot.delta, pred.proposal, None if g is None else g.box)
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
