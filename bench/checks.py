"""Correctness checks on the outputs of one pass.

Each check returns a list of error strings; an empty list means the output
passed. The box overlap test is written here rather than taken from
``crowdset``, so a broken IoU kernel cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from crowdset import (DetectorSimParams, EmdConfig, EvalConfig, SceneParams,
                      SuppressionConfig, build_gt_set, build_scenes,
                      derive_seed, emd_match, jaccard_index, pad_to_k,
                      pair_cost_matrix, parse_prediction_file,
                      parse_scene_file, set_nms, nms, simulate_detector,
                      truncate_top_k)
from crowdset.synth import _NS_SIM

from workloads import EMD_RUNS, EMD_THETA, SOFT_FLOOR, SUPPRESS_IOU, SUPPRESS_METHODS

_CHUNK = 512
_TOL = 1e-9


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ix = np.clip(np.minimum(a[:, None, 2], b[None, :, 2])
                 - np.maximum(a[:, None, 0], b[None, :, 0]), 0.0, None)
    iy = np.clip(np.minimum(a[:, None, 3], b[None, :, 3])
                 - np.maximum(a[:, None, 1], b[None, :, 1]), 0.0, None)
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _arrays(dets):
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=np.float64)
    boxes = boxes.reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    pids = np.array([d.proposal_id for d in dets], dtype=np.int64)
    return boxes, scores, classes, pids


def _blocked(a_boxes, a_cls, a_pid, b_boxes, b_cls, b_pid, iou_thresh,
             respect_proposals):
    """Yield (row offset, mask) chunks of "a would be suppressed by b"."""
    for lo in range(0, len(a_boxes), _CHUNK):
        hi = lo + _CHUNK
        mask = _iou(a_boxes[lo:hi], b_boxes) > iou_thresh
        mask &= a_cls[lo:hi, None] == b_cls[None, :]
        if respect_proposals:
            mask &= a_pid[lo:hi, None] != b_pid[None, :]
        yield lo, mask


def check_suppressed(inp, out, method: str, iou_thresh: float = SUPPRESS_IOU,
                     floor: float = SOFT_FLOOR) -> list[str]:
    """One image's suppression output against its input detections.

    The output must be a subset of the input (keyed by proposal id and
    slot) in non-increasing score order. Greedy methods keep scores; no two
    kept boxes may suppress each other, and every dropped box must be
    suppressed by a kept box of at least its score. Soft-NMS scores must
    lie between the floor and the input score.
    """
    errors = []
    by_key = {(d.proposal_id, d.slot): d for d in inp}
    if len(by_key) != len(inp):
        return ["input detections do not have unique (proposal_id, slot)"]
    keys = [(d.proposal_id, d.slot) for d in out]
    if len(set(keys)) != len(keys):
        errors.append(f"{len(keys) - len(set(keys))} duplicate kept boxes")
    for d, key in zip(out, keys):
        src = by_key.get(key)
        if src is None or src.box != d.box or src.class_id != d.class_id:
            errors.append(f"kept box {key} is not an input box")
            break
        if method == "soft_gaussian":
            if not floor <= d.score <= src.score:
                errors.append(f"soft score {d.score} of {key} outside "
                              f"[{floor}, {src.score}]")
                break
        elif d.score != src.score:
            errors.append(f"kept box {key} changed score")
            break
    scores = [d.score for d in out]
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append("kept scores are not in non-increasing order")
    if errors or method == "soft_gaussian":
        return errors
    respect = method == "set_nms"
    kb, ks, kc, kp = _arrays(out)
    for lo, mask in _blocked(kb, kc, kp, kb, kc, kp, iou_thresh, respect):
        mask = np.triu(mask, k=lo + 1)
        if mask.any():
            errors.append(f"{int(mask.sum())} kept pairs overlap above "
                          f"IoU {iou_thresh}")
            return errors
    kept = set(keys)
    dropped = [d for d in inp if (d.proposal_id, d.slot) not in kept]
    db, ds, dc, dp = _arrays(dropped)
    for lo, mask in _blocked(db, dc, dp, kb, kc, kp, iou_thresh, respect):
        mask &= ks[None, :] >= ds[lo:lo + _CHUNK, None]
        if not mask.any(axis=1).all():
            errors.append("a dropped box has no kept box suppressing it")
            return errors
    return errors


def _in_unit(name: str, value) -> list[str]:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        return [f"{name} = {value!r} is outside [0, 1]"]
    return []


def check_eval_report(rep: dict) -> list[str]:
    """Ranges and counts of one evaluation report."""
    errors = []
    for key in ("ap", "mr2", "ji"):
        errors += _in_unit(key, rep.get(key))
    thr = rep.get("ji_best_threshold")
    if thr is not None and not (isinstance(thr, float) and
                                (math.isinf(thr) or 0.0 <= thr <= 1.0)):
        errors.append(f"ji_best_threshold = {thr!r} is not a score")
    recall = rep.get("recall", {})
    for key in ("total", "sparse", "crowd"):
        r = recall.get(key, {})
        matched, total = r.get("matched"), r.get("total")
        if not (isinstance(matched, int) and isinstance(total, int)
                and 0 <= matched <= total):
            errors.append(f"recall.{key}: matched {matched!r} of {total!r}")
            continue
        errors += _in_unit(f"recall.{key}.ratio", r.get("ratio"))
        want = matched / total if total else 0.0
        if r.get("ratio") != want:
            errors.append(f"recall.{key}.ratio {r.get('ratio')!r} != {want!r}")
    if not errors:
        for part in ("matched", "total"):
            parts = recall["sparse"][part] + recall["crowd"][part]
            if recall["total"][part] != parts:
                errors.append(f"recall.total.{part} is not sparse + crowd")
    return errors


def check_ji(rep: dict, scenes, cfg: EvalConfig) -> list[str]:
    """The Jaccard index at the reported best threshold must equal the
    reported index."""
    thr = rep["ji_best_threshold"]
    thr = math.inf if thr is None else thr
    got = jaccard_index(scenes, cfg, thr)
    if abs(got - rep["ji"]) > _TOL:
        return [f"jaccard_index at {thr} is {got!r}, report says {rep['ji']!r}"]
    return []


def check_emd(report: dict, preds, gt_by_id: dict, k: int, truncate: bool,
              sample: int, seed: int) -> list[str]:
    """Every row is well formed; on a seeded sample of proposals the
    reported total and ``emd_match``'s total equal the
    ``linear_sum_assignment`` optimum of the same cost matrix."""
    errors = []
    rows = report.get("proposals", [])
    flat = [(r.id, i, p) for r in preds for i, p in enumerate(r.proposals)]
    if len(rows) != len(flat):
        return [f"{len(rows)} rows for {len(flat)} proposals"]
    for row, (rid, idx, _) in zip(rows, flat):
        if (row["id"], row["proposal_index"]) != (rid, idx):
            return [f"row {row['id']}/{row['proposal_index']} out of order"]
        if sorted(row["permutation"]) != list(range(k)):
            return [f"row {rid}/{idx}: {row['permutation']} is not a "
                    f"permutation of {k} slots"]
        if not 0 <= row["n_members"] <= k:
            return [f"row {rid}/{idx}: {row['n_members']} members for k={k}"]
        if abs(sum(row["per_slot_cost"]) - row["total"]) > _TOL * max(1.0, abs(row["total"])):
            return [f"row {rid}/{idx}: per-slot costs do not sum to total"]
    cfg = EmdConfig(k=k)
    rng = np.random.default_rng(seed)
    for n in rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        rid, idx, pred = flat[n]
        gt_set = build_gt_set(pred.proposal, gt_by_id[rid].gts, EMD_THETA)
        gt_set = truncate_top_k(gt_set, k) if truncate else pad_to_k(gt_set, k)
        costs = pair_cost_matrix(pred, gt_set, cfg)
        r, c = linear_sum_assignment(costs)
        best = float(costs[r, c].sum())
        tol = _TOL * max(1.0, abs(best))
        for name, total in (("emd_match", emd_match(costs).total),
                            ("reported", rows[n]["total"])):
            if abs(total - best) > tol:
                errors.append(f"row {rid}/{idx}: {name} total {total!r} != "
                              f"assignment optimum {best!r}")
    return errors


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _merge(gt_records, det_records):
    dets = {r.id: r.dets for r in det_records}
    return [replace(r, dets=dets.get(r.id, [])) for r in gt_records]


def _study_scenes(seed: int, images: int, method: str):
    """The mip2 scenes of a study at IoU 0.5, rebuilt through the public
    API with the study's seed streams."""
    scenes = build_scenes(SceneParams(), images, seed)
    cfg = SuppressionConfig(method=method, iou_thresh=0.5)
    fn = set_nms if method == "set_nms" else nms
    out = []
    for i, scene in enumerate(scenes):
        sim = DetectorSimParams(k=2, seed=derive_seed(seed, _NS_SIM, i))
        out.append(replace(scene, dets=fn(simulate_detector(scene.gts, sim), cfg)))
    return out


def check_workload(plan: dict, out_dir: str) -> dict[str, list[str]]:
    """Errors per op for the outputs a pass left in ``out_dir``."""
    wl, in_dir = plan["workload"], plan["in_dir"]
    errors: dict[str, list[str]] = {}

    def inp(name):
        return os.path.join(in_dir, name)

    if wl == "study":
        for j, op in enumerate(plan["ops"]):
            report = _load_json(os.path.join(out_dir, f"study_{j}", "report.json"))
            errs = []
            for row in report["rows"]:
                errs += [f"{row['sim']}/{row['method']}@{row['iou_thresh']}: {e}"
                         for e in check_eval_report(row)]
            for method in ("set_nms", "nms"):
                (row,) = [r for r in report["rows"] if r["sim"] == "mip2"
                          and r["method"] == method and r["iou_thresh"] == 0.5]
                scenes = _study_scenes(op["seed"], plan["inputs"]["images"],
                                       method)
                errs += check_ji(row, scenes, EvalConfig())
            errors[op["name"]] = errs
    elif wl == "dense_eval":
        gt = parse_scene_file(inp("gt.jsonl"))
        for stem in ("set_nms", "soft_gaussian"):
            rep = _load_json(os.path.join(out_dir, f"eval_{stem}.json"))
            errs = check_eval_report(rep)
            if not errs:
                scenes = _merge(gt, parse_scene_file(inp(f"det_{stem}.jsonl")))
                errs = check_ji(rep, scenes, EvalConfig())
            errors[f"eval_{stem}"] = errs
    elif wl == "suppress_large":
        (image,) = parse_scene_file(inp("dets.jsonl"))
        for _, stem in SUPPRESS_METHODS:
            (kept,) = parse_scene_file(os.path.join(out_dir, f"{stem}.jsonl"))
            errors[f"suppress_{stem}"] = check_suppressed(image.dets, kept.dets,
                                                          stem)
    elif wl == "emd_loss":
        gt_by_id = {r.id: r for r in parse_scene_file(inp("gt.jsonl"))}
        for k, truncate, stem in EMD_RUNS:
            preds = parse_prediction_file(inp(f"{stem}.jsonl"))
            report = _load_json(os.path.join(out_dir, f"emd_{stem}.json"))
            errors[f"emd_k{k}"] = check_emd(report, preds, gt_by_id, k, truncate,
                                            sample=200, seed=plan["seed"])
    return errors
