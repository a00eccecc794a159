"""Traced passes: the same inputs as a CLI pass, driven stage by stage
through ``crowdset``'s public functions with a span around each call.

Each pass mirrors what the matching ``crowdset`` subcommand does and writes
its outputs in the same format, under the given directory, so the runner's
checks apply to them unchanged. The root span is ``pass``; its self time is
the glue between layer calls (``cli.other_s``).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from crowdset import (DetectorSimParams, EmdConfig, EvalConfig, SceneParams,
                      SuppressionConfig, average_precision, best_ji,
                      boxes_to_array, build_gt_set, build_scenes,
                      density_stats, derive_seed, emd_match, iou_matrix, mr2,
                      nms, pad_to_k, pair_cost_matrix, parse_prediction_file,
                      parse_scene_file, recall_split, set_nms,
                      simulate_detector, soft_nms, truncate_top_k,
                      write_scene_file)
from crowdset.synth import _NS_SIM

from tracing import Tracer
from workloads import EMD_RUNS, EMD_THETA, SOFT_FLOOR, SUPPRESS_IOU, SUPPRESS_METHODS

# Suppression method -> (span name, public function).
_SUPPRESSORS = {"nms": ("suppression.nms", nms),
                "set_nms": ("suppression.set_nms", set_nms),
                "soft_gaussian": ("suppression.soft_nms", soft_nms)}


def _report(ap, mr, ji, thr, recall) -> dict:
    def triple(r):
        return {"matched": r.matched, "total": r.total, "ratio": r.ratio}

    total, sparse, crowd = recall
    return {"ap": ap, "mr2": mr, "ji": ji, "ji_best_threshold": thr,
            "recall": {"total": triple(total), "sparse": triple(sparse),
                       "crowd": triple(crowd)}}


def _evaluate(tr: Tracer, scenes, cfg: EvalConfig) -> dict:
    """``crowdset.evaluate``, one span per metric."""
    pairs = sum(len(s.dets) * sum(not g.ignore for g in s.gts) for s in scenes)
    with tr.span("metrics.average_precision", det_gt_pairs=pairs):
        ap = average_precision(scenes, cfg)
    with tr.span("metrics.mr2"):
        mr = mr2(scenes, cfg)
    with tr.span("metrics.best_ji"):
        ji, thr = best_ji(scenes, cfg)
    with tr.span("metrics.recall_split"):
        recall = recall_split(scenes, cfg, thr)
    return _report(ap, mr, ji, thr, recall)


def _dump(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _study(tr: Tracer, plan: dict, out: str) -> None:
    for j, op in enumerate(plan["ops"]):
        _one_study(tr, op["seed"], plan["inputs"]["images"],
                   os.path.join(out, f"study_{j}"))


def _one_study(tr: Tracer, seed: int, images: int, out: str) -> None:
    with tr.span("synth.build_scenes", images=images):
        scenes = build_scenes(SceneParams(), images, seed)
    sims = [DetectorSimParams(mode="single"), DetectorSimParams(k=2),
            DetectorSimParams(k=1), DetectorSimParams(k=3)]
    cfgs = [SuppressionConfig(method="nms"), SuppressionConfig(method="set_nms"),
            SuppressionConfig(method="nms", iou_thresh=0.3),
            SuppressionConfig(method="nms", iou_thresh=0.4)]
    rows = []
    for sim in sims:
        raw = []
        for i, scene in enumerate(scenes):
            params = replace(sim, seed=derive_seed(seed, _NS_SIM, i))
            with tr.span("synth.simulate_detector"):
                dets = simulate_detector(scene.gts, params)
                tr.count(dets_out=len(dets))
            raw.append(dets)
        for cfg in cfgs:
            kept = [_suppress(tr, dets, cfg) for dets in raw]
            eval_scenes = [replace(s, dets=k) for s, k in zip(scenes, kept)]
            rows.append({"sim": sim.label, "k": sim.effective_k,
                         "method": cfg.method, "iou_thresh": cfg.iou_thresh,
                         **_evaluate(tr, eval_scenes, EvalConfig())})
    os.makedirs(out, exist_ok=True)
    _dump({"rows": rows}, os.path.join(out, "report.json"))


def _suppress(tr: Tracer, dets, cfg: SuppressionConfig):
    name, fn = _SUPPRESSORS[cfg.method]
    with tr.span(name, boxes_in=len(dets)):
        kept = fn(dets, cfg)
        tr.count(kept=len(kept))
    return kept


def _parse(tr: Tracer, path: str):
    with tr.span("scene_io.parse_scene_file", bytes_in=os.path.getsize(path)):
        return parse_scene_file(path)


def _dense_eval(tr: Tracer, plan: dict, out: str) -> None:
    in_dir = plan["in_dir"]
    for stem in ("set_nms", "soft_gaussian"):
        gt = _parse(tr, os.path.join(in_dir, "gt.jsonl"))
        det = _parse(tr, os.path.join(in_dir, f"det_{stem}.jsonl"))
        by_id = {r.id: r.dets for r in det}
        scenes = [replace(r, dets=by_id.get(r.id, [])) for r in gt]
        report = _evaluate(tr, scenes, EvalConfig())
        with tr.span("metrics.density_stats"):
            density = density_stats(scenes)
        report["density"] = {"objects_per_image": density.objects_per_image,
                             "overlaps_per_image": density.overlaps_per_image}
        _dump(report, os.path.join(out, f"eval_{stem}.json"))


def _suppress_large(tr: Tracer, plan: dict, out: str) -> None:
    for _, stem in SUPPRESS_METHODS:
        records = _parse(tr, os.path.join(plan["in_dir"], "dets.jsonl"))
        cfg = SuppressionConfig(method=stem, iou_thresh=SUPPRESS_IOU,
                                score_floor=SOFT_FLOOR)
        kept = [replace(r, dets=_suppress(tr, r.dets, cfg)) for r in records]
        path = os.path.join(out, f"{stem}.jsonl")
        with tr.span("scene_io.write_scene_file"):
            write_scene_file(kept, path)
            tr.count(bytes_out=os.path.getsize(path))


def _emd_loss(tr: Tracer, plan: dict, out: str) -> None:
    in_dir = plan["in_dir"]
    for k, truncate, stem in EMD_RUNS:
        gt_by_id = {r.id: r for r in _parse(tr, os.path.join(in_dir, "gt.jsonl"))}
        path = os.path.join(in_dir, f"{stem}.jsonl")
        with tr.span("scene_io.parse_prediction_file",
                     bytes_in=os.path.getsize(path)):
            preds = parse_prediction_file(path)
        cfg = EmdConfig(k=k)
        rows = []
        for rec in preds:
            gts = gt_by_id[rec.id].gts
            for idx, pred in enumerate(rec.proposals):
                with tr.span("assignment.build_gt_set"):
                    gt_set = build_gt_set(pred.proposal, gts, EMD_THETA)
                    overflow = gt_set.n_real > k
                    if overflow and truncate:
                        gt_set = truncate_top_k(gt_set, k)
                    gt_set = pad_to_k(gt_set, k)
                    tr.count(calls=1, overflow=int(overflow))
                with tr.span("emd.pair_cost_matrix"):
                    costs = pair_cost_matrix(pred, gt_set, cfg)
                with tr.span("emd.emd_match"):
                    match = emd_match(costs)
                rows.append({"id": rec.id, "proposal_index": idx,
                             "n_members": gt_set.n_real,
                             "permutation": list(match.permutation),
                             "per_slot_cost": list(match.per_slot_cost),
                             "total": match.total})
        mean = sum(r["total"] for r in rows) / len(rows) if rows else 0.0
        _dump({"proposals": rows, "mean_loss": mean},
              os.path.join(out, f"emd_{stem}.json"))


_PASSES = {"study": _study, "dense_eval": _dense_eval,
           "suppress_large": _suppress_large, "emd_loss": _emd_loss}


def traced_pass(plan: dict, out: str) -> Tracer:
    """Run one traced pass of ``plan``'s workload, writing outputs to
    ``out``."""
    tr = Tracer()
    with tr.span("pass"):
        _PASSES[plan["workload"]](tr, plan, out)
    return tr


def iou_probe(plan: dict) -> Tracer:
    """Time the IoU kernel alone on every dense_eval image's detection x
    ground-truth boxes, outside the pass."""
    tr = Tracer()
    if plan["workload"] != "dense_eval":
        return tr
    in_dir = plan["in_dir"]
    gt = {r.id: r for r in parse_scene_file(os.path.join(in_dir, "gt.jsonl"))}
    for stem in ("set_nms", "soft_gaussian"):
        for rec in parse_scene_file(os.path.join(in_dir, f"det_{stem}.jsonl")):
            a = boxes_to_array([d.box for d in rec.dets])
            b = boxes_to_array([g.box for g in gt[rec.id].gts])
            with tr.span("geometry.iou_matrix", pairs=len(a) * len(b),
                         bytes=len(a) * len(b) * 8):
                iou_matrix(a, b)
    return tr
