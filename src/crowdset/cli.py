"""Command-line surface: generate scenes, suppress, evaluate, score
prediction sets, and run studies.

Every run writes a manifest (JSON) describing the resolved configuration,
seeds, paths, and wall-clock timing, so results are reproducible from the
manifest alone. Data outputs are byte-deterministic under a fixed seed;
manifests are not (they carry timings). JSON output is strict: no NaN or
Infinity. The best-JI threshold is +inf only when the empty detection set
scores best, and is then written as null.

``eval`` and ``emd`` write one JSON report, indented by two spaces, to
``--out`` or stdout; ``emd`` writes its report row by row, with the bytes of
``json.dumps(report, indent=2, allow_nan=False)``. Each metric has one
protocol: ``eval`` reports all-point AP, MR^-2, JI over a maximum matching
and the crowd/sparse recall split; ``emd`` reports the set-matching loss with
a cross-entropy plus smooth-L1 cost.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .assignment import check_theta
from .emd import EmdConfig, ImageMatch, match_image
from .metrics import EvalConfig, EvalReport, Evaluation
from .scene_io import (SceneArrays, parse_prediction_arrays, parse_scene_arrays,
                       write_scene_arrays, write_scene_file)
from .suppression import METHODS, Detections, SuppressionConfig, suppress_arrays
from .synth import (DetectorSimParams, SceneParams, StudyRow, StudyRows,
                    build_scenes, run_study)

SCHEMA_VERSION = 1

_METHOD_FLAGS = {m.replace("_", "-"): m for m in METHODS}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _write_manifest(path: str, subcommand: str, config: dict, t0: float,
                    counters: dict | None = None) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "crowdset",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "wall_seconds": time.perf_counter() - t0,
    }
    if counters is not None:
        manifest["counters"] = counters
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(manifest))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report_dict(report: EvalReport) -> dict:
    def triple(r):
        return {"matched": r.matched, "total": r.total, "ratio": r.ratio}

    return {
        "ap": report.ap,
        "mr2": report.mr2,
        "ji": report.ji,
        "ji_best_threshold": (None if report.ji_best_threshold == math.inf
                              else report.ji_best_threshold),
        "recall": {
            "total": triple(report.recall_total),
            "sparse": triple(report.recall_sparse),
            "crowd": triple(report.recall_crowd),
        },
    }


def _scene_params_from(args) -> SceneParams:
    return SceneParams(
        image_w=args.image_w,
        image_h=args.image_h,
        n_objects_mean=args.objects_mean,
        crowd_pairs_mean=args.pairs_mean,
        crowd_triples_mean=args.triples_mean,
        pair_iou_range=(args.pair_iou_lo, args.pair_iou_hi),
        seed=args.seed,
    )


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-w", type=int, default=1280, dest="image_w")
    p.add_argument("--image-h", type=int, default=800, dest="image_h")
    p.add_argument("--objects-mean", type=float, default=22.64,
                   help="mean ground truths per image")
    p.add_argument("--pairs-mean", type=float, default=2.40,
                   help="mean crowd pairs (IoU > 0.5) per image")
    p.add_argument("--triples-mean", type=float, default=0.0,
                   help="mean crowd triples per image")
    p.add_argument("--pair-iou-lo", type=float, default=0.55)
    p.add_argument("--pair-iou-hi", type=float, default=0.8)


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    scenes = build_scenes(_scene_params_from(args), args.images, args.seed)
    write_scene_file(scenes, args.out)
    _write_manifest(args.out + ".manifest.json", "synth", {
        "images": args.images,
        "seed": args.seed,
        "out": args.out,
        "scene_params": asdict(_scene_params_from(args)),
    }, t0)
    return 0


def cmd_suppress(args) -> int:
    t0 = time.perf_counter()
    records = parse_scene_arrays(args.infile)
    method = _METHOD_FLAGS[args.method]
    cfg = SuppressionConfig(method=method, iou_thresh=args.iou,
                            sigma=args.sigma, score_floor=args.score_floor)
    counters = {"images": len(records), "dets_in": 0, "dets_out": 0,
                "anonymous": 0}
    kept = []
    for r in records:
        keep, scores = suppress_arrays(r.dets, cfg)
        kept.append(replace(r, dets=r.dets.take(keep, scores)))
        counters["dets_in"] += len(r.dets)
        counters["dets_out"] += len(keep)
        counters["anonymous"] += int((r.dets.proposal_ids < 0).sum())
    if method == "set_nms" and counters["anonymous"]:
        print(f"warning: {counters['anonymous']} detections carry no "
              f"proposal_id; set-nms treats them as distinct proposals "
              f"(plain nms)", file=sys.stderr)
    write_scene_arrays(kept, args.out)
    _write_manifest(args.out + ".manifest.json", "suppress", {
        "in": args.infile, "out": args.out, "method": args.method,
        "iou": args.iou, "sigma": args.sigma, "score_floor": args.score_floor,
    }, t0, counters)
    return 0


def _gts_by_id(gt_records: list, records, kind: str) -> dict:
    """Ground-truth records by id; every id in ``records`` must be there."""
    gt_by_id = {r.id: r for r in gt_records}
    missing = [r.id for r in records if r.id not in gt_by_id]
    if missing:
        raise ValueError(f"{kind} ids missing from ground-truth file: "
                         f"{', '.join(sorted(missing))}")
    return gt_by_id


def _merge_gt_det(gt_records: list[SceneArrays],
                  det_records: list[SceneArrays]) -> list[SceneArrays]:
    _gts_by_id(gt_records, det_records, "detection")
    det_by_id = {r.id: r.dets for r in det_records}
    no_dets = Detections.from_list([])
    return [replace(r, dets=det_by_id.get(r.id, no_dets)) for r in gt_records]


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    cfg = EvalConfig(iou_thresh=args.iou, fppi_lo=args.fppi_lo,
                     fppi_hi=args.fppi_hi, fppi_points=args.fppi_points)
    gt_records = parse_scene_arrays(args.gt)
    det_records = parse_scene_arrays(args.det)
    scenes = _merge_gt_det(gt_records, det_records)
    ev = Evaluation.of_arrays(scenes, cfg)
    density = ev.density_stats()
    out = {
        "schema_version": SCHEMA_VERSION,
        **_report_dict(ev.report()),
        "density": {
            "objects_per_image": density.objects_per_image,
            "overlaps_per_image": density.overlaps_per_image,
        },
        "config": {"iou": args.iou, "fppi_lo": args.fppi_lo,
                   "fppi_hi": args.fppi_hi, "fppi_points": args.fppi_points},
    }
    _emit(_json_text(out), args.out)
    if args.manifest:
        _write_manifest(args.manifest, "eval", {
            "gt": args.gt, "det": args.det, "iou": args.iou,
            "fppi": [args.fppi_lo, args.fppi_hi, args.fppi_points],
        }, t0, ev.counters())
    return 0


_EMD_ROW = ('    {\n      "id": %s,\n      "proposal_index": %d,\n'
            '      "n_members": %d,\n      "permutation": [\n        %s\n      ],\n'
            '      "per_slot_cost": [\n        %s\n      ],\n'
            '      "total": %s\n    }')
_ITEMS = ",\n        "


def _emd_report(matches: list[tuple[str, ImageMatch]], config: dict) -> str:
    """The emd report of each image's match, one row per proposal, built
    row by row: the text of :func:`_json_text`, json's int and float
    spellings, and its ValueError for the first non-finite cost."""
    rows = []
    total = 0.0
    for rid, m in matches:
        if not (np.isfinite(m.per_slot_cost).all() and np.isfinite(m.total).all()):
            costs = np.column_stack([m.per_slot_cost, m.total])  # report order
            _json_text(float(costs[~np.isfinite(costs)][0]))  # raises
        quoted = json.dumps(rid)
        for idx, (n, perm, slot_costs, t) in enumerate(zip(
                m.n_members.tolist(), m.permutation.tolist(),
                m.per_slot_cost.tolist(), m.total.tolist())):
            rows.append(_EMD_ROW % (quoted, idx, n, _ITEMS.join(map(str, perm)),
                                    _ITEMS.join(map(float.__repr__, slot_costs)),
                                    float.__repr__(t)))
            total += t
    text = _json_text({"schema_version": SCHEMA_VERSION, "proposals": [],
                       "mean_loss": (total / len(rows)) if rows else 0.0,
                       "config": config})
    if not rows:
        return text
    return text.replace('"proposals": []',
                        '"proposals": [\n' + ",\n".join(rows) + "\n  ]", 1)


def cmd_emd(args) -> int:
    """Score each prediction record against its ground truths; the report
    is written row by row (:func:`_emd_report`)."""
    t0 = time.perf_counter()
    cfg = EmdConfig(k=args.k)
    check_theta(args.theta)
    gt_records = parse_scene_arrays(args.gt)
    pred_records = parse_prediction_arrays(args.pred)
    gt_by_id = _gts_by_id(gt_records, pred_records, "prediction")
    matches = []
    counters = {"proposals": 0, "overflowing_sets": 0, "members_dropped": 0}
    for rec in pred_records:
        g = gt_by_id[rec.id]
        match = match_image(rec, g.gt_boxes, g.gt_classes, g.gt_ignore, cfg,
                            args.theta, args.truncate_topk)
        matches.append((rec.id, match))
        counters["proposals"] += len(rec)
        counters["overflowing_sets"] += match.overflowing
        counters["members_dropped"] += match.dropped
    config = {"k": args.k, "theta": args.theta}
    _emit(_emd_report(matches, config), args.out)
    if args.manifest:
        _write_manifest(args.manifest, "emd", config, t0, counters)
    return 0


def _study_rows(args) -> StudyRows:
    """One model per distinct k and one config per distinct (method,
    threshold), each in first-seen order, so no row is computed twice."""
    sims = dict.fromkeys(
        DetectorSimParams(k=k, proposal_jitter=args.jitter, theta=args.theta)
        for k in [1, args.k, *args.k_sweep])
    cfgs = dict.fromkeys([
        SuppressionConfig(method="nms", iou_thresh=args.iou),
        SuppressionConfig(method="set_nms", iou_thresh=args.iou),
        *(SuppressionConfig(method="nms", iou_thresh=t) for t in args.nms_sweep),
    ])
    return run_study(_scene_params_from(args), list(sims), list(cfgs),
                     EvalConfig(iou_thresh=args.iou), args.images, args.seed)


_CSV_COLUMNS = ["sim", "k", "method", "iou_thresh", "ap", "mr2", "ji",
                "ji_best_threshold", "recall_total", "recall_sparse",
                "recall_crowd", "matched_total", "gt_total", "matched_sparse",
                "gt_sparse", "matched_crowd", "gt_crowd"]


def _row_csv(row: StudyRow) -> list:
    r = row.report
    return [row.sim_label, row.k, row.method, row.iou_thresh, repr(r.ap),
            repr(r.mr2), repr(r.ji), repr(r.ji_best_threshold),
            repr(r.recall_total.ratio), repr(r.recall_sparse.ratio),
            repr(r.recall_crowd.ratio), r.recall_total.matched,
            r.recall_total.total, r.recall_sparse.matched,
            r.recall_sparse.total, r.recall_crowd.matched,
            r.recall_crowd.total]


def cmd_study(args) -> int:
    t0 = time.perf_counter()
    rows = _study_rows(args)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "rows.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        for row in rows:
            w.writerow(_row_csv(row))
    report = {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {"sim": row.sim_label, "k": row.k, "method": row.method,
             "iou_thresh": row.iou_thresh, **_report_dict(row.report)}
            for row in rows
        ],
    }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write(_json_text(report))
    _write_manifest(os.path.join(args.out, "manifest.json"), "study", {
        "images": args.images, "seed": args.seed, "k": args.k,
        "k_sweep": args.k_sweep, "nms_sweep": args.nms_sweep,
        "iou": args.iou, "jitter": args.jitter, "theta": args.theta,
        "out": args.out,
        "scene_params": asdict(_scene_params_from(args)),
    }, t0, rows.counters())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdset",
        description="Crowded-detection toolkit: synthetic scenes, duplicate "
                    "suppression, set-matching loss, and evaluation metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, report=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; every subcommand runs in "
                            "one process")
        if report:
            p.add_argument("--out", default=None, help="write report here "
                           "instead of stdout")
            p.add_argument("--manifest", default=None,
                           help="optional manifest path")

    p = sub.add_parser("synth", help="generate a seeded synthetic scene file")
    common(p, seed=True, report=False)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--out", required=True, help="output scene JSONL path")
    _add_scene_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suppress", help="apply a suppression method to a "
                       "detection file")
    common(p, report=False)
    p.add_argument("--method", choices=tuple(_METHOD_FLAGS), required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--score-floor", type=float, default=0.001)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_suppress)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    common(p)
    p.add_argument("--gt", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--fppi-lo", type=float, default=1e-2)
    p.add_argument("--fppi-hi", type=float, default=1e2)
    p.add_argument("--fppi-points", type=int, default=9)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("emd", help="score slot predictions against "
                       "ground-truth sets")
    common(p)
    p.add_argument("--pred", required=True, help="prediction JSONL path")
    p.add_argument("--gt", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--theta", type=float, default=0.5,
                   help="IoU threshold for set membership")
    p.add_argument("--truncate-topk", action="store_true",
                   help="keep the top-k members by IoU on overflow")
    p.set_defaults(func=cmd_emd)

    p = sub.add_parser("study", help="run the full synthetic comparison study")
    common(p, seed=True, report=False)
    p.add_argument("--images", type=int, default=200)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--k-sweep", type=lambda s: [int(v) for v in s.split(",")],
                   default=[], help="extra mip k values, e.g. 1,2,3")
    p.add_argument("--nms-sweep", type=lambda s: [float(v) for v in s.split(",")],
                   default=[], help="extra nms thresholds, e.g. 0.3,0.4")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--jitter", type=float, default=0.06)
    p.add_argument("--theta", type=float, default=0.5)
    _add_scene_flags(p)
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
