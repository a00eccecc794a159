"""Command-line surface: generate scenes, suppress, evaluate, score
prediction sets, and run studies.

Every run writes a manifest (JSON) describing the resolved configuration,
seeds, paths, and wall-clock timing, so results are reproducible from the
manifest alone. Data outputs are byte-deterministic under a fixed seed;
manifests are not (they carry timings). JSON output is strict: no NaN or
Infinity. The best-JI threshold is +inf only when the empty detection set
scores best, and is then written as null.

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

from . import __version__
from .emd import EmdConfig, match_image
from .metrics import EvalConfig, EvalReport, density_stats, evaluate
from .scene_io import (SceneRecord, parse_prediction_arrays, parse_scene_file,
                       write_scene_file)
from .suppression import METHODS, SuppressionConfig, suppress
from .synth import (DetectorSimParams, SceneParams, StudyRow, build_scenes,
                    run_study)

SCHEMA_VERSION = 1

_METHOD_FLAGS = {m.replace("_", "-"): m for m in METHODS}


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
        json.dump(manifest, f, indent=2, allow_nan=False)
        f.write("\n")


def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:  # tsv: flattened key\tvalue lines
        lines = []

        def flatten(prefix: str, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    flatten(f"{prefix}{k}." if prefix else f"{k}.", v) \
                        if isinstance(v, dict) else flatten(f"{prefix}{k}", v)
            elif obj is None or isinstance(obj, list):
                lines.append(f"{prefix}\t{json.dumps(obj)}")
            else:
                lines.append(f"{prefix}\t{obj}")

        flatten("", report)
        text = "\n".join(lines) + "\n"
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
    records = parse_scene_file(args.infile)
    method = _METHOD_FLAGS[args.method]
    cfg = SuppressionConfig(method=method, iou_thresh=args.iou,
                            sigma=args.sigma, score_floor=args.score_floor)
    if method == "set_nms":
        anonymous = sum(1 for r in records for d in r.dets if d.proposal_id is None)
        if anonymous:
            print(f"warning: {anonymous} detections carry no proposal_id; "
                  f"set-nms treats them as distinct proposals (plain nms)",
                  file=sys.stderr)
    write_scene_file([replace(r, dets=suppress(r.dets, cfg)) for r in records],
                     args.out)
    _write_manifest(args.out + ".manifest.json", "suppress", {
        "in": args.infile, "out": args.out, "method": args.method,
        "iou": args.iou, "sigma": args.sigma, "score_floor": args.score_floor,
    }, t0)
    return 0


def _gts_by_id(gt_records: list[SceneRecord], records, kind: str) -> dict:
    """Ground-truth records by id; every id in ``records`` must be there."""
    gt_by_id = {r.id: r for r in gt_records}
    missing = [r.id for r in records if r.id not in gt_by_id]
    if missing:
        raise ValueError(f"{kind} ids missing from ground-truth file: "
                         f"{', '.join(sorted(missing))}")
    return gt_by_id


def _merge_gt_det(gt_records: list[SceneRecord],
                  det_records: list[SceneRecord]) -> list[SceneRecord]:
    _gts_by_id(gt_records, det_records, "detection")
    det_by_id = {r.id: r.dets for r in det_records}
    return [replace(r, dets=det_by_id.get(r.id, [])) for r in gt_records]


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    gt_records = parse_scene_file(args.gt)
    det_records = parse_scene_file(args.det)
    scenes = _merge_gt_det(gt_records, det_records)
    cfg = EvalConfig(iou_thresh=args.iou, fppi_lo=args.fppi_lo,
                     fppi_hi=args.fppi_hi, fppi_points=args.fppi_points)
    report = evaluate(scenes, cfg)
    density = density_stats(scenes)
    out = {
        "schema_version": SCHEMA_VERSION,
        **_report_dict(report),
        "density": {
            "objects_per_image": density.objects_per_image,
            "overlaps_per_image": density.overlaps_per_image,
        },
        "config": {"iou": args.iou, "fppi_lo": args.fppi_lo,
                   "fppi_hi": args.fppi_hi, "fppi_points": args.fppi_points},
    }
    _emit(out, args.format, args.out)
    if args.manifest:
        _write_manifest(args.manifest, "eval", {
            "gt": args.gt, "det": args.det, "iou": args.iou,
            "fppi": [args.fppi_lo, args.fppi_hi, args.fppi_points],
        }, t0)
    return 0


def cmd_emd(args) -> int:
    t0 = time.perf_counter()
    gt_records = parse_scene_file(args.gt)
    pred_records = parse_prediction_arrays(args.pred)
    gt_by_id = _gts_by_id(gt_records, pred_records, "prediction")
    cls_mode = "cross_entropy" if args.cls_mode == "cross-entropy" else "focal"
    cfg = EmdConfig(k=args.k, cls_mode=cls_mode, focal_gamma=args.focal_gamma,
                    focal_alpha=args.focal_alpha)
    rows = []
    total = 0.0
    counters = {"proposals": 0, "overflowing_sets": 0, "members_dropped": 0}
    for rec in pred_records:
        match = match_image(rec, gt_by_id[rec.id].gts, cfg, args.theta,
                            args.truncate_topk)
        for idx, (n, perm, costs, t) in enumerate(zip(
                match.n_members.tolist(), match.permutation.tolist(),
                match.per_slot_cost.tolist(), match.total.tolist())):
            rows.append({"id": rec.id, "proposal_index": idx, "n_members": n,
                         "permutation": perm, "per_slot_cost": costs,
                         "total": t})
            total += t
        counters["proposals"] += len(rec)
        counters["overflowing_sets"] += match.overflowing
        counters["members_dropped"] += match.dropped
    count = counters["proposals"]
    out = {
        "schema_version": SCHEMA_VERSION,
        "proposals": rows,
        "mean_loss": (total / count) if count else 0.0,
        "config": {"k": args.k, "cls_mode": cls_mode, "theta": args.theta},
    }
    _emit(out, args.format, args.out)
    if args.manifest:
        _write_manifest(args.manifest, "emd", out["config"], t0, counters)
    return 0


def _study_rows(args) -> list[StudyRow]:
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
        json.dump(report, f, indent=2, allow_nan=False)
        f.write("\n")
    _write_manifest(os.path.join(args.out, "manifest.json"), "study", {
        "images": args.images, "seed": args.seed, "k": args.k,
        "k_sweep": args.k_sweep, "nms_sweep": args.nms_sweep,
        "iou": args.iou, "jitter": args.jitter, "theta": args.theta,
        "out": args.out,
        "scene_params": asdict(_scene_params_from(args)),
    }, t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdset",
        description="Crowded-detection toolkit: synthetic scenes, duplicate "
                    "suppression, set-matching loss, and evaluation metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, fmt=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; every subcommand runs in "
                            "one process")
        if fmt:
            p.add_argument("--format", choices=("json", "tsv"), default="json")
            p.add_argument("--out", default=None, help="write report here "
                           "instead of stdout")
            p.add_argument("--manifest", default=None,
                           help="optional manifest path")

    p = sub.add_parser("synth", help="generate a seeded synthetic scene file")
    common(p, seed=True, fmt=False)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--out", required=True, help="output scene JSONL path")
    _add_scene_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suppress", help="apply a suppression method to a "
                       "detection file")
    common(p, fmt=False)
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
    p.add_argument("--cls-mode", choices=("cross-entropy", "focal"),
                   default="cross-entropy")
    p.add_argument("--focal-gamma", type=float, default=2.0)
    p.add_argument("--focal-alpha", type=float, default=0.25)
    p.add_argument("--theta", type=float, default=0.5,
                   help="IoU threshold for set membership")
    p.add_argument("--truncate-topk", action="store_true",
                   help="keep the top-k members by IoU on overflow")
    p.set_defaults(func=cmd_emd)

    p = sub.add_parser("study", help="run the full synthetic comparison study")
    common(p, seed=True, fmt=False)
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
