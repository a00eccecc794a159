"""Command-line surface: generate scenes, suppress, evaluate, score
prediction sets, and run studies.

Each subcommand writes its data outputs and returns its counters, and
:func:`main` then writes the run's manifest (JSON), timed from the parsed
arguments: to ``<out>.manifest.json`` for ``synth`` and ``suppress``,
``<out>/manifest.json`` for ``study``, and ``--manifest``, if given, for
``eval`` and ``emd``. Its ``config`` is the parsed arguments and its
``env`` the Python, numpy and orjson versions and the platform, so results
are reproducible from the manifest alone. Data outputs are byte-deterministic
under a fixed seed; manifests are not (they carry timings). JSON output is
strict: no NaN or Infinity. The best-JI threshold is +inf only when the
empty detection set scores best, and is then written as null.

``eval`` and ``emd`` write one JSON report, indented by two spaces, to
``--out`` or stdout, and ``study`` writes ``rows.csv``, ``report.json`` and
its manifest to its ``--out`` directory. ``suppress`` suppresses all
records of its file in one batched pass, as the study does. ``emd`` takes
``--k`` from 1 to 6 (``emd.ENUMERATION_LIMIT``). It decodes both input
files in batches of whole records holding at least
``scene_io.BATCH_PROPOSALS`` elements, each prediction batch padded to its
own widest slots, and matches each prediction batch in one engine call,
whose search bounds its k! permutation totals itself. It then checks
every cost for finiteness and computes
``mean_loss``, and only then opens its destination and writes each
record's rows as they are rendered, with the bytes of
``json.dumps(report, indent=2, allow_nan=False)``, its costs spelled by
orjson or, outside [1e-4, 1e16), by ``float.__repr__``; a report that
fails its check writes nothing.
A manifest's text is built before its file is opened, and ``study`` builds
the texts of ``rows.csv`` and ``report.json`` before it creates its
directory, so a study whose rows fail writes nothing.

Each metric has one protocol: ``eval`` reports all-point AP, MR^-2 over
FPPI [10^-2, 10^0], JI over a maximum matching and the crowd/sparse recall
split, and its ``config`` records the IoU threshold and the FPPI grid;
``emd`` reports the set-matching loss with a cross-entropy plus smooth-L1
cost, and its ``config`` records ``k``, ``theta`` and ``truncate_topk``.

:func:`main` builds only the invoked subcommand's arguments; all five
subcommands stay registered, so help and usage errors read as those of the
full :func:`build_parser`.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np
import orjson

from . import __version__
from .assignment import check_theta
from .emd import ENUMERATION_LIMIT, EmdConfig, ImageMatch, match_batch
from .metrics import (CROWD_IOU, FPPI_HI, FPPI_LO, FPPI_POINTS, EvalConfig,
                      EvalReport, Evaluation, Truth)
from .scene_io import (SceneArrays, _float_columns, parse_prediction_arrays,
                       parse_scene_arrays, write_scene_arrays)
from .suppression import METHODS, Detections, OverlapGraph, SuppressionConfig
from .synth import (DetectorSimParams, SceneParams, StudyRow, _scene_arrays,
                    run_study)

SCHEMA_VERSION = 1

_METHOD_FLAGS = {m.replace("_", "-"): m for m in METHODS}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _manifest_text(args, wall_seconds: float, counters: dict) -> str:
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "tool": "crowdset",
        "version": __version__,
        "subcommand": args.command,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "command")},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "orjson": orjson.__version__, "platform": sys.platform},
        "wall_seconds": wall_seconds,
        "counters": counters,
    })


def _manifest_path(args) -> str | None:
    if args.command == "study":
        return os.path.join(args.out, "manifest.json")
    if args.command in ("synth", "suppress"):
        return args.out + ".manifest.json"
    return args.manifest


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` in order to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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
    )


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    d = SceneParams
    p.add_argument("--image-w", type=int, default=d.image_w, dest="image_w")
    p.add_argument("--image-h", type=int, default=d.image_h, dest="image_h")
    p.add_argument("--objects-mean", type=float, default=d.n_objects_mean,
                   help="mean ground truths per image")
    p.add_argument("--pairs-mean", type=float, default=d.crowd_pairs_mean,
                   help=f"mean crowd pairs (IoU > {CROWD_IOU}) per image")
    p.add_argument("--triples-mean", type=float, default=d.crowd_triples_mean,
                   help="mean crowd triples per image")
    p.add_argument("--pair-iou-lo", type=float, default=d.pair_iou_range[0])
    p.add_argument("--pair-iou-hi", type=float, default=d.pair_iou_range[1])


def cmd_synth(args) -> dict:
    scenes, counters = _scene_arrays(_scene_params_from(args), args.images,
                                     args.seed)
    write_scene_arrays(scenes, args.out)
    return counters


def cmd_suppress(args) -> dict:
    method = _METHOD_FLAGS[args.method]
    cfg = SuppressionConfig(method=method, iou_thresh=args.iou,
                            score_floor=args.score_floor)
    records = parse_scene_arrays(args.infile)
    dets, image = Detections.concat([r.dets for r in records])
    keep, scores = OverlapGraph(dets, [cfg], image).suppress(cfg)
    cuts = np.searchsorted(image[keep], np.arange(1, len(records)))
    kept = [replace(r, dets=dets.take(k, s)) for r, k, s in
            zip(records, np.split(keep, cuts), np.split(scores, cuts))]
    counters = {"images": len(records), "dets_in": len(dets), "dets_out":
                len(keep), "anonymous": int((dets.proposal_ids < 0).sum())}
    if method == "set_nms" and counters["anonymous"]:
        print(f"warning: {counters['anonymous']} detections carry no "
              f"proposal_id; set-nms treats them as distinct proposals "
              f"(plain nms)", file=sys.stderr)
    write_scene_arrays(kept, args.out)
    return counters


def _gts_by_id(gt_records: list, ids, kind: str) -> dict:
    """Ground-truth records by id; every id in ``ids`` must be there."""
    gt_by_id = {r.id: r for r in gt_records}
    missing = [i for i in ids if i not in gt_by_id]
    if missing:
        raise ValueError(f"{kind} ids missing from ground-truth file: "
                         f"{', '.join(sorted(missing))}")
    return gt_by_id


def _merge_gt_det(gt_records: list[SceneArrays],
                  det_records: list[SceneArrays]) -> list[SceneArrays]:
    _gts_by_id(gt_records, [r.id for r in det_records], "detection")
    det_by_id = {r.id: r.dets for r in det_records}
    no_dets = Detections.from_list([])
    return [replace(r, dets=det_by_id.get(r.id, no_dets)) for r in gt_records]


def cmd_eval(args) -> dict:
    cfg = EvalConfig(iou_thresh=args.iou)
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
        "config": {"iou": args.iou, "fppi_lo": FPPI_LO, "fppi_hi": FPPI_HI,
                   "fppi_points": FPPI_POINTS},
    }
    _emit([_json_text(out)], args.out)
    return ev.counters()


_ITEMS = ",\n        "


def _emd_row(k: int) -> str:
    """The ``%`` template of one report row at ``k`` slots: ``%d`` takes
    json's int spelling and ``%s`` the quoted id and the costs, spelled by
    orjson or, outside [1e-4, 1e16), by repr, as json writes them."""
    return ('    {\n      "id": %s,\n      "proposal_index": %d,\n'
            '      "n_members": %d,\n      "permutation": [\n        '
            + _ITEMS.join(["%d"] * k) + '\n      ],\n'
            '      "per_slot_cost": [\n        '
            + _ITEMS.join(["%s"] * k) + '\n      ],\n'
            '      "total": %s\n    }')


def _emd_report(matches: list[tuple[str, ImageMatch]],
                config: dict) -> Iterable[str]:
    """The emd report of each record's match, one row per proposal, as
    pieces of the text of :func:`_json_text`: the header, one piece per
    record from one template with json's int and float spellings, and the
    trailer. Every cost is checked and ``mean_loss`` summed before this
    returns, so json's ValueError for the first non-finite cost is raised
    here, before anything is written."""
    total, n = 0.0, 0
    for _, m in matches:
        if not (np.isfinite(m.per_slot_cost).all() and np.isfinite(m.total).all()):
            costs = np.column_stack([m.per_slot_cost, m.total])  # report order
            _json_text(float(costs[~np.isfinite(costs)][0]))  # raises
        for t in m.total.tolist():
            total += t
        n += len(m.total)
    text = _json_text({"schema_version": SCHEMA_VERSION, "proposals": [],
                       "mean_loss": (total / n) if n else 0.0,
                       "config": config})
    if not n:
        return [text]
    head, _, tail = text.partition('"proposals": []')
    return itertools.chain([head + '"proposals": [\n'], _emd_rows(matches),
                           ["\n  ]" + tail])


def _emd_rows(matches: list[tuple[str, ImageMatch]]) -> Iterator[str]:
    """The report rows of each record with proposals, one piece per record,
    each after the first led by the rows' separator."""
    sep = ""
    for rid, m in matches:
        p, k = m.permutation.shape
        if not p:
            continue
        cells = zip(itertools.repeat(json.dumps(rid), p), range(p),
                    np.minimum(m.n_real, k).tolist(), *m.permutation.T.tolist(),
                    *_float_columns(np.column_stack([m.per_slot_cost, m.total])))
        yield sep + (",\n".join([_emd_row(k)] * p)
                     % tuple(itertools.chain.from_iterable(cells)))
        sep = ",\n"


def cmd_emd(args) -> dict:
    """Score each prediction record against its ground truths, one engine
    call per parse batch of whole records; the ``chunks`` counter counts
    the calls. The report's costs are checked and its ``mean_loss`` computed
    before the destination is opened; each record's rows are then written
    as they are rendered (:func:`_emd_report`)."""
    cfg = EmdConfig(k=args.k)
    check_theta(args.theta)
    gt_records = parse_scene_arrays(args.gt)
    batches = parse_prediction_arrays(args.pred)
    gt_by_id = _gts_by_id(gt_records, [i for b in batches for i in b.ids],
                          "prediction")
    matches = []
    for batch in batches:
        truth = Truth([gt_by_id[i] for i in batch.ids])
        matches += zip(batch.ids, match_batch(batch, truth, cfg, args.theta,
                                              args.truncate_topk))
    config = {"k": args.k, "theta": args.theta, "truncate_topk": args.truncate_topk}
    _emit(_emd_report(matches, config), args.out)
    n_real = np.concatenate([np.zeros(0, dtype=np.intp),
                             *(m.n_real for _, m in matches)])
    excess = n_real[n_real > cfg.k] - cfg.k
    return {"proposals": len(n_real), "overflowing_sets": len(excess),
            "members_dropped": int(excess.sum()), "chunks": len(batches)}


def _study_rows(args) -> tuple[list[StudyRow], dict]:
    """One model per distinct k and one config per distinct (method,
    threshold), each in first-seen order, so no row is computed twice."""
    sim = DetectorSimParams(proposal_jitter=args.jitter, theta=args.theta)
    ks = dict.fromkeys([1, args.k, *args.k_sweep])
    cfgs = dict.fromkeys([
        SuppressionConfig(method="nms", iou_thresh=args.iou),
        SuppressionConfig(method="set_nms", iou_thresh=args.iou),
        *(SuppressionConfig(method="nms", iou_thresh=t) for t in args.nms_sweep),
    ])
    return run_study(_scene_params_from(args), sim, list(ks), list(cfgs),
                     EvalConfig(iou_thresh=args.iou), args.images, args.seed)


_CSV_COLUMNS = ["sim", "k", "method", "iou_thresh", "ap", "mr2", "ji",
                "ji_best_threshold", "recall_total", "recall_sparse",
                "recall_crowd", "matched_total", "gt_total", "matched_sparse",
                "gt_sparse", "matched_crowd", "gt_crowd"]


def _row_csv(row: StudyRow) -> list:
    r = row.report
    return [f"mip{row.k}", row.k, row.method, row.iou_thresh, repr(r.ap),
            repr(r.mr2), repr(r.ji), repr(r.ji_best_threshold),
            repr(r.recall_total.ratio), repr(r.recall_sparse.ratio),
            repr(r.recall_crowd.ratio), r.recall_total.matched,
            r.recall_total.total, r.recall_sparse.matched,
            r.recall_sparse.total, r.recall_crowd.matched,
            r.recall_crowd.total]


def cmd_study(args) -> dict:
    rows, counters = _study_rows(args)
    table = io.StringIO()
    w = csv.writer(table, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    w.writerows(map(_row_csv, rows))
    texts = {
        "rows.csv": table.getvalue(),
        "report.json": _json_text({
            "schema_version": SCHEMA_VERSION,
            "rows": [{"sim": f"mip{row.k}", "k": row.k, "method": row.method,
                      "iou_thresh": row.iou_thresh, **_report_dict(row.report)}
                     for row in rows],
        }),
    }
    os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        _emit([text], os.path.join(args.out, name))
    return counters


def _list_of(kind: type):
    """Comma-separated ``kind`` values; argparse names it "<kind> list"."""
    def convert(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    convert.__name__ = f"{kind.__name__} list"
    return convert


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; with ``command``, only that subcommand has arguments."""
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
    if command in (None, "synth"):
        common(p, seed=True, report=False)
        p.add_argument("--images", type=int, required=True)
        p.add_argument("--out", required=True, help="output scene JSONL path")
        _add_scene_flags(p)
        p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suppress", help="apply a suppression method to a "
                       "detection file")
    if command in (None, "suppress"):
        common(p, report=False)
        p.add_argument("--method", choices=tuple(_METHOD_FLAGS), required=True,
                       help="soft-gaussian uses a fixed sigma of 0.5")
        p.add_argument("--iou", type=float, default=SuppressionConfig.iou_thresh)
        p.add_argument("--score-floor", type=float,
                       default=SuppressionConfig.score_floor)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_suppress)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    if command in (None, "eval"):
        common(p)
        p.add_argument("--gt", required=True)
        p.add_argument("--det", required=True)
        p.add_argument("--iou", type=float, default=EvalConfig.iou_thresh)
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("emd", help="score slot predictions against "
                       "ground-truth sets")
    if command in (None, "emd"):
        common(p)
        p.add_argument("--pred", required=True, help="prediction JSONL path")
        p.add_argument("--gt", required=True)
        p.add_argument("--k", type=int, default=EmdConfig.k,
                       help=f"slots per proposal, 1 to {ENUMERATION_LIMIT}")
        p.add_argument("--theta", type=float, default=DetectorSimParams.theta,
                       help="IoU threshold for set membership")
        p.add_argument("--truncate-topk", action="store_true",
                       help="keep the top-k members by IoU on overflow")
        p.set_defaults(func=cmd_emd)

    p = sub.add_parser("study", help="run the full synthetic comparison study")
    if command in (None, "study"):
        common(p, seed=True, report=False)
        p.add_argument("--images", type=int, default=200)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--k", type=int, default=DetectorSimParams.k)
        p.add_argument("--k-sweep", type=_list_of(int), default=[],
                       help="extra mip k values, e.g. 1,2,3")
        p.add_argument("--nms-sweep", type=_list_of(float), default=[],
                       help="extra nms thresholds, e.g. 0.3,0.4")
        p.add_argument("--iou", type=float, default=EvalConfig.iou_thresh)
        p.add_argument("--jitter", type=float,
                       default=DetectorSimParams.proposal_jitter)
        p.add_argument("--theta", type=float, default=DetectorSimParams.theta)
        _add_scene_flags(p)
        p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option values, so the first word that
    # is not an option names the subcommand.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    t0 = time.perf_counter()
    try:
        counters = args.func(args)
        path = _manifest_path(args)
        if path:
            _emit([_manifest_text(args, time.perf_counter() - t0, counters)],
                  path)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
