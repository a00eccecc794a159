import ast
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import emd_oracle as oracle
import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_emd import emd_images
from test_suppression import _det, _images, _thresh, indexed, oracle_suppress

import crowdset
from crowdset import __version__, cli, emd, scene_io, synth
from crowdset.assignment import GroundTruth, build_gt_set
from crowdset.cli import (_METHOD_FLAGS, _emd_report, _emit, _manifest_text,
                          build_parser, main)
from crowdset.emd import (EmdConfig, ImageMatch, PredictionSet, SlotPrediction,
                          emd_match)
from crowdset.geometry import BBox, BoxDelta
from crowdset.metrics import EvalConfig
from crowdset.scene_io import (PredictionRecord, SceneRecord,
                               parse_prediction_file, parse_scene_file,
                               write_prediction_file, write_scene_file)
from crowdset.suppression import SOFT_SIGMA, Detection, SuppressionConfig
from crowdset.synth import (DetectorSimParams, SceneParams, build_scenes,
                            derive_seed, simulate_detector)

# sha256 of outputs whose bytes must not change; a change to any of them is a
# behaviour change to declare, not a test to update silently.
RAW_DETECTIONS_SHA256 = "d1894d7acfc152ed5413f09d64a0f3787111dd3aef2628ce69c1e88c32c9dc31"
EVAL_SET_NMS_SHA256 = "a5dc1a12c9306858cdfe99950ebee234dadeefa8afef3081b0f6821e1c9df952"
STUDY_ROWS_SHA256 = "d645246ca954da050c364203d1deceb7e14f9c79fab45eda04560e2e482069aa"
STUDY_REPORT_SHA256 = "4aa56c0b0ee3ab7151ba18d0824dd330541738084454afd7aa877e804fbc16c2"
# crowdset suppress of the round trip's raw detections, per method flag.
SUPPRESS_SHA256 = {
    "nms": "4890cdbb2c1a3c334ceb5864a0fa850ec8bcaccfc90c3f35fce85d2db228a067",
    "set-nms": "86fcf38a0d65bba128d1218d1e384ce4d84879de054c0f830b7a847f6dc02f3d",
    "soft-linear": "09abf9f337289ef950eeeee5af685491c06f49786443f4eaf06d4184736fbd2f",
    "soft-gaussian": "3985953f9721e4f0a698a283b0871a161d1c9f7baa8a112a4e5f940b4e3bda11",
}


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def strict_json(path):
    """Parse a JSON file, rejecting NaN and +/-Infinity literals."""
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=reject)


@pytest.fixture
def round_trip(tmp_path):
    """synth -> simulated raw detections -> suppress --method set-nms."""
    gt = tmp_path / "gt.jsonl"
    assert main(["synth", "--images", "6", "--seed", "3", "--out", str(gt)]) == 0
    raw = [SceneRecord(id=r.id, width=r.width, height=r.height,
                       dets=simulate_detector(r.gts, DetectorSimParams(
                           k=2, seed=derive_seed(3, 1, i))))
           for i, r in enumerate(parse_scene_file(gt))]
    write_scene_file(raw, tmp_path / "raw.jsonl")
    det = tmp_path / "det.jsonl"
    assert main(["suppress", "--method", "set-nms", "--in",
                 str(tmp_path / "raw.jsonl"), "--out", str(det)]) == 0
    return gt, det


class TestRoundTrip:
    def test_simulated_bytes_are_pinned(self, round_trip, tmp_path):
        assert sha256(tmp_path / "raw.jsonl") == RAW_DETECTIONS_SHA256

    def test_eval_bytes_are_pinned(self, round_trip, tmp_path):
        gt, det = round_trip
        out = tmp_path / "eval.json"
        assert main(["eval", "--gt", str(gt), "--det", str(det),
                     "--out", str(out)]) == 0
        rep = strict_json(out)
        assert 0.9 < rep["ap"] <= 1.0
        assert rep["recall"]["total"]["matched"] > 0
        assert sha256(out) == EVAL_SET_NMS_SHA256

    def test_manifests_are_strict_json(self, round_trip, tmp_path):
        gt, det = round_trip
        manifest = tmp_path / "eval.manifest.json"
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--out",
                     str(tmp_path / "e.json"), "--manifest", str(manifest)]) == 0
        for path in (manifest, tmp_path / "gt.jsonl.manifest.json",
                     tmp_path / "det.jsonl.manifest.json"):
            assert strict_json(path)["tool"] == "crowdset"


class TestStrictJson:
    def test_no_matchable_detection_writes_null_threshold(self, tmp_path):
        # synth writes no detections, so the best JI is the empty set's,
        # reached at threshold +inf.
        gt = tmp_path / "gt.jsonl"
        assert main(["synth", "--images", "2", "--seed", "5", "--out", str(gt)]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--gt", str(gt), "--det", str(gt),
                     "--out", str(out)]) == 0
        rep = strict_json(out)
        assert rep["ji_best_threshold"] is None
        assert rep["ji"] == 0.0 and rep["recall"]["total"]["matched"] == 0


class TestEvalCounters:
    def test_manifest_counts_the_sparse_pass(self, tmp_path):
        # Image a: a crowd pair (IoU 0.6), a lone box and an ignored box;
        # a detection on the pair's first box, one on nothing and one on the
        # ignored box. Image b has one ground truth and no detections.
        def gt(x1, y1, x2, y2, ignore=False):
            return GroundTruth(box=BBox(x1, y1, x2, y2), ignore=ignore)

        def det(x1, y1, x2, y2, score):
            return Detection(box=BBox(x1, y1, x2, y2), score=score)

        gts = [gt(0.0, 0.0, 10.0, 10.0), gt(0.0, 2.5, 10.0, 12.5),
               gt(100.0, 100.0, 110.0, 110.0), gt(5.0, 0.0, 15.0, 10.0, True)]
        dets = [det(0.0, 0.0, 10.0, 10.0, 0.9), det(200.0, 0.0, 210.0, 10.0, 0.5),
                det(5.0, 0.0, 15.0, 10.0, 0.8)]
        write_scene_file([SceneRecord(id="a", gts=gts),
                          SceneRecord(id="b", gts=gts[:1])], tmp_path / "gt.jsonl")
        write_scene_file([SceneRecord(id="a", dets=dets)], tmp_path / "det.jsonl")
        manifest = tmp_path / "eval.manifest.json"
        assert main(["eval", "--gt", str(tmp_path / "gt.jsonl"), "--det",
                     str(tmp_path / "det.jsonl"), "--out",
                     str(tmp_path / "eval.json"), "--manifest", str(manifest)]) == 0
        # Pairs whose x-extents intersect: 6 det/GT, 3 GT/GT. At IoU >= 0.5
        # and the same class: the first detection with both boxes of the
        # pair (two candidates: the one detection walked), the third with
        # the ignored box.
        assert strict_json(manifest)["counters"] == {
            "images": 2, "gts": 5, "dets": 3, "candidate_pairs": 9,
            "det_gt_pairs_above_iou": 3, "crowd_pairs": 1, "walked": 1}
        rep = strict_json(tmp_path / "eval.json")
        assert rep["density"] == {"objects_per_image": 2.0,
                                  "overlaps_per_image": 0.5}
        assert rep["recall"]["crowd"] == {"matched": 1, "total": 2, "ratio": 0.5}

    def test_counters_agree_with_the_report(self, round_trip, tmp_path):
        gt, det = round_trip
        manifest = tmp_path / "eval.manifest.json"
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--out",
                     str(tmp_path / "e.json"), "--manifest", str(manifest)]) == 0
        counters = strict_json(manifest)["counters"]
        rep = strict_json(tmp_path / "e.json")
        assert counters["images"] == 6
        assert counters["gts"] == sum(len(r.gts) for r in parse_scene_file(gt))
        assert counters["dets"] == sum(len(r.dets) for r in parse_scene_file(det))
        assert counters["crowd_pairs"] == rep["density"]["overlaps_per_image"] * 6
        assert (counters["candidate_pairs"] >= counters["det_gt_pairs_above_iou"]
                >= rep["recall"]["total"]["matched"] > 0)


class TestStudy:
    def test_rows_and_report_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--images", "4", "--k-sweep", "1,2,3",
                     "--nms-sweep", "0.3", "--jobs", "1", "--out", str(out)]) == 0
        assert sha256(out / "rows.csv") == STUDY_ROWS_SHA256
        assert sha256(out / "report.json") == STUDY_REPORT_SHA256
        rows = strict_json(out / "report.json")["rows"]
        assert all(math.isfinite(r["ji_best_threshold"]) for r in rows)
        assert strict_json(out / "manifest.json")["subcommand"] == "study"

    def test_manifest_counts_the_shared_work(self, tmp_path):
        # Three models (k = 1, 2, 3) of one draw and three configs: one
        # draw per image, one sweep of the draw over all its images, and
        # no Set NMS row for the one-slot model. Placing the three scenes
        # rejects one candidate box.
        out = tmp_path / "study"
        assert main(["study", "--images", "3", "--k-sweep", "1,2,3",
                     "--nms-sweep", "0.3", "--out", str(out)]) == 0
        counters = strict_json(out / "manifest.json")["counters"]
        assert counters == {"images": 3, "draws": 3, "sweeps": 1, "rows": 8,
                            "placement_retries": 1}
        assert len(strict_json(out / "report.json")["rows"]) == 8

    def test_each_model_and_threshold_runs_once(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--images", "1", "--k", "3", "--k-sweep",
                     "3,1,2,2", "--nms-sweep", "0.3,0.5,0.3", "--out",
                     str(out)]) == 0
        rows = [(r["sim"], r["k"], r["method"], r["iou_thresh"])
                for r in strict_json(out / "report.json")["rows"]]
        # A one-slot model has no Set NMS row: it would equal its NMS row.
        assert rows == [(f"mip{k}", k, method, t) for k in (1, 3, 2)
                        for method, t in (("nms", 0.5), ("set_nms", 0.5),
                                          ("nms", 0.3))
                        if (k, method) != (1, "set_nms")]


# Crowd pairs and triples on four images: sets of three members, and k = 3
# rows that differ from the k = 2 rows.
DENSE = ["--images", "4", "--pairs-mean", "6", "--triples-mean", "0.8"]


@pytest.fixture
def dense(tmp_path):
    """Dense scenes from synth and k = 3 simulated detections on them."""
    gt, det = tmp_path / "dense.jsonl", tmp_path / "dense_det.jsonl"
    assert main(["synth", *DENSE, "--out", str(gt)]) == 0
    write_scene_file([SceneRecord(id=r.id, dets=simulate_detector(
        r.gts, DetectorSimParams(k=3, seed=i)))
        for i, r in enumerate(parse_scene_file(gt))], det)
    return gt, det


class TestRepeatedRuns:
    """Outputs that no golden pins: each repeats byte for byte under a
    seed, and a model's study rows do not depend on the other models."""

    @pytest.mark.parametrize("iou", ["0.5", "0.75"])
    def test_eval_repeats_and_records_the_fppi_grid(self, dense, tmp_path,
                                                    iou):
        gt, det = dense
        outs = [tmp_path / f"eval_{run}.json" for run in "ab"]
        for out in outs:
            assert main(["eval", "--iou", iou, "--gt", str(gt), "--det",
                         str(det), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert strict_json(outs[0])["config"] == {
            "iou": float(iou), "fppi_lo": 0.01, "fppi_hi": 1.0,
            "fppi_points": 9}

    def test_soft_nms_output_repeats_in_strict_json(self, dense, tmp_path):
        _, det = dense
        outs = [tmp_path / f"soft_{run}.jsonl" for run in "ab"]
        for out in outs:
            assert main(["suppress", "--method", "soft-gaussian", "--in",
                         str(det), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        lines = outs[0].read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line, parse_constant=lambda c: pytest.fail(c))

    @pytest.mark.parametrize("flags", [
        ["--images", "4", "--iou", "0.75", "--k-sweep", "1,2,3"],
        [*DENSE, "--k", "3", "--k-sweep", "1,2,3"]], ids=["iou-0.75", "dense"])
    def test_study_repeats(self, tmp_path, flags):
        for run in "ab":
            assert main(["study", *flags, "--out", str(tmp_path / run)]) == 0
        for name in ("rows.csv", "report.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_one_slot_rows_do_not_depend_on_the_other_models(self, tmp_path):
        # The one-slot model's rows of a study of it alone equal its rows
        # of a study that also runs k = 2 and k = 3 on the same draw.
        rows = {}
        for name, flags in (("alone", ["--k", "1"]),
                            ("shared", ["--k", "3", "--k-sweep", "1,2,3"])):
            out = tmp_path / name
            assert main(["study", *DENSE, *flags, "--nms-sweep", "0.3,0.4",
                         "--out", str(out)]) == 0
            rows[name] = [line for line in (out / "rows.csv").read_text()
                          .splitlines() if line.startswith("mip1,")]
        assert len(rows["alone"]) == 3
        assert rows["alone"] == rows["shared"]


class TestExitCodes:
    def test_id_mismatch_is_runtime_failure(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_scene_file([SceneRecord(id="a")], gt)
        det = tmp_path / "det.jsonl"
        write_scene_file([SceneRecord(id="b")], det)
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 1
        assert "missing from ground-truth file" in capsys.readouterr().err

    def test_missing_input_is_runtime_failure(self, tmp_path):
        assert main(["suppress", "--method", "nms", "--in",
                     str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")]) == 1

    def test_prediction_id_mismatch_is_runtime_failure(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_scene_file([SceneRecord(id="a")], gt)
        pred = tmp_path / "pred.jsonl"
        write_prediction_file([PredictionRecord(id="b")], pred)
        assert main(["emd", "--gt", str(gt), "--pred", str(pred)]) == 1
        assert ("prediction ids missing from ground-truth file: b"
                in capsys.readouterr().err)

    def test_integer_beyond_float_range_is_malformed_json(self, tmp_path,
                                                          capsys):
        # orjson rejects the literal; its message is taken from orjson, as
        # its wording may differ between versions.
        paths, lines = {}, {}
        for name, record in [
                ("gt", {"id": "a", "gts": [{"box_xyxy": [0, 0, 40, 80]}]}),
                ("big_gt", {"id": "a", "gts": [{"box_xyxy": [0, 0, 40, 10**400]}]}),
                ("pred", {"id": "a", "proposals": []}),
                ("big_pred", {"id": "a", "proposals": [{
                    "box_xyxy": [0, 0, 40, 80],
                    "slots": [{"scores": [0.5, 0.5], "delta": [0, 10**400, 0, 0]}]}]})]:
            paths[name] = str(tmp_path / f"{name}.jsonl")
            lines[name] = json.dumps(record)
            Path(paths[name]).write_text(lines[name] + "\n")
        for argv, bad in ((["eval", "--gt", paths["big_gt"], "--det", paths["gt"]],
                           "big_gt"),
                          (["emd", "--gt", paths["big_gt"], "--pred", paths["pred"]],
                           "big_gt"),
                          (["emd", "--k", "1", "--gt", paths["gt"], "--pred",
                            paths["big_pred"]], "big_pred")):
            with pytest.raises(orjson.JSONDecodeError) as rejected:
                orjson.loads(lines[bad])
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: line 1: malformed JSON ({rejected.value.msg})\n")

    @pytest.mark.parametrize("bad_line", [b"[" * 100_000, b'{"id": "\xff"}'],
                             ids=["nested-too-deeply", "not-utf-8"])
    def test_undecodable_line_is_a_runtime_failure(self, tmp_path, capsys,
                                                   bad_line):
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"id": "a"}\n' + bad_line + b"\n")
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", "nms", "--in", str(src),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: malformed JSON (")
        assert not out.exists()

    def test_a_box_whose_area_overflows_is_a_runtime_failure(self, tmp_path,
                                                             capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"id": "a"}\n' + json.dumps({"id": "b", "dets": [
            {"box_xyxy": [0, 0, 1e154, 1e154], "score": 0.5}]}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", "nms", "--in", str(src),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: bad record (box area overflows")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--gt", "g", "--det", "d", "--bogus"],
        ["suppress", "--method", "fast-nms", "--in", "a", "--out", "b"],
        ["suppress", "--method", "nms", "--in", "a", "--out", "b",
         "--seed", "1"],
        ["eval", "--gt", "g", "--det", "d", "--seed", "1"],
        ["emd", "--gt", "g", "--pred", "p", "--seed", "1"],
        ["bench", "--boxes", "10"],
        ["study"],
        [],
        ["eval", "--gt", "g", "--det", "d", "--format", "json"],
        ["emd", "--gt", "g", "--pred", "p", "--cls-mode", "cross-entropy"],
    ])
    def test_bad_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, kind", [
        ("--k-sweep", "1,x", "int list"), ("--nms-sweep", "0.3,", "float list")])
    def test_bad_sweep_names_its_type(self, tmp_path, capsys, flag, value,
                                      kind):
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["study", "--images", "1", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid {kind} value: {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--fppi-lo", "0.1"),
                                             ("--fppi-hi", "2"),
                                             ("--fppi-points", "5")])
    def test_fppi_flags_are_usage_errors(self, round_trip, tmp_path, capsys,
                                         flag, value):
        # MR^-2's FPPI grid is a protocol constant that no flag changes.
        gt, det = round_trip
        capsys.readouterr()
        out = tmp_path / "eval.json"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(gt), "--det", str(det), flag, value,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pred_text", ["", '{"id": "a", "proposals": []}\n',
                                           "{broken\n"],
                             ids=["empty", "no-proposals", "malformed"])
    def test_theta_is_checked_before_predictions_are_read(self, tmp_path,
                                                         capsys, pred_text):
        gt = tmp_path / "gt.jsonl"
        write_scene_file([SceneRecord(id="a")], gt)
        pred = tmp_path / "pred.jsonl"
        pred.write_text(pred_text)
        out = tmp_path / "emd.json"
        assert main(["emd", "--gt", str(gt), "--pred", str(pred), "--theta",
                     "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: theta must be in (0, 1], got 0.0\n"
        assert not out.exists()


COMMANDS = ("synth", "suppress", "eval", "emd", "study")


def _exit_of(parse, argv) -> tuple:
    """The exit code, stdout and stderr of ``parse(argv)``, which exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code or 0, out.getvalue(), err.getvalue()


BENCH = Path(__file__).resolve().parents[1] / "bench"
# The config dataclasses bench/ builds with keyword arguments.
BENCH_CONFIGS = {cls.__name__: cls for cls in (
    DetectorSimParams, SceneParams, SuppressionConfig, EvalConfig, EmdConfig)}
# Each bench workload and the subcommand its ops run.
BENCH_WORKLOADS = {"study": "study", "dense_eval": "eval",
                   "suppress_large": "suppress", "emd_loss": "emd"}
# The exports that cli.py, run_study and bench/ do not name, and why each
# stays public.
UNNAMED_EXPORTS = {
    "GtSet": "record: what build_gt_set returns",
    "EmdMatch": "record: what emd_match returns",
    "RecallStats": "record: the recall fields of EvalReport",
    "GeometryError": "exception: raised by BBox",
    "SceneFileError": "exception: raised by the scene and prediction parsers",
    "SceneGenerationError": "exception: raised by build_scenes",
    "decode_delta": "encode_delta's inverse, kept for ROADMAP item 11",
}


def _bench_nodes():
    """Every AST node of each bench/*.py, with its file name."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _bench_imports():
    """Each ``from crowdset... import`` node of bench/*.py, with its file."""
    for name, node in _bench_nodes():
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "crowdset"):
            yield name, node


def _named(obj) -> set:
    """The names ``obj``'s source reads or imports."""
    nodes = list(ast.walk(ast.parse(inspect.getsource(obj))))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom)
               for a in n.names})


class TestSurface:
    """The package surface bench/ uses, read from bench/'s source: bench/
    changes only together with the benchmark, so a change to the package
    must keep the names, config fields and command lines it uses."""

    def test_every_bench_import_resolves(self):
        checked = 0
        for name, node in _bench_imports():
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{name}: {node.module} has no {alias.name}"
                checked += 1
        assert checked >= 40

    def test_every_export_is_reached(self):
        reached = _named(cli) | _named(synth.run_study) | {
            alias.name for _, node in _bench_imports() for alias in node.names}
        assert set(UNNAMED_EXPORTS) <= set(crowdset.__all__) - reached
        assert [name for name in crowdset.__all__
                if name not in reached and name not in UNNAMED_EXPORTS] == []

    def test_every_bench_config_keyword_is_a_field(self):
        checked = 0
        for name, node in _bench_nodes():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            cls = BENCH_CONFIGS.get(getattr(func, "id",
                                            getattr(func, "attr", "")))
            if cls is None:
                continue
            names = {f.name for f in fields(cls)}
            for kw in node.keywords:
                assert kw.arg in names, \
                    f"{name}:{node.lineno} {cls.__name__} has no {kw.arg}"
                checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("workload, command", BENCH_WORKLOADS.items())
    def test_every_bench_op_parses(self, workload, command):
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert workloads.WORKLOADS == tuple(BENCH_WORKLOADS)
        inputs = {"images": 1, "study_seeds": [31], "dets": 1, "proposals": 1}
        ops = workloads.plan(workload, 31, inputs, "in", "out")["ops"]
        assert ops
        for op in ops:
            args = build_parser().parse_args(op["argv"])
            assert args.command == command and args.jobs == 1

    @pytest.mark.parametrize("flag", ["nms", "set-nms", "soft-linear",
                                      "soft-gaussian"])
    def test_every_method_flag_runs_with_jobs_1(self, round_trip, tmp_path,
                                               flag):
        _, det = round_trip
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", flag, "--in", str(det),
                     "--jobs", "1", "--out", str(out)]) == 0
        assert (strict_json(str(out) + ".manifest.json")["config"]["method"]
                == flag)

    def test_suppress_help_states_the_fixed_sigma(self, capsys):
        with pytest.raises(SystemExit):
            main(["suppress", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"fixed sigma of {SOFT_SIGMA}" in help_text

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["--version"], 0),
        *(([command, "--help"], 0) for command in COMMANDS),
        ([], 2), (["bogus"], 2), (["bogus", "eval"], 2),
        (["eval", "--det", "d.jsonl"], 2), (["--jobs", "1", "study"], 2),
        (["suppress", "--method", "soft-gaussian", "--sigma", "0.5", "--in",
          "d.jsonl", "--out", "k.jsonl"], 2)])
    def test_main_parses_as_the_full_parser(self, argv, code):
        # main builds only the invoked subcommand's arguments.
        got = _exit_of(main, argv)
        assert got == _exit_of(build_parser().parse_args, argv)
        exit_code, out, err = got
        assert exit_code == code and (err if code else out)
        if argv == ["--version"]:
            assert out == __version__ + "\n"


class TestSuppress:
    @pytest.mark.parametrize("flag", list(SUPPRESS_SHA256))
    def test_output_bytes_are_pinned(self, round_trip, tmp_path, flag):
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", flag, "--in",
                     str(tmp_path / "raw.jsonl"), "--out", str(out)]) == 0
        assert sha256(out) == SUPPRESS_SHA256[flag]

    def _anonymous_input(self, tmp_path):
        """Two records: four boxes on one spot, two of them without a
        proposal id, and an empty record."""
        dets = [Detection(box=BBox(0.0, 0.0, 10.0, 10.0), score=0.9 - 0.1 * i,
                          proposal_id=None if i % 2 else 0, slot=i)
                for i in range(4)]
        path = tmp_path / "anon.jsonl"
        write_scene_file([SceneRecord(id="a", dets=dets), SceneRecord(id="b")],
                         path)
        return path

    @pytest.mark.parametrize("flag, kept", [("set-nms", 2), ("nms", 1),
                                            ("soft-gaussian", 4)])
    def test_manifest_counts_and_anonymous_warning(self, tmp_path, capsys,
                                                   flag, kept):
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", flag, "--in",
                     str(self._anonymous_input(tmp_path)), "--out",
                     str(out)]) == 0
        assert strict_json(str(out) + ".manifest.json")["counters"] == {
            "images": 2, "dets_in": 4, "dets_out": kept, "anonymous": 2}
        assert sum(len(r.dets) for r in parse_scene_file(out)) == kept
        err = capsys.readouterr().err
        if flag == "set-nms":
            assert err == ("warning: 2 detections carry no proposal_id; "
                           "set-nms treats them as distinct proposals "
                           "(plain nms)\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("flag, value, rule", [
        ("--score-floor", "nan", ">= 0"), ("--score-floor", "inf", ">= 0")])
    def test_non_finite_soft_settings_write_nothing(self, tmp_path, capsys,
                                                    flag, value, rule):
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", "soft-gaussian", "--in",
                     str(self._anonymous_input(tmp_path)), flag, value,
                     "--out", str(out)]) == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: {field} must be finite and {rule}, got {value}\n")
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_no_warning_when_every_detection_has_a_proposal(self, round_trip,
                                                            tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["suppress", "--method", "set-nms", "--in",
                     str(tmp_path / "raw.jsonl"), "--out", str(out)]) == 0
        counters = strict_json(str(out) + ".manifest.json")["counters"]
        assert counters["anonymous"] == 0 and counters["images"] == 6
        assert counters["dets_out"] == sum(len(r.dets)
                                           for r in parse_scene_file(out))
        assert capsys.readouterr().err == ""

    def test_strict_field_error_is_a_runtime_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "dets": [
            {"box_xyxy": [0, 0, 1, 1], "score": 0.5, "proposal_id": 2.7}]}) + "\n")
        assert main(["suppress", "--method", "set-nms", "--in", str(path),
                     "--out", str(tmp_path / "out.jsonl")]) == 1
        assert ("line 1: record 'a': proposal_id must be a 64-bit integer, "
                "got 2.7" in capsys.readouterr().err)


@st.composite
def suppress_files(draw):
    """The records of one suppress input file, each a list of detections
    whose ``slot`` is its index in the record: the images of
    ``test_suppression._images``, two records of anonymous detections of
    both classes (so the ids -1 and -2 repeat across records) and an empty
    record, each inserted at a drawn place."""
    images = draw(_images())
    for _ in range(2):
        dets = draw(st.lists(_det, min_size=2, max_size=8))
        images.insert(draw(st.integers(0, len(images))), indexed(
            [replace(d, proposal_id=None, class_id=1 + i % 2)
             for i, d in enumerate(dets)]))
    images.insert(draw(st.integers(0, len(images))), [])
    return images


class TestSuppressFile:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(suppress_files(), _thresh, st.sampled_from([0.0, 0.001, 0.2]))
    def test_each_record_equals_the_oracle_alone(self, images, thresh, floor):
        records = [SceneRecord(id=f"r{n}", dets=dets)
                   for n, dets in enumerate(images)]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "in.jsonl"), Path(tmp, "out.jsonl")
            write_scene_file(records, path)
            for flag, method in _METHOD_FLAGS.items():
                cfg = SuppressionConfig(method=method, iou_thresh=thresh,
                                        score_floor=floor)
                with contextlib.redirect_stderr(io.StringIO()):
                    assert main(["suppress", "--method", flag, "--iou",
                                 repr(thresh), "--score-floor", repr(floor),
                                 "--in", str(path), "--out", str(out)]) == 0
                got = parse_scene_file(out)
                want = [oracle_suppress(dets, cfg) for dets in images]
                assert [r.id for r in got] == [r.id for r in records]
                for r, kept in zip(got, want):
                    assert r.dets == kept, flag
                    assert ([d.score.hex() for d in r.dets]
                            == [d.score.hex() for d in kept]), flag
                assert strict_json(str(out) + ".manifest.json")["counters"] == {
                    "images": len(images), "dets_in": sum(map(len, images)),
                    "dets_out": sum(map(len, want)),
                    "anonymous": sum(d.proposal_id is None
                                     for dets in images for d in dets)}, flag


class TestRecordFields:
    @pytest.mark.parametrize("record, error", [
        ({"id": None}, "record None: id must be a JSON string, got None"),
        ({"id": 1}, "record 1: id must be a JSON string, got 1"),
        ({"id": "a", "gts": {}}, "record 'a': gts must be a JSON array, got {}")])
    def test_a_coercible_field_fails_and_writes_nothing(self, tmp_path, capsys,
                                                        record, error):
        # suppress used to write {"id": 1} back as "1", and eval to read
        # "gts": {} as no ground truths.
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.json"
        for argv in (["eval", "--gt", str(path), "--det", str(path)],
                     ["suppress", "--method", "nms", "--in", str(path)]):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: line 1: {error}\n"
            assert not out.exists()
            assert not Path(str(out) + ".manifest.json").exists()


# Small crowded scenes with triples, so some proposals overflow k=2.
EMD_SCENES = SceneParams(image_w=480, image_h=320, n_objects_mean=8.0,
                         crowd_pairs_mean=1.0, crowd_triples_mean=1.5)
EMD_SHA256 = {
    "k2-truncate": "a5531b8d5efcd1907af88901706cda74fbc4bb0a52dc113e0e1780e810928109",
    "k3": "3bdb5ab1cf87fd799a227a6232b21f43c918b175af5cf1705155e0722abe7a2e",
}
EMD_ARGV = {
    "k2-truncate": ["--k", "2", "--truncate-topk"],
    "k3": ["--k", "3"],
}


def _jittered(rng, box):
    n = rng.normal(0.0, 1.0, 4)
    w = box.width * float(np.exp(0.06 * n[2]))
    h = box.height * float(np.exp(0.06 * n[3]))
    cx = box.center[0] + 0.06 * box.width * n[0]
    cy = box.center[1] + 0.06 * box.height * n[1]
    return BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _slot(rng, n_classes):
    v = rng.uniform(0.05, 1.0, n_classes)
    return SlotPrediction(class_scores=v / v.sum(),
                          delta=BoxDelta(*(float(d) for d in rng.normal(0, 0.2, 4))))


@pytest.fixture
def emd_inputs(tmp_path):
    """Ground truths and k=2/k=3 predictions: two proposals per GT, sets of
    at most three members, one ignored GT, a record without GTs, a record
    without proposals, and some 3-class score vectors among 2-class ones."""
    scenes = build_scenes(EMD_SCENES, 3, seed=5)
    gts = list(scenes[0].gts)
    gts[0] = replace(gts[0], ignore=True)
    scenes[0] = replace(scenes[0], gts=gts)
    scenes.append(SceneRecord(id="no-gts"))
    scenes.append(SceneRecord(id="no-proposals", gts=[
        GroundTruth(box=BBox(10.0, 10.0, 50.0, 90.0))]))
    rng = np.random.default_rng(17)
    preds = {2: [], 3: []}
    for scene in scenes:
        anchors = [g.box for g in scene.gts]
        if scene.id == "no-gts":
            anchors = [BBox(5.0, 5.0, 45.0, 85.0), BBox(200.0, 40.0, 260.0, 160.0)]
        props = {2: [], 3: []}
        if scene.id != "no-proposals":
            for box in anchors:
                for _ in range(2):
                    p = _jittered(rng, box)
                    if build_gt_set(p, scene.gts, 0.5).n_real > 3:
                        continue
                    slots = [_slot(rng, 3 if (len(props[3]) + j) % 4 == 1 else 2)
                             for j in range(3)]
                    for k in props:
                        props[k].append(PredictionSet(proposal=p,
                                                      slots=tuple(slots[:k])))
        for k in preds:
            preds[k].append(PredictionRecord(id=scene.id, proposals=props[k]))
    gt_path = tmp_path / "emd_gt.jsonl"
    write_scene_file(scenes, gt_path)
    paths = {}
    for k, records in preds.items():
        paths[k] = tmp_path / f"emd_pred_k{k}.jsonl"
        write_prediction_file(records, paths[k])
    return gt_path, paths


@pytest.fixture
def emd_k6_pred(emd_inputs, tmp_path):
    """k=6 predictions, the largest accepted k, on the emd_inputs ground
    truths: one proposal per GT, each with six slots of 2- and 3-class
    scores."""
    gt, _ = emd_inputs
    rng = np.random.default_rng(23)
    records = [PredictionRecord(id=r.id, proposals=[
        PredictionSet(proposal=_jittered(rng, g.box),
                      slots=tuple(_slot(rng, 2 + j % 2) for j in range(6)))
        for g in r.gts]) for r in parse_scene_file(gt)]
    path = tmp_path / "emd_pred_k6.jsonl"
    write_prediction_file(records, path)
    return path


def _run_emd(tmp_path, gt, pred, extra, name="emd.json"):
    out = tmp_path / name
    manifest = tmp_path / (name + ".manifest.json")
    code = main(["emd", "--gt", str(gt), "--pred", str(pred), "--out", str(out),
                 "--manifest", str(manifest), *extra])
    return code, out, manifest


class TestEmd:
    @pytest.mark.parametrize("run", list(EMD_ARGV))
    def test_report_bytes_are_pinned(self, emd_inputs, tmp_path, run):
        gt, preds = emd_inputs
        k = int(EMD_ARGV[run][1])
        code, out, _ = _run_emd(tmp_path, gt, preds[k], EMD_ARGV[run])
        assert code == 0
        assert sha256(out) == EMD_SHA256[run]
        assert strict_json(out)["config"] == {
            "k": k, "theta": 0.5,
            "truncate_topk": "--truncate-topk" in EMD_ARGV[run]}

    @pytest.mark.parametrize("run", list(EMD_ARGV))
    def test_stdout_bytes_are_pinned(self, emd_inputs, capsys, run):
        gt, preds = emd_inputs
        k = int(EMD_ARGV[run][1])
        assert main(["emd", "--gt", str(gt), "--pred", str(preds[k]),
                     *EMD_ARGV[run]]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == EMD_SHA256[run]

    def test_an_empty_prediction_file_scores_no_proposals(self, emd_inputs,
                                                          tmp_path, capsys):
        gt, _ = emd_inputs
        pred = tmp_path / "empty.jsonl"
        pred.write_text("")
        assert main(["emd", "--gt", str(gt), "--pred", str(pred)]) == 0
        report = json.loads(capsys.readouterr().out,
                            parse_constant=lambda c: pytest.fail(c))
        assert report == {"schema_version": 1, "proposals": [],
                          "mean_loss": 0.0, "config": {
                              "k": 2, "theta": 0.5, "truncate_topk": False}}

    def test_inputs_cover_the_edge_cases(self, emd_inputs, tmp_path):
        gt, preds = emd_inputs
        _, out, _ = _run_emd(tmp_path, gt, preds[3], ["--k", "3"])
        rows = strict_json(out)["proposals"]
        ids = {r["id"] for r in rows}
        assert "no-gts" in ids and "no-proposals" not in ids
        assert any(r["n_members"] == 3 for r in rows)   # overflows k=2
        assert all(r["n_members"] == 0 for r in rows if r["id"] == "no-gts")
        assert any(g.ignore for g in parse_scene_file(gt)[0].gts)

    def test_manifest_counts_proposals_overflows_and_drops(self, emd_inputs,
                                                          tmp_path):
        gt, preds = emd_inputs
        _, out, manifest = _run_emd(tmp_path, gt, preds[3], ["--k", "3"], "k3.json")
        sizes = [r["n_members"] for r in strict_json(out)["proposals"]]
        assert strict_json(manifest)["counters"] == {
            "proposals": len(sizes), "overflowing_sets": 0, "members_dropped": 0,
            "chunks": 1}
        _, _, manifest = _run_emd(tmp_path, gt, preds[2],
                                  EMD_ARGV["k2-truncate"], "k2.json")
        overflowing = sum(n == 3 for n in sizes)
        assert overflowing > 0
        assert strict_json(manifest)["counters"] == {
            "proposals": len(sizes), "overflowing_sets": overflowing,
            "members_dropped": overflowing, "chunks": 1}

    def test_k6_equals_the_permutation_oracle(self, emd_inputs, emd_k6_pred,
                                              tmp_path):
        gt, _ = emd_inputs
        code, out, _ = _run_emd(tmp_path, gt, emd_k6_pred, ["--k", "6"])
        assert code == 0
        rows = strict_json(out)["proposals"]
        gts = {r.id: r.gts for r in parse_scene_file(gt)}
        want = [(n, list(m.permutation), m.total)
                for rec in parse_prediction_file(emd_k6_pred)
                for n, m in oracle.score_record(rec, gts[rec.id],
                                                EmdConfig(k=6), 0.5, False)]
        assert any(n > 1 for n, _, _ in want)
        # Ties go to the lexicographically smallest permutation at every k.
        assert [(r["n_members"], r["permutation"], r["total"])
                for r in rows] == want

    def test_k7_is_rejected_before_any_file_is_read(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"k must be in \[1, 6\], got 7"):
            EmdConfig(k=7)
        with pytest.raises(ValueError, match="cost matrix has 7 rows, limit 6"):
            emd_match(np.zeros((7, 7)))
        # Neither input exists: an error about k shows none was opened.
        code, out, manifest = _run_emd(tmp_path, tmp_path / "no_gt.jsonl",
                                       tmp_path / "no_pred.jsonl", ["--k", "7"])
        assert code == 1
        assert capsys.readouterr().err == "error: k must be in [1, 6], got 7\n"
        assert not out.exists() and not manifest.exists()

    @staticmethod
    def _traced_peak(tmp_path, wide: int | None = None) -> int:
        """The traced peak of ``crowdset emd --k 3`` on about 2,000
        proposals of 2-class slots; with ``wide``, the first slot of the
        first record with proposals has ``wide`` classes."""
        scenes = build_scenes(EMD_SCENES, 56, seed=11)
        rng = np.random.default_rng(29)
        records = [PredictionRecord(id=r.id, proposals=[
            PredictionSet(proposal=_jittered(rng, g.box),
                          slots=tuple(_slot(rng, 2) for _ in range(3)))
            for g in r.gts for _ in range(4)]) for r in scenes]
        assert 1800 <= sum(len(r.proposals) for r in records) <= 2200
        if wide:
            first = next(r for r in records if r.proposals)
            p = first.proposals[0]
            first.proposals[0] = replace(p, slots=(_slot(rng, wide),
                                                   *p.slots[1:]))
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_scene_file(scenes, gt)
        write_prediction_file(records, pred)
        argv = ["emd", "--k", "3", "--truncate-topk", "--gt", str(gt),
                "--pred", str(pred), "--out", str(tmp_path / "emd.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_bounded_by_the_batch(self, tmp_path):
        # About 2,000 k=3 proposals. Read and matched in batches of any
        # size up to 512, with the report written record by record, the
        # traced peak is 2.2 MB (Python 3.11, numpy 2.4); with the report
        # text held whole it was 3.6 MB, and as one whole-file batch 5.3 MB,
        # mostly the file's decoded JSON. Each engine chunk joined as a copy
        # of its parse batches, it was 3.3 MB; as views of one table, 3.0
        # MB. Matched one parse batch of 512 at a time, with no join, it is
        # 2.7 MB.
        assert self._traced_peak(tmp_path) < 4.0e6

    def test_peak_memory_of_a_wide_slot_is_bounded_by_its_chunk(self,
                                                                tmp_path):
        # The same proposals, one slot of 1,000 classes. Padded once, per
        # parse batch of at least 512 proposals, each batch one engine call,
        # the traced peak is 14.9 MB (Python 3.11, numpy 2.4), mostly the
        # wide record's batch. Padded per batch and again per engine chunk
        # of at least 1,024 proposals it was 35.8 MB, and padded to the
        # file's widest vector, as one table, 56.2 MB.
        assert self._traced_peak(tmp_path, 1000) < 45.0e6

    @pytest.mark.parametrize("per_slice", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 7])
    def test_a_wide_slot_widens_only_its_own_batch(self, tmp_path, monkeypatch,
                                                   size, per_slice):
        # The first record's first slot has 1,000 classes, every other slot
        # 2. Each parse batch, one engine call, is padded to its own widest
        # score vector, so every batch without the first record is 2
        # classes wide, whatever the search's slices.
        wide = [0.5, 0.5] + [0.0] * 998
        ids = [f"r{i}" for i in range(300)]
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_scene_file([SceneRecord(id=i, gts=STACK[:1]) for i in ids], gt)
        pred.write_text("".join(json.dumps({"id": i, "proposals": [_proposal(
            (0, 0, 40, 80), [wide if i == "r0" else [0.5, 0.5], [0.5, 0.5]])]})
            + "\n" for i in ids))
        monkeypatch.setattr(scene_io, "BATCH_PROPOSALS", size)
        monkeypatch.setattr(emd, "_MATCH_TOTALS", per_slice * 2)
        calls = []

        def spy(pred, *args):
            calls.append((pred.ids, pred.scores.shape))
            return emd.match_batch(pred, *args)

        monkeypatch.setattr(cli, "match_batch", spy)
        code, _, _ = _run_emd(tmp_path, gt, pred, ["--k", "2"])
        assert code == 0
        assert [i for chunk_ids, _ in calls for i in chunk_ids] == ids
        assert len(calls) == _chunk_count([1] * len(ids), size) > 1
        for chunk_ids, shape in calls:
            assert shape[1:] == (2, 1000 if "r0" in chunk_ids else 2)

    @staticmethod
    def _one_record(tmp_path, proposals: int):
        """Ground truths of one scene and one prediction record of about
        ``proposals`` proposals jittered around them, each with six slots
        of 2- and 3-class scores."""
        (scene,) = build_scenes(EMD_SCENES, 1, seed=13)
        rng = np.random.default_rng(31)
        per_gt = -(-proposals // len(scene.gts))
        record = PredictionRecord(id=scene.id, proposals=[
            PredictionSet(proposal=_jittered(rng, g.box),
                          slots=tuple(_slot(rng, 2 + j % 2) for j in range(6)))
            for g in scene.gts for _ in range(per_gt)])
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_scene_file([scene], gt)
        write_prediction_file([record], pred)
        return scene, record, gt, pred

    def test_a_record_longer_than_a_slice_equals_per_proposal_matching(
            self, tmp_path, monkeypatch):
        # One record of 24 proposals at k = 6, searched two proposals at a
        # time: its report is per-proposal emd_match's, bit for bit.
        scene, record, gt, pred = self._one_record(tmp_path, 24)
        assert len(record.proposals) >= 24
        monkeypatch.setattr(emd, "_MATCH_TOTALS", 2 * 720)
        argmin, searched = np.argmin, []

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 2 and np.shape(a)[1] == 720:
                searched.append(len(a))
            return argmin(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmin", spy)
        code, out, manifest = _run_emd(tmp_path, gt, pred,
                                       ["--k", "6", "--truncate-topk"])
        assert code == 0
        assert searched == [2] * (len(record.proposals) // 2)
        cfg = EmdConfig(k=6)
        want = _oracle_match(oracle.score_record(record, scene.gts, cfg, 0.5,
                                                 True), cfg.k)
        assert out.read_text() == json_report([(record.id, want)], {
            "k": 6, "theta": 0.5, "truncate_topk": True})
        assert strict_json(manifest)["counters"]["chunks"] == 1

    def test_peak_memory_of_one_long_record_bounds_the_totals(self, tmp_path):
        # One record of about 5,000 k=6 proposals is one parse batch and one
        # engine call; the search sums its (P, 720) permutation totals 256
        # proposals at a time. The traced peak is 29.8 MB (Python 3.11,
        # numpy 2.4), the parse of the record's JSON; with all 5,000
        # proposals' totals at once it was 64.2 MB.
        _, record, gt, pred = self._one_record(tmp_path, 5000)
        assert 5000 <= len(record.proposals) <= 5100
        argv = ["emd", "--k", "6", "--truncate-topk", "--gt", str(gt),
                "--pred", str(pred), "--out", str(tmp_path / "emd.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40.0e6


def json_report(matches, config):
    """The emd report as one dict through json.dumps(indent=2), the way
    the writer's output is specified."""
    rows, total = [], 0.0
    for rid, m in matches:
        for idx, (n, perm, costs, t) in enumerate(zip(
                np.minimum(m.n_real, m.permutation.shape[1]).tolist(),
                m.permutation.tolist(),
                m.per_slot_cost.tolist(), m.total.tolist())):
            rows.append({"id": rid, "proposal_index": idx, "n_members": n,
                         "permutation": perm, "per_slot_cost": costs,
                         "total": t})
            total += t
    report = {"schema_version": 1, "proposals": rows,
              "mean_loss": (total / len(rows)) if rows else 0.0,
              "config": config}
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


_IDS = st.one_of(st.text(max_size=8), st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "a\"b\\c\nd\te", "é☃\U0001f600\u2028", ""]))
# -0.0, the smallest subnormal and normal, the largest finite magnitude,
# integral floats and both sides of both edges of [1e-4, 1e16), where the
# writer takes orjson's spelling, among arbitrary finite ones; some
# examples also draw NaN and infinities.
_EDGE_COSTS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                               1e308, -1e308, 1.0, 3.0, 1e16, 2.0**53,
                               math.nextafter(1e-4, 0), 1e-4,
                               math.nextafter(1e16, 0), -1e-05])
_FINITE = st.one_of(_EDGE_COSTS, st.floats(allow_nan=False,
                                           allow_infinity=False))


@st.composite
def emd_matches(draw):
    """(matches, config): up to four records of up to four proposals each,
    k from 1 to 7 and set sizes up to k + 2; the arrays need not come from
    a real matching."""
    k = draw(st.integers(1, 7))
    costs = st.one_of(_FINITE, st.floats()) if draw(st.booleans()) else _FINITE
    matches = []
    for _ in range(draw(st.integers(0, 4))):
        p = draw(st.integers(0, 4))
        per_slot = draw(st.lists(costs, min_size=p * k, max_size=p * k))
        matches.append((draw(_IDS), ImageMatch(
            n_real=np.array(draw(st.lists(st.integers(0, k + 2), min_size=p,
                                          max_size=p)), dtype=np.intp),
            permutation=np.array([draw(st.permutations(range(k)))
                                  for _ in range(p)], dtype=np.intp).reshape(p, k),
            per_slot_cost=np.array(per_slot, dtype=np.float64).reshape(p, k),
            total=np.array(draw(st.lists(costs, min_size=p, max_size=p)),
                           dtype=np.float64))))
    theta = draw(st.floats(0.0, 1.0, exclude_min=True))
    return matches, {"k": k, "theta": theta,
                     "truncate_topk": draw(st.booleans())}


class TestEmdReport:
    @settings(max_examples=300, deadline=None)
    @given(emd_matches())
    def test_writer_equals_json_dumps(self, drawn):
        matches, config = drawn
        try:
            want = json_report(matches, config)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                _emd_report(matches, config)
            assert str(got.value) == str(e)
        else:
            assert "".join(_emd_report(matches, config)) == want

    def test_peak_is_a_fraction_of_the_report(self, tmp_path):
        # 48 records of 40 proposals at k=3, about 0.5 MB of report. Held
        # whole, the text and its splice into the header put three copies
        # at the peak (about 3x its length); written record by record, the
        # peak is about one record's rows.
        rng = np.random.default_rng(41)
        p, k = 40, 3
        matches = [(f"img-{i:03d}", ImageMatch(
            n_real=rng.integers(0, k + 2, p),
            permutation=np.array([rng.permutation(k) for _ in range(p)]),
            per_slot_cost=rng.uniform(0.0, 5.0, (p, k)),
            total=rng.uniform(0.0, 15.0, p))) for i in range(48)]
        config = {"k": k, "theta": 0.5, "truncate_topk": True}
        path = tmp_path / "emd.json"
        tracemalloc.start()
        try:
            _emit(_emd_report(matches, config), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text(encoding="utf-8")
        assert text == json_report(matches, config)
        assert peak < len(text) / 4

    @pytest.mark.parametrize("per_slot, totals, error", [
        ([[1.0], [math.nan]], [1.0, 2.0], "Out of range float values"),
        ([[1.0], [2.0]], [1e308, 1e308], "Out of range float values"),
    ], ids=["slot-cost-nan", "mean-beyond-float-range"])
    def test_a_failed_check_leaves_an_existing_file(self, tmp_path, per_slot,
                                                    totals, error):
        # The failing record comes after a good one, so a check made while
        # writing would already have truncated the file.
        matches = [(rid, ImageMatch(
            n_real=np.array([1]), permutation=np.array([[0]]),
            per_slot_cost=np.array([cost]), total=np.array([t])))
            for rid, cost, t in zip("ab", per_slot, totals)]
        path = tmp_path / "emd.json"
        path.write_bytes(b"an earlier report\n")
        with pytest.raises(ValueError, match=error):
            _emit(_emd_report(matches, {"k": 1}), path)
        assert path.read_bytes() == b"an earlier report\n"


@st.composite
def emd_files(draw):
    """(records, gts, cfg, theta, truncate): several emd_images() as one
    prediction file scored at one k, theta and truncate flag. Now and then
    a record takes an earlier record's id, which fails the file. In half
    the files the proposals with a wrong slot count are dropped; in a file
    of several records one of them is likely, and it would stop most files
    before their report."""
    k = draw(st.sampled_from([1, 2, 3, 4, 6]))
    images = draw(st.lists(emd_images(k=st.just(k)), min_size=2, max_size=5))
    right_counts = draw(st.booleans())
    records, gts = [], {}
    for n, (sets, image_gts, *_) in enumerate(images):
        if right_counts:
            sets = [p for p in sets if len(p.slots) == k]
        rid = f"img{n}"
        if gts and draw(st.integers(0, 3)) == 0:
            rid = draw(st.sampled_from(sorted(gts)))
        gts.setdefault(rid, image_gts)
        records.append(PredictionRecord(id=rid, proposals=sets))
    _, _, cfg, theta, truncate = images[0]
    return records, gts, cfg, theta, truncate


def _oracle_match(rows, k: int) -> ImageMatch:
    """One record's oracle rows as the arrays the report reads; each set's
    size is its size after truncation, which the report prints the same."""
    p = len(rows)
    return ImageMatch(
        n_real=np.array([n for n, _ in rows], dtype=np.intp),
        permutation=np.array([m.permutation for _, m in rows],
                             dtype=np.intp).reshape(p, k),
        per_slot_cost=np.array([m.per_slot_cost for _, m in rows]).reshape(p, k),
        total=np.array([m.total for _, m in rows]).reshape(p))


def _grouped(counts: list[int], size: int) -> list[int]:
    """The proposals of each group of consecutive ``counts``: a group takes
    whole counts until it holds ``size``, and the last takes what is left."""
    groups, held = [], None
    for n in counts:
        held = (held or 0) + n
        if held >= size:
            groups, held = groups + [held], None
    return groups + ([] if held is None else [held])


def _chunk_count(counts: list[int], batch: int) -> int:
    """Engine calls over records of ``counts`` proposals: one per parse
    batch of consecutive whole records holding at least ``batch``."""
    return len(_grouped(counts, batch))


class TestBatchedFile:
    # About half the drawn files repeat an id and fail, so 120 examples
    # score about as many whole files as 60 did when repeats were accepted.
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(emd_files())
    def test_every_batch_size_equals_per_record_scoring(self, drawn):
        records, gts, cfg, theta, truncate = drawn
        config = {"k": cfg.k, "theta": theta, "truncate_topk": truncate}
        ids = [r.id for r in records]
        repeat = next((i for n, i in enumerate(ids) if i in ids[:n]), None)
        try:
            if repeat is not None:
                raise ValueError(f"duplicate record id {repeat!r}")
            want = json_report([(r.id, _oracle_match(oracle.score_record(
                r, gts[r.id], cfg, theta, truncate), cfg.k)) for r in records],
                config)
        except ValueError as e:
            want, error = None, f"error: {e}\n"
        n_real = [oracle.build_gt_set(p.proposal, gts[r.id], theta).n_real
                  for r in records for p in r.proposals]
        counters = {"proposals": len(n_real),
                    "overflowing_sets": sum(n > cfg.k for n in n_real),
                    "members_dropped": sum(n - cfg.k for n in n_real if n > cfg.k)}
        counts = [len(r.proposals) for r in records]
        with tempfile.TemporaryDirectory() as tmp:
            gt, pred = Path(tmp, "gt.jsonl"), Path(tmp, "pred.jsonl")
            out, manifest = Path(tmp, "emd.json"), Path(tmp, "manifest.json")
            write_scene_file([SceneRecord(id=rid, gts=g) for rid, g in gts.items()],
                             gt)
            # One record per call: the writer refuses a repeated id.
            with open(pred, "w", encoding="utf-8", newline="\n") as f:
                for r in records:
                    write_prediction_file([r], f)
            argv = ["emd", "--gt", str(gt), "--pred", str(pred), "--k",
                    str(cfg.k), "--theta", repr(theta), "--out", str(out),
                    "--manifest", str(manifest)]
            if truncate:
                argv.append("--truncate-topk")
            # Parse batches of one record to the default size, and search
            # slices of one to three proposals and the default.
            for size, totals in itertools.product(
                    (1, 2, 3, scene_io.BATCH_PROPOSALS),
                    (*(n * math.factorial(cfg.k) for n in (1, 2, 3)),
                     emd._MATCH_TOTALS)):
                stderr = io.StringIO()
                with pytest.MonkeyPatch.context() as mp, \
                        contextlib.redirect_stderr(stderr):
                    mp.setattr(scene_io, "BATCH_PROPOSALS", size)
                    mp.setattr(emd, "_MATCH_TOTALS", totals)
                    code = main(argv)
                if want is None:
                    assert (code, stderr.getvalue()) == (1, error)
                    assert not out.exists()
                    continue
                assert code == 0
                assert out.read_text() == want
                assert strict_json(manifest)["counters"] == {
                    **counters, "chunks": _chunk_count(counts, size)}


class TestManifest:
    def test_manifest_that_cannot_be_written_leaves_no_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        args = build_parser().parse_args(["study", "--out", str(tmp_path)])
        args.jitter = math.nan
        with pytest.raises(ValueError, match="Out of range float values"):
            # As main writes it: the text is built before the file opens.
            _emit([_manifest_text(args, 0.0, {})], str(path))
        assert not path.exists()

    def test_config_is_the_parsed_arguments(self, round_trip, emd_inputs,
                                            tmp_path):
        gt, det = round_trip
        emd_gt, preds = emd_inputs
        runs = [
            (["synth", "--images", "2", "--seed", "4", "--pair-iou-hi", "0.7",
              "--out", str(tmp_path / "s.jsonl")], tmp_path / "s.jsonl.manifest.json"),
            (["suppress", "--method", "soft-gaussian", "--score-floor", "0.01",
              "--in", str(det), "--out", str(tmp_path / "k.jsonl")],
             tmp_path / "k.jsonl.manifest.json"),
            (["eval", "--gt", str(gt), "--det", str(det),
              "--out", str(tmp_path / "e.json"), "--manifest",
              str(tmp_path / "e.manifest.json")], tmp_path / "e.manifest.json"),
            (["emd", "--k", "3", "--gt", str(emd_gt), "--pred", str(preds[3]),
              "--manifest", str(tmp_path / "m.manifest.json")],
             tmp_path / "m.manifest.json"),
            (["study", "--images", "2", "--k-sweep", "1,3", "--triples-mean",
              "0.5", "--out", str(tmp_path / "study")],
             tmp_path / "study" / "manifest.json"),
        ]
        for argv, manifest in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            want = vars(build_parser().parse_args(argv))
            assert want.pop("command") == argv[0]
            assert callable(want.pop("func"))
            got = strict_json(manifest)
            assert got["subcommand"] == argv[0]
            assert got["config"] == want

    def test_emd_records_truncation_and_both_inputs(self, emd_inputs,
                                                    tmp_path):
        gt, preds = emd_inputs
        code, _, manifest = _run_emd(tmp_path, gt, preds[2],
                                     ["--k", "2", "--truncate-topk"])
        assert code == 0
        config = strict_json(manifest)["config"]
        assert config["truncate_topk"] is True
        assert (config["pred"], config["gt"]) == (str(preds[2]), str(gt))
        assert strict_json(manifest)["counters"]["members_dropped"] > 0

    def test_env_is_the_running_interpreter(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--images", "1", "--out", str(out)]) == 0
        assert strict_json(str(out) + ".manifest.json")["env"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "orjson": orjson.__version__, "platform": sys.platform}

    def test_eval_and_emd_write_a_manifest_only_when_asked(self, round_trip,
                                                          tmp_path):
        gt, det = round_trip
        before = set(tmp_path.iterdir())
        out = tmp_path / "e.json"
        assert main(["eval", "--gt", str(gt), "--det", str(det),
                     "--out", str(out)]) == 0
        assert set(tmp_path.iterdir()) - before == {out}


# Run in a fresh interpreter: the tests import scipy themselves (the oracles
# use its solvers), so only a new process shows what crowdset loads.
IMPORT_PROBE = """
import json, sys

steps = []


def step(name, code=0):
    steps.append([name, code, "scipy" in sys.modules])


import crowdset
step("import crowdset")
import crowdset.cli
step("import crowdset.cli")
for name, argv in json.loads(sys.argv[1]):
    step(name, crowdset.cli.main(argv))
print(json.dumps(steps))
"""


class TestImports:
    def test_no_subcommand_loads_scipy(self, round_trip, emd_inputs,
                                       emd_k6_pred, tmp_path):
        gt, det = round_trip
        emd_gt, preds = emd_inputs
        out = str(tmp_path / "out")
        runs = [("synth", ["synth", "--images", "1", "--out", out])]
        runs += [(f"suppress {flag}", ["suppress", "--method", flag, "--in",
                                       str(tmp_path / "raw.jsonl"), "--out", out])
                 for flag in SUPPRESS_SHA256]
        runs.append(("eval", ["eval", "--gt", str(gt), "--det", str(det),
                              "--out", out]))
        runs += [(f"emd {' '.join(flags)}", ["emd", "--gt", str(emd_gt),
                                             "--pred", str(pred), "--out", out,
                                             *flags])
                 for pred, flags in ((preds[2], EMD_ARGV["k2-truncate"]),
                                     (preds[3], EMD_ARGV["k3"]))]
        runs.append(("study", ["study", "--images", "1", "--out",
                               str(tmp_path / "study")]))
        runs.append(("emd --k 6", ["emd", "--gt", str(emd_gt), "--pred",
                                   str(emd_k6_pred), "--out", out, "--k", "6"]))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                               json.dumps(runs)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        names = ["import crowdset", "import crowdset.cli"] + [n for n, _ in runs]
        assert steps == [[n, 0, False] for n in names]

    def test_no_module_imports_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src" / "crowdset"
        paths = sorted(src.glob("*.py"))
        assert len(paths) >= 9
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert not any(m.split(".")[0] == "scipy" for m in modules), \
                    f"{path.name}:{node.lineno} imports scipy"


def _proposal(box, slots):
    return {"box_xyxy": list(box),
            "slots": [{"scores": list(s), "delta": [0.0, 0.0, 0.0, 0.0]}
                      for s in slots]}


TWO_SLOTS = [[0.3, 0.7], [0.6, 0.4]]
# Three near-identical ground truths: a proposal on them has three members.
STACK = [GroundTruth(box=BBox(0.0, 0.0, 40.0, 80.0)),
         GroundTruth(box=BBox(1.0, 0.0, 41.0, 80.0)),
         GroundTruth(box=BBox(0.0, 2.0, 40.0, 82.0))]


class TestEmdErrors:
    def _run(self, tmp_path, capsys, gts, pred_lines, extra=(), ids=("a",)):
        """Run emd on ground truths ``gts`` of each record in ``ids``;
        ``pred_lines`` holds objects, or strings written as they are."""
        gt = tmp_path / "gt.jsonl"
        write_scene_file([SceneRecord(id=i, gts=gts) for i in ids], gt)
        pred = tmp_path / "pred.jsonl"
        pred.write_text("".join((obj if isinstance(obj, str) else json.dumps(obj))
                                + "\n" for obj in pred_lines))
        code = main(["emd", "--gt", str(gt), "--pred", str(pred), "--k", "2",
                     *extra])
        return code, capsys.readouterr().err

    def test_wrong_slot_count(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, STACK[:1], [
            {"id": "a", "proposals": [_proposal((0, 0, 40, 80), [[0.5, 0.5]])]}])
        assert code == 1
        assert "record 'a' proposal 0: has 1 slots, expected k=2" in err

    def test_overflow_without_truncation(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, STACK, [
            {"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]}])
        assert code == 1
        assert ("record 'a' proposal 0: ground-truth set has 3 members for "
                "k=2 (excess 1); pass --truncate-topk" in err)

    def test_gt_class_outside_score_vector(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path, capsys, [GroundTruth(box=BBox(0.0, 0.0, 40.0, 80.0),
                                           class_id=2)],
            [{"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]}])
        assert code == 1
        assert ("record 'a' proposal 0: target class 2 outside vocabulary "
                "of 2 classes" in err)

    def test_bad_probability_vector_names_its_line(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, STACK[:1], [
            {"id": "a", "proposals": []},
            {"id": "a2", "proposals": [
                _proposal((0, 0, 40, 80), [[0.3, 0.7], [0.5, 0.6]])]}])
        assert code == 1
        assert ("line 2: bad record (class_scores must be a probability "
                "vector (sum 1))" in err)

    def test_nan_score_is_malformed_json(self, tmp_path, capsys):
        # Input is strict JSON: orjson rejects the NaN literal before any
        # check. A NaN score vector in memory fails the probability check
        # (TestPredictionArrays in test_scene_io.py).
        line = json.dumps({"id": "a", "proposals": [
            _proposal((0, 0, 40, 80), [[0.5, 0.5, math.nan], [0.3, 0.7]])]})
        with pytest.raises(orjson.JSONDecodeError) as rejected:
            orjson.loads(line)
        code, err = self._run(tmp_path, capsys, STACK[:1], [line])
        assert code == 1
        assert err == f"error: line 1: malformed JSON ({rejected.value.msg})\n"

    @pytest.mark.parametrize("first, second, message", [
        ([[0.3, 0.7], [0.6, 0.4]], [[1.0, 0.0]],
         "record 'a' proposal 0: ground-truth set has 3 members"),
        ([[1.0, 0.0]], [[0.3, 0.7], [0.6, 0.4]],
         "record 'a' proposal 0: has 1 slots, expected k=2"),
        ([[0.3, 0.7], [0.6, 0.4]], [[0.2, 0.3, 0.5], [0.5, 0.5]],
         "record 'a' proposal 0: ground-truth set has 3 members"),
    ])
    def test_earlier_proposal_fails_first(self, tmp_path, capsys, first,
                                          second, message):
        code, err = self._run(tmp_path, capsys, STACK, [
            {"id": "a", "proposals": [_proposal((0, 0, 40, 80), first),
                                      _proposal((1, 1, 41, 81), second)]}])
        assert code == 1
        assert message in err
        assert "proposal 1" not in err

    @pytest.mark.parametrize("bad_gt", [
        {"box_xyxy": [0.0, 0.0, 40.0, 80.0], "ignore": "yes"},
        {"box_xyxy": [40.0, 0.0, 0.0, 80.0]},
    ])
    def test_bad_gt_file_fails_as_eval_does(self, tmp_path, capsys, bad_gt):
        good = {"box_xyxy": [0.0, 0.0, 40.0, 80.0]}
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"id": "a", "gts": [good]}) + "\n"
                      + json.dumps({"id": "b", "gts": [good, bad_gt]}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "a", "proposals": []}) + "\n")
        det = tmp_path / "det.jsonl"
        write_scene_file([SceneRecord(id="a")], det)
        assert main(["emd", "--gt", str(gt), "--pred", str(pred)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ")
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 1
        assert capsys.readouterr().err == err

    def test_non_finite_cost_names_its_record(self, tmp_path, capsys):
        # Two coordinates of about 1e308 each sum to a non-finite slot cost,
        # without a warning (which pytest's filterwarnings = error would
        # raise), so the error is all of stderr.
        slots = [{"scores": s, "delta": [1e308, 1e308, 0.0, 0.0]}
                 for s in TWO_SLOTS]
        out = tmp_path / "emd.json"
        code, err = self._run(tmp_path, capsys, STACK[:1], [
            {"id": "a", "proposals": [{"box_xyxy": [0, 0, 40, 80],
                                       "slots": slots}]}],
            ("--out", str(out)))
        assert code == 1
        assert err == ("error: record 'a' proposal 0: cost matrix contains "
                       "non-finite entries\n")
        assert not out.exists()

    def test_repeated_record_id_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "emd.json"
        line = {"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]}
        code, err = self._run(tmp_path, capsys, STACK[:1], [line, line],
                              ("--out", str(out)))
        assert code == 1
        assert err == "error: duplicate record id 'a'\n"
        assert not out.exists()

    def test_total_beyond_float_range_writes_no_report(self, tmp_path,
                                                       capsys):
        # Each slot's cost is finite, about 1.5e308; their sum is not. The
        # matcher's sum overflows without a warning (which pytest's
        # filterwarnings = error would raise), so the error is all of stderr.
        slots = [{"scores": s, "delta": [1.5e308, 0.0, 0.0, 0.0]}
                 for s in TWO_SLOTS]
        out = tmp_path / "emd.json"
        code, err = self._run(tmp_path, capsys, STACK[:2], [
            {"id": "a", "proposals": [{"box_xyxy": [0, 0, 40, 80],
                                       "slots": slots}]}],
            ("--out", str(out)))
        assert code == 1
        assert err.startswith("error: Out of range float values are not "
                              "JSON compliant")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("delta, gts, error", [
        ([1.5e308, 0.0, 0.0, 0.0], STACK[:2],
         "error: Out of range float values are not JSON compliant"),
        ([1e308, 1e308, 0.0, 0.0], STACK[:1],
         "error: record 'a' proposal 0: cost matrix contains non-finite"),
    ], ids=["total-beyond-float-range", "non-finite-slot-cost"])
    def test_failed_run_leaves_an_existing_report(self, tmp_path, capsys,
                                                  delta, gts, error):
        out = tmp_path / "emd.json"
        out.write_bytes(b'{"an": "earlier report"}\n')
        slots = [{"scores": s, "delta": delta} for s in TWO_SLOTS]
        code, err = self._run(tmp_path, capsys, gts, [
            {"id": "a", "proposals": [{"box_xyxy": [0, 0, 40, 80],
                                       "slots": slots}]}],
            ("--out", str(out)))
        assert code == 1
        assert err.startswith(error)
        assert out.read_bytes() == b'{"an": "earlier report"}\n'

    def test_class_error_before_a_later_overflow(self, tmp_path, capsys):
        # Proposal 0 covers only the class-2 box; proposal 1 overflows.
        gts = [GroundTruth(box=BBox(200.0, 0.0, 240.0, 80.0), class_id=2),
               *STACK]
        code, err = self._run(tmp_path, capsys, gts, [
            {"id": "a", "proposals": [_proposal((200, 0, 240, 80), TWO_SLOTS),
                                      _proposal((0, 0, 40, 80), TWO_SLOTS)]}])
        assert code == 1
        assert err.strip() == ("error: record 'a' proposal 0: target class "
                               "2 outside vocabulary of 2 classes")

    # Batches of one record and the default size, and search slices of one
    # to three proposals and the default: the first error in file order
    # must not depend on where a batch or a slice ends.
    @pytest.mark.parametrize("per_slice", [1, 2, 3, emd._MATCH_TOTALS // 2])
    @pytest.mark.parametrize("size", [1, scene_io.BATCH_PROPOSALS])
    @pytest.mark.parametrize("lines, message", [
        # Batches of one record each, or one batch of the whole file; a
        # slice of one or three proposals ends inside record a2.
        pytest.param(
            [{"id": "a", "proposals": [_proposal((500, 0, 540, 80), TWO_SLOTS)] * 2},
             {"id": "a2", "proposals": [_proposal((500, 0, 540, 80), TWO_SLOTS),
                                        _proposal((0, 0, 40, 80), TWO_SLOTS)]},
             {"id": "a3", "proposals": [_proposal((0, 0, 40, 80), [[0.5, 0.5]])]}],
            "record 'a2' proposal 1: ground-truth set has 3 members for k=2 "
            "(excess 1); pass --truncate-topk to keep the top-k by IoU",
            id="overflow-in-a-later-chunk-before-a-slot-count"),
        pytest.param(
            [{"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]},
             {"id": "a2", "proposals": [_proposal((0, 0, 40, 80), [[0.5, 0.5]])]}],
            "record 'a' proposal 0: ground-truth set has 3 members for k=2 "
            "(excess 1); pass --truncate-topk to keep the top-k by IoU",
            id="overflow-before-a-later-slot-count"),
        # The whole file is read before any record is matched.
        pytest.param(
            [{"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]},
             {"id": "a", "proposals": [_proposal((0, 0, 40, 80),
                                                 [[0.3, 0.7], [0.5, 0.6]])]}],
            "line 2: bad record (class_scores must be a probability vector "
            "(sum 1))",
            id="last-line-parse-error-before-a-match-error"),
        # Ids are checked before any record is matched.
        pytest.param(
            [{"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]},
             {"id": "b", "proposals": []}],
            "prediction ids missing from ground-truth file: b",
            id="missing-id-before-a-match-error"),
        # A record without proposals is still pending when the malformed
        # line after it is read.
        pytest.param(
            [{"id": "a", "proposals": {}}, '{"id": "b", "proposals": [',
             {"id": "a", "proposals": [_proposal((0, 0, 40, 80), TWO_SLOTS)]}],
            "line 1: record 'a': proposals must be a JSON array, got {}",
            id="bad-record-before-a-malformed-line"),
    ])
    def test_first_error_in_file_order_across_batches(
            self, tmp_path, capsys, monkeypatch, size, per_slice, lines,
            message):
        monkeypatch.setattr(scene_io, "BATCH_PROPOSALS", size)
        monkeypatch.setattr(emd, "_MATCH_TOTALS", per_slice * 2)
        out = tmp_path / "emd.json"
        code, err = self._run(tmp_path, capsys, STACK, lines,
                              ("--out", str(out)), ids=("a", "a2", "a3"))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()
