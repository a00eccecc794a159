import hashlib
import json
import math

import pytest

from crowdset.cli import main
from crowdset.scene_io import (PredictionRecord, SceneRecord, parse_scene_file,
                               write_prediction_file, write_scene_file)
from crowdset.synth import DetectorSimParams, derive_seed, simulate_detector

# sha256 of outputs whose bytes must not change; a change to any of them is a
# behaviour change to declare, not a test to update silently.
EVAL_SET_NMS_SHA256 = "8d8d3ee353a62cc89be5309a26969073e0950f47e914163ea8354f5ae3523f35"
STUDY_ROWS_SHA256 = "9e9a73208fab28e9b85c0f342bfef50ee3bdf253c6a79af61a38d1362087bf46"
STUDY_REPORT_SHA256 = "300d973742e3fd6d36291a5599c774d8db5de0bfb82714645432e615a13688ef"


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
    def test_eval_bytes_are_pinned(self, round_trip, tmp_path):
        gt, det = round_trip
        out = tmp_path / "eval.json"
        assert main(["eval", "--gt", str(gt), "--det", str(det),
                     "--out", str(out)]) == 0
        rep = strict_json(out)
        assert 0.9 < rep["ap"] <= 1.0
        assert rep["recall"]["total"]["matched"] > 0
        assert sha256(out) == EVAL_SET_NMS_SHA256

    def test_tsv_format(self, round_trip, tmp_path):
        gt, det = round_trip
        out = tmp_path / "eval.tsv"
        assert main(["eval", "--gt", str(gt), "--det", str(det),
                     "--format", "tsv", "--out", str(out)]) == 0
        keys = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert "recall.crowd.matched" in keys and "ap" in keys

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

    def test_tsv_mirrors_the_json_null(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        assert main(["synth", "--images", "1", "--out", str(gt)]) == 0
        out = tmp_path / "eval.tsv"
        assert main(["eval", "--gt", str(gt), "--det", str(gt),
                     "--format", "tsv", "--out", str(out)]) == 0
        assert "ji_best_threshold\tnull" in out.read_text().splitlines()


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
    ])
    def test_bad_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestSurface:
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

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out
