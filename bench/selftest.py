"""Self-test of the benchmark at smoke size.

Usage: python3 bench/selftest.py   (from the root of a checkout)

* every workload, traced and untraced, prints each metric named in
  ``BENCHMARK.json`` with its unit, and its output and result file parse as
  strict JSON;
* each correctness check fires on a deliberately corrupted output;
* without the program next to it, the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from crowdset import (BBox, BoxDelta, Detection, EvalConfig, GroundTruth,  # noqa: E402
                      PredictionRecord, PredictionSet, SceneRecord,
                      SlotPrediction, SuppressionConfig, evaluate, nms,
                      set_nms, soft_nms, write_prediction_file,
                      write_scene_file)
from crowdset.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
from traced import _report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _strict_loads(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class StrictRecord(unittest.TestCase):
    def test_infinite_threshold_becomes_null(self):
        from run import _strict
        record = _strict({"rows": [{"ji_best_threshold": float("inf")}]})
        self.assertEqual(record, {"rows": [{"ji_best_threshold": None}]})
        json.dumps(record, allow_nan=False)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_by_name_and_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for workload in WORKLOADS:
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    p = _run("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    last = _strict_loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"], p.stdout)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                    for name in got:
                        self.assertIn(name, p.stdout.split("\n{")[0])
                    result = os.path.join(ROOT, ".bench_work", "results",
                                          f"{workload}-trace{trace}.json")
                    with open(result, encoding="utf-8") as f:
                        record = _strict_loads(f.read())
                    self.assertEqual(record["error_rate"], 0.0)
                    self.assertIn("git_sha", record["env"])

    def test_fails_without_the_program(self):
        lone = os.path.join(ROOT, ".bench_work", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(lone, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        p = _run("--workload", "study", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=lone)
        shutil.rmtree(lone)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


def _det(x, score, pid, slot=0):
    return Detection(box=BBox(x, 0.0, x + 10.0, 20.0), score=score,
                     class_id=1, proposal_id=pid, slot=slot)


class ChecksFire(unittest.TestCase):
    # Boxes 0/1 share proposal 0 and overlap (IoU 0.82); box 2 overlaps box
    # 0 from another proposal; box 3 stands alone.
    INPUT = [_det(0.0, 0.9, 0), _det(1.0, 0.8, 0, slot=1), _det(0.5, 0.7, 1),
             _det(50.0, 0.6, 2)]

    def _ok(self, method, out):
        self.assertEqual(checks.check_suppressed(self.INPUT, out, method), [])

    def _fires(self, method, out):
        self.assertNotEqual(checks.check_suppressed(self.INPUT, out, method), [])

    def test_suppression_checks(self):
        cfg = SuppressionConfig(method="nms")
        kept = nms(self.INPUT, cfg)
        self._ok("nms", kept)
        self._fires("nms", kept + [kept[0]])                   # duplicate kept box
        self._fires("nms", kept[::-1])                         # order
        self._fires("nms", [kept[0], self.INPUT[2], kept[1]])  # overlapping pair
        self._fires("nms", kept[1:])                           # unsuppressed drop
        self._fires("nms", [replace(kept[0], score=0.5)] + kept[1:])
        self._fires("nms", kept + [_det(99.0, 0.1, 9)])        # not an input
        kept = set_nms(self.INPUT, replace(cfg, method="set_nms"))
        self._ok("set_nms", kept)
        self._fires("set_nms", kept[:2] + [self.INPUT[2]] + kept[2:])
        soft = soft_nms(self.INPUT, SuppressionConfig(method="soft_gaussian"))
        self._ok("soft_gaussian", soft)
        self._fires("soft_gaussian", [replace(soft[0], score=0.95)] + soft[1:])
        self._fires("soft_gaussian", soft[:-1] + [replace(soft[-1], score=0.0)])

    def test_eval_checks(self):
        gts = [GroundTruth(box=BBox(0.0, 0.0, 10.0, 20.0)),
               GroundTruth(box=BBox(50.0, 0.0, 60.0, 20.0))]
        scenes = [SceneRecord(id="a", gts=gts, dets=[_det(0.0, 0.9, 0),
                                                     _det(30.0, 0.8, 1)])]
        r = evaluate(scenes, EvalConfig())
        rep = _report(r.ap, r.mr2, r.ji, r.ji_best_threshold,
                      (r.recall_total, r.recall_sparse, r.recall_crowd))
        self.assertEqual(checks.check_eval_report(rep), [])
        self.assertEqual(checks.check_ji(rep, scenes, EvalConfig()), [])
        self.assertNotEqual(checks.check_ji({**rep, "ji": rep["ji"] + 0.1},
                                            scenes, EvalConfig()), [])
        self.assertNotEqual(checks.check_eval_report({**rep, "ap": 1.5}), [])
        self.assertNotEqual(checks.check_eval_report({**rep, "ji": float("nan")}), [])
        bad = json.loads(json.dumps(rep))
        bad["recall"]["sparse"]["matched"] = bad["recall"]["sparse"]["total"] + 1
        self.assertNotEqual(checks.check_eval_report(bad), [])

    def test_emd_checks(self):
        gts = [GroundTruth(box=BBox(0.0, 0.0, 10.0, 20.0)),
               GroundTruth(box=BBox(1.0, 0.0, 11.0, 20.0))]

        def slot(fg, d):
            return SlotPrediction(class_scores=[1.0 - fg, fg],
                                  delta=BoxDelta(d, 0.0, 0.0, 0.0))

        preds = [PredictionRecord(id="a", proposals=[
            PredictionSet(proposal=BBox(0.5, 0.0, 10.5, 20.0),
                          slots=(slot(0.3, 0.5), slot(0.8, -0.1)))])]
        work = os.path.join(ROOT, ".bench_work", "selftest")
        os.makedirs(work, exist_ok=True)
        write_scene_file([SceneRecord(id="a", gts=gts)],
                         os.path.join(work, "gt.jsonl"))
        write_prediction_file(preds, os.path.join(work, "pred.jsonl"))
        out = os.path.join(work, "emd.json")
        self.assertEqual(cli_main(["emd", "--k", "2", "--gt",
                                   os.path.join(work, "gt.jsonl"), "--pred",
                                   os.path.join(work, "pred.jsonl"), "--out",
                                   out]), 0)
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        gt_by_id = {"a": SceneRecord(id="a", gts=gts)}

        def run(rep):
            return checks.check_emd(rep, preds, gt_by_id, 2, False, 1, 0)

        self.assertEqual(run(report), [])
        bad = json.loads(json.dumps(report))
        row = bad["proposals"][0]
        row["total"] += 0.5
        row["per_slot_cost"][0] += 0.5
        self.assertNotEqual(run(bad), [])
        bad = json.loads(json.dumps(report))
        bad["proposals"][0]["permutation"] = [0, 0]
        self.assertNotEqual(run(bad), [])


if __name__ == "__main__":
    unittest.main()
