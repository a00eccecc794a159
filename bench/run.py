"""Benchmark of the crowdset CLI: one workload per run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
there. A run

1. builds the workload's inputs from ``--seed`` in a separate process
   (``gen.py``);
2. times process start to ready of the measured process several times
   (``setup_s``, median);
3. lets one measured process (``worker.py``) run passes in a closed loop,
   one at a time, for ``--seconds``;
4. checks the outputs here, after the measured process has ended;
5. writes a strict-JSON result with the environment to
   ``.bench_work/results/`` and prints the metrics, one per line, then a
   JSON summary as the last line of stdout.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)
from tracing import layer_of  # noqa: E402
from worker import reference_loop_s  # noqa: E402
from workloads import ITEM_UNITS, WORKLOADS, plan as make_plan  # noqa: E402

SETUP_SAMPLES = 5
# Nominal time of the worker's reference loop; see ``wall_s`` in README.md.
REFERENCE_S = 0.035
GEN_TIMEOUT_S = 120
LAYERS = ("synth", "suppression", "metrics", "assignment", "emd", "scene_io",
          "cli")


def _env() -> dict:
    env = dict(os.environ)
    env.pop("CROWD_SUPPRESS_JOBS", None)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": SRC, "BENCH_SRC": SRC,
                "PYTHONDONTWRITEBYTECODE": "1"})
    return env


def _worker(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"),
                             *args], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, text=True)


def _until_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("the measured process did not get ready")
    return time.perf_counter() - t0


def measure(plan_path: str, result_path: str, spans_path: str,
            seconds: int, trace: bool) -> tuple[list[float], list[float], dict]:
    """Setup samples, reference-loop times taken next to them, and the
    measured process's result."""
    setups, references = [], []
    for _ in range(SETUP_SAMPLES - 1):
        references.append(reference_loop_s())
        t0 = time.perf_counter()
        proc = _worker(["--setup-only"])
        setups.append(_until_ready(proc, t0))
        proc.communicate(timeout=30)
    args = ["--plan", plan_path, "--result", result_path,
            "--seconds", str(seconds), "--spans", spans_path]
    if trace:
        args.append("--trace")
    references.append(reference_loop_s())
    t0 = time.perf_counter()
    proc = _worker(args)
    try:
        setups.append(_until_ready(proc, t0))
        proc.communicate(timeout=seconds + 100)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"the measured process exited with "
                           f"{proc.returncode}")
    with open(result_path, encoding="utf-8") as f:
        return setups, references, json.load(f)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_sha": _git_sha()}


def _strict(obj):
    """Replace non-finite floats (the study's +inf threshold) by None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return obj


def _reports(plan: dict) -> dict:
    """The study and eval reports of the last pass, for the record."""
    if plan["workload"] not in ("study", "dense_eval"):
        return {}
    reports = {}
    for op in plan["ops"]:
        for path in op["outputs"]:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as f:
                    reports[os.path.relpath(path, plan["out_dir"])] = json.load(f)
    return reports


def _median_of(traced: list[dict], key: str, name: str) -> float:
    return statistics.median(t[key].get(name, 0.0) for t in traced)


def layer_metrics(result: dict, fastest_untraced: float) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    traced = [t for t in result["traced"] if t["error"] is None]
    if not traced:
        return {}
    m = {}

    def dur(name):
        return _median_of(traced, "durations", name)

    def cnt(name):
        return _median_of(traced, "counts", name)

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("synth.build_scenes", "synth.simulate_detector",
                 "suppression.nms", "suppression.set_nms",
                 "suppression.soft_nms", "metrics.average_precision",
                 "metrics.mr2", "metrics.best_ji", "metrics.recall_split",
                 "metrics.density_stats", "assignment.build_gt_set",
                 "emd.pair_cost_matrix", "emd.emd_match",
                 "scene_io.parse_scene_file", "scene_io.write_scene_file",
                 "scene_io.parse_prediction_file"):
        m[f"{name}.s"] = (dur(name), "s")
    m["synth.build_scenes.images"] = (cnt("synth.build_scenes.images"), "count")
    m["synth.simulate_detector.dets_out"] = (
        cnt("synth.simulate_detector.dets_out"), "count")
    methods = ("suppression.nms", "suppression.set_nms", "suppression.soft_nms")
    boxes_in = sum(cnt(f"{n}.boxes_in") for n in methods)
    kept = sum(cnt(f"{n}.kept") for n in methods)
    m["suppression.boxes_in"] = (boxes_in, "count")
    m["suppression.kept_ratio"] = (ratio(kept, boxes_in), "ratio")
    m["metrics.det_gt_pairs"] = (cnt("metrics.average_precision.det_gt_pairs"),
                                 "count")
    calls = cnt("assignment.build_gt_set.calls")
    m["assignment.build_gt_set.calls"] = (calls, "count")
    m["assignment.overflow_ratio"] = (
        ratio(cnt("assignment.build_gt_set.overflow"), calls), "ratio")
    m["emd.proposals"] = (calls, "count")
    m["scene_io.parse_scene_file.bytes_in"] = (
        cnt("scene_io.parse_scene_file.bytes_in"), "bytes")
    m["scene_io.write_scene_file.bytes_out"] = (
        cnt("scene_io.write_scene_file.bytes_out"), "bytes")
    probe = result["probe"] or {"durations": {}, "counts": {}}
    m["geometry.iou_matrix.s"] = (
        probe["durations"].get("geometry.iou_matrix", 0.0), "s")
    m["geometry.iou_matrix.pairs"] = (
        probe["counts"].get("geometry.iou_matrix.pairs", 0), "count")
    m["geometry.iou_matrix.bytes"] = (
        probe["counts"].get("geometry.iou_matrix.bytes", 0), "bytes")
    m["cli.other_s"] = (_median_of(traced, "self", "pass"), "s")
    fastest_traced = min(t["wall_s"] for t in traced)
    m["trace.overhead_ratio"] = (fastest_traced / fastest_untraced, "ratio")
    for layer in LAYERS:
        shares = []
        for t in traced:
            own = sum(v for k, v in t["self"].items() if layer_of(k) == layer)
            shares.append(own / t["wall_s"])
        m[f"share.{layer}"] = (statistics.median(shares), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crowdset", "__init__.py")):
        print(f"error: no crowdset package under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2

    seed = args.seed % 2**63  # numpy seed streams take non-negative seeds
    run_dir = os.path.join(WORK, args.workload)
    in_dir, out_dir = os.path.join(run_dir, "in"), os.path.join(run_dir, "out")
    results_dir = os.path.join(WORK, "results")
    shutil.rmtree(run_dir, ignore_errors=True)
    for d in (in_dir, out_dir, results_dir):
        os.makedirs(d, exist_ok=True)

    gen = [sys.executable, os.path.join(BENCH, "gen.py"), "--workload",
           args.workload, "--seed", str(seed), "--out", in_dir]
    if args.smoke:
        gen.append("--smoke")
    subprocess.run(gen, cwd=ROOT, env=_env(), check=True, timeout=GEN_TIMEOUT_S)
    with open(os.path.join(in_dir, "inputs.json"), encoding="utf-8") as f:
        inputs = json.load(f)
    plan = make_plan(args.workload, seed, inputs, in_dir, out_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f, indent=2)
    tag = f"{args.workload}-trace{args.trace}"
    setups, setup_references, result = measure(plan_path, os.path.join(run_dir, "worker.json"),
                             os.path.join(results_dir, f"{tag}.spans.json"),
                             args.seconds, bool(args.trace))

    # Checks run here, after the measured process has ended.
    sys.path.insert(0, SRC)
    from checks import check_workload

    ops = [op["name"] for op in plan["ops"]]
    check_errors = check_workload(plan, out_dir)
    passes = result["passes"]
    failed_cells = {(p, i) for p, ps in enumerate(passes)
                    for i, err in enumerate(ps["errors"]) if err}
    for i, name in enumerate(ops):
        if check_errors.get(name):
            failed_cells |= {(p, i) for p in range(len(passes))}
    attempted = len(passes) * len(ops)
    failed = len(failed_cells)
    if args.trace:
        traced_errors = check_workload(plan, os.path.join(out_dir, "traced"))
        check_errors.update({f"traced.{k}": v for k, v in traced_errors.items()})
        bad_traced = any(traced_errors.values())
        attempted += len(result["traced"])
        failed += sum(1 for t in result["traced"] if t["error"] or bad_traced)

    walls = [p["wall_s"] for p in passes]
    q1, median_wall, q3 = quartiles(walls)
    reference = min(result["reference_s"])
    fastest_ops = [min(p["op_s"][i] for p in passes) for i in range(len(ops))]
    wall = sum(fastest_ops) * REFERENCE_S / reference
    if args.trace:
        metrics = layer_metrics(result, min(walls))
    else:
        setup = (statistics.median(setups) * REFERENCE_S
                 / min(setup_references))
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (plan["items"] / wall, "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    error_rate = failed / attempted
    errors = {k: v for k, v in check_errors.items() if v}
    errors.update({f"pass{p}.{ops[i]}": passes[p]["errors"][i]
                   for p, i in sorted(failed_cells) if passes[p]["errors"][i]})
    errors.update({f"traced_pass{n}": t["error"]
                   for n, t in enumerate(result["traced"]) if t["error"]})

    record = _strict({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": environment(), "inputs": inputs,
        "items_per_pass": plan["items"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_s": {"scaled": wall, "fastest_ops": fastest_ops,
                   "median": median_wall, "q1": q1, "q3": q3,
                   "min": min(walls), "n": len(walls), "samples": walls,
                   "op_samples": [p["op_s"] for p in passes]},
        "reference_s": {"min": reference, "samples": result["reference_s"]},
        "setup_s": {"median": statistics.median(setups), "samples": setups,
                    "reference_s": setup_references},
        "error_rate": error_rate, "attempted": attempted, "failed": failed,
        "errors": errors,
        "digests": passes[0]["digests"],
        "reports": _reports(plan),
    })
    with open(os.path.join(results_dir, f"{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=2, allow_nan=False)
        f.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(walls)} passes of {plan['items']} "
          f"{ITEM_UNITS[args.workload].split('/')[0]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'raw pass seconds':<40} median {median_wall:.6g}, quartiles "
          f"{q1:.6g} .. {q3:.6g}, min {min(walls):.6g} (n={len(walls)})")
    print(f"  {'raw setup seconds':<40} median {statistics.median(setups):.6g} "
          f"(n={len(setups)})")
    print(f"  {'reference loop seconds, min':<40} {reference:>14.6g} s "
          f"(setup: {min(setup_references):.6g} s)")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for name, err in errors.items():
        print(f"  FAILED {name}: {str(err)[:300]}")
    for path, digest in sorted(passes[0]["digests"].items()):
        print(f"  sha256 {os.path.relpath(path, ROOT)} {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
