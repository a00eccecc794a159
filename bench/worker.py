"""The measured process.

Usage:
    python3 bench/worker.py --setup-only
    python3 bench/worker.py --plan PLAN.json --result OUT.json --seconds S
                            [--trace] [--spans SPANS.json]

It imports ``crowdset``, prints ``ready`` (the runner times process start
to this line as ``setup_s``), then runs passes one at a time in a closed
loop until ``--seconds`` have passed. A pass runs every op of the plan
through ``crowdset.cli.main`` in this process. Outputs are hashed after the
pass's clock stops; a pass whose bytes differ from the first pass's counts
as failed. With ``--trace`` every untraced pass is followed by a traced one
(see ``traced.py``), and the spans are written out at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

MIN_PASSES = 3
# A fixed pure-Python loop timed before every pass. The runner divides by
# its fastest time to cancel changes in the machine's speed during a run.
REFERENCE_LOOP = 1_000_000


def reference_loop_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i
    return time.perf_counter() - t0


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_op(cli_main, argv: list[str]) -> str | None:
    """Run one CLI op; return None on success, else why it failed."""
    try:
        rc = cli_main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a failed op is counted and the loop goes on
        return f"{type(e).__name__}: {e}"
    return None if rc == 0 else f"exit code {rc}"


def cli_pass(cli_main, plan: dict, reference: dict | None) -> dict:
    errors, op_s = [], []
    for op in plan["ops"]:
        t0 = time.perf_counter()
        errors.append(_run_op(cli_main, op["argv"]))
        op_s.append(time.perf_counter() - t0)
    digests = {}
    for op, err in zip(plan["ops"], errors):
        for path in op["outputs"]:
            digests[path] = _sha256(path) if err is None and os.path.exists(path) else None
    if reference is not None:
        for i, op in enumerate(plan["ops"]):
            if errors[i] is None and any(digests[p] != reference[p]
                                         for p in op["outputs"]):
                errors[i] = "output bytes differ from the first pass"
    return {"wall_s": sum(op_s), "op_s": op_s, "errors": errors,
            "digests": digests}


def traced_pass(plan: dict, spans_out: list) -> dict:
    from tracing import counts, durations, self_times
    from traced import traced_pass as run

    out = os.path.join(plan["out_dir"], "traced")
    os.makedirs(out, exist_ok=True)
    try:
        tr = run(plan, out)
    except Exception as e:  # counted as a failed traced pass
        return {"error": f"{type(e).__name__}: {e}"}
    spans_out.append(tr.spans)
    return {"error": None, "wall_s": durations(tr.spans)["pass"],
            "self": self_times(tr.spans), "durations": durations(tr.spans),
            "counts": counts(tr.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import crowdset
    from crowdset.cli import main as cli_main

    src = os.environ.get("BENCH_SRC", "")
    if not src or not os.path.abspath(crowdset.__file__).startswith(src + os.sep):
        print(f"error: crowdset imported from {crowdset.__file__}, "
              f"not from {src or 'BENCH_SRC'}", file=sys.stderr)
        return 2
    if args.trace:
        import traced  # noqa: F401  (import cost belongs before ready)
    plan = None
    if not args.setup_only:
        with open(args.plan, encoding="utf-8") as f:
            plan = json.load(f)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes, traced, spans, reference_s = [], [], [], []
    start = time.perf_counter()
    while True:
        reference_s.append(min(reference_loop_s() for _ in range(2)))
        reference = passes[0]["digests"] if passes else None
        passes.append(cli_pass(cli_main, plan, reference))
        if args.trace:
            traced.append(traced_pass(plan, spans))
        if (time.perf_counter() - start >= args.seconds
                and len(passes) >= MIN_PASSES):
            break

    probe = None
    if args.trace:
        from tracing import counts, durations
        from traced import iou_probe
        tr = iou_probe(plan)
        probe = {"durations": durations(tr.spans), "counts": counts(tr.spans)}
        spans.append(tr.spans)
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump(spans, f, allow_nan=False)
    result = {
        "crowdset": os.path.abspath(crowdset.__file__),
        "passes": passes,
        "reference_s": reference_s,
        "traced": traced,
        "probe": probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
