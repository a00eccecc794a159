"""Workload definitions: input sizes, the CLI operations of one pass, and
what one pass counts as work.

This module imports nothing from ``crowdset``, so the runner can build a
plan without paying the package's import cost.
"""

from __future__ import annotations

import os

WORKLOADS = ("study", "dense_eval", "suppress_large", "emd_loss")

# Input sizes per workload. ``smoke`` sizes keep the self-test short.
SIZES = {
    "full": {
        "study": {"images": 16, "studies": 3},
        "dense_eval": {"images": 1, "gts_per_image": 550,
                       "max_dets": {"set_nms": 500, "soft_gaussian": 1600}},
        "suppress_large": {"dets": 6000},
        "emd_loss": {"proposals": 4000},
    },
    "smoke": {
        "study": {"images": 2, "studies": 1},
        "dense_eval": {"images": 1, "gts_per_image": 60,
                       "max_dets": {"set_nms": 50, "soft_gaussian": 150}},
        "suppress_large": {"dets": 300},
        "emd_loss": {"proposals": 150},
    },
}

# Study sweep, exactly as the paper comparison is run from the CLI.
STUDY_FLAGS = ["--k", "2", "--k-sweep", "1,2,3", "--nms-sweep", "0.3,0.4"]

# (CLI method flag, output file stem) for suppress_large.
SUPPRESS_METHODS = (("nms", "nms"), ("set-nms", "set_nms"),
                    ("soft-gaussian", "soft_gaussian"))
SUPPRESS_IOU = 0.5
SOFT_FLOOR = 0.001

# (k, truncate, prediction file stem) for emd_loss.
EMD_RUNS = ((2, True, "pred_k2"), (3, False, "pred_k3"))
EMD_THETA = 0.5

ITEM_UNITS = {
    "study": "images/s",
    "dense_eval": "images/s",
    "suppress_large": "dets/s",
    "emd_loss": "proposals/s",
}


def plan(workload: str, seed: int, inputs: dict, in_dir: str,
         out_dir: str) -> dict:
    """The operations of one pass.

    Each op is a ``crowdset`` argv with the files whose bytes it must
    produce. ``items`` is the work one pass does, in ``ITEM_UNITS``.
    """
    def inp(name):
        return os.path.join(in_dir, name)

    def out(name):
        return os.path.join(out_dir, name)

    ops = []
    if workload == "study":
        images = inputs["images"]
        for j, study_seed in enumerate(inputs["study_seeds"]):
            study_dir = out(f"study_{j}")
            ops.append({
                "name": f"study_{j}",
                "argv": ["study", "--images", str(images), *STUDY_FLAGS,
                         "--seed", str(study_seed), "--jobs", "1",
                         "--out", study_dir],
                "outputs": [os.path.join(study_dir, "rows.csv"),
                            os.path.join(study_dir, "report.json")],
                "seed": study_seed,
            })
        items = images * len(ops)
    elif workload == "dense_eval":
        for stem in ("set_nms", "soft_gaussian"):
            ops.append({
                "name": f"eval_{stem}",
                "argv": ["eval", "--gt", inp("gt.jsonl"),
                         "--det", inp(f"det_{stem}.jsonl"), "--jobs", "1",
                         "--out", out(f"eval_{stem}.json")],
                "outputs": [out(f"eval_{stem}.json")],
            })
        items = inputs["images"] * len(ops)
    elif workload == "suppress_large":
        for flag, stem in SUPPRESS_METHODS:
            argv = ["suppress", "--method", flag, "--iou", str(SUPPRESS_IOU),
                    "--score-floor", str(SOFT_FLOOR), "--in", inp("dets.jsonl"),
                    "--jobs", "1", "--out", out(f"{stem}.jsonl")]
            ops.append({"name": f"suppress_{stem}", "argv": argv,
                        "outputs": [out(f"{stem}.jsonl")]})
        items = inputs["dets"] * len(ops)
    elif workload == "emd_loss":
        for k, truncate, stem in EMD_RUNS:
            argv = ["emd", "--k", str(k), "--theta", str(EMD_THETA),
                    "--pred", inp(f"{stem}.jsonl"), "--gt", inp("gt.jsonl"),
                    "--jobs", "1", "--out", out(f"emd_{stem}.json")]
            if truncate:
                argv.append("--truncate-topk")
            ops.append({"name": f"emd_k{k}", "argv": argv,
                        "outputs": [out(f"emd_{stem}.json")]})
        items = inputs["proposals"] * len(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops, "items": items,
            "in_dir": in_dir, "out_dir": out_dir, "inputs": inputs}
