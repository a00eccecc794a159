"""Build one workload's inputs from a seed and write them as JSONL.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR [--smoke]

Runs in its own process, before the measured process starts, so the
generator's memory peak never shows in the measured ``peak_rss_mb``. Every
input comes from ``crowdset``'s public API; the same seed writes the same
bytes. Large images are tiles of CrowdHuman-density scenes (22.64 objects,
2.40 overlapping pairs per 1280x800 tile, plus triples) laid out on a grid
with a gutter, so no box crosses a tile. Counts are trimmed to exact sizes,
which keeps the work of a pass the same from seed to seed. Writes
``inputs.json`` with the sizes the plan and the checks read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from crowdset import (BBox, BoxDelta, DetectorSimParams, GroundTruth,
                      PredictionRecord, PredictionSet, SceneParams,
                      SceneRecord, SlotPrediction, SuppressionConfig,
                      build_gt_set, build_scenes, derive_seed, encode_delta,
                      set_nms, simulate_detector,
                      soft_nms, write_prediction_file, write_scene_file)

from workloads import EMD_RUNS, EMD_THETA, SIZES, SOFT_FLOOR, SUPPRESS_IOU

TILE = SceneParams(crowd_triples_mean=1.0)
GUTTER = 200.0
TILE_COLUMNS = 16
# Seed-stream namespaces, so no two inputs share random draws.
_NS_TILES, _NS_SIM, _NS_SLOTS, _NS_STUDY = 101, 102, 103, 104


def _shift_gt(g: GroundTruth, dx: float, dy: float) -> GroundTruth:
    return replace(g, box=g.box.shifted(dx, dy))


def tiled_images(seed: int, n_images: int, gts_per_image: int | None = None,
                 dets_per_image: int | None = None) -> list[SceneRecord]:
    """Large images tiled from seeded scenes, with mip k=3 detections.

    Tiles are added until the image holds ``gts_per_image`` ground truths
    or ``dets_per_image`` detections; the last tile is trimmed to the exact
    count. Proposal ids are renumbered so they stay unique per image.
    """
    records = []
    tile_index = 0
    for img in range(n_images):
        gts, dets = [], []
        slot = 0
        while True:
            (tile,) = build_scenes(TILE, 1, derive_seed(seed, _NS_TILES,
                                                        tile_index))
            sim = DetectorSimParams(k=3, seed=derive_seed(seed, _NS_SIM,
                                                          tile_index))
            tile_index += 1
            tile_gts = tile.gts
            if gts_per_image is not None:
                tile_gts = tile_gts[:gts_per_image - len(gts)]
            tile_dets = simulate_detector(tile_gts, sim)
            if dets_per_image is not None:
                tile_dets = tile_dets[:dets_per_image - len(dets)]
            dx = (slot % TILE_COLUMNS) * (TILE.image_w + GUTTER)
            dy = (slot // TILE_COLUMNS) * (TILE.image_h + GUTTER)
            slot += 1
            pid_base = 1 + max((d.proposal_id for d in dets), default=-1)
            gts.extend(_shift_gt(g, dx, dy) for g in tile_gts)
            dets.extend(replace(d, box=d.box.shifted(dx, dy),
                                proposal_id=d.proposal_id + pid_base)
                        for d in tile_dets)
            if gts_per_image is not None and len(gts) >= gts_per_image:
                break
            if dets_per_image is not None and len(dets) >= dets_per_image:
                break
        rows = -(-slot // TILE_COLUMNS)
        records.append(SceneRecord(
            id=f"tiled-{img:03d}",
            width=int(min(slot, TILE_COLUMNS) * (TILE.image_w + GUTTER)),
            height=int(rows * (TILE.image_h + GUTTER)),
            gts=gts, dets=dets))
    return records


def gen_dense_eval(seed: int, size: dict, out: str) -> dict:
    images = tiled_images(seed, size["images"],
                          gts_per_image=size["gts_per_image"])
    write_scene_file([replace(r, dets=[]) for r in images],
                     os.path.join(out, "gt.jsonl"))
    counts = {}
    for stem, cfg in (
            ("set_nms", SuppressionConfig(method="set_nms",
                                          iou_thresh=SUPPRESS_IOU)),
            ("soft_gaussian", SuppressionConfig(method="soft_gaussian",
                                                score_floor=SOFT_FLOOR))):
        fn = set_nms if stem == "set_nms" else soft_nms
        # Keep the top detections only, as detectors cap their output per
        # image; the fixed count keeps the work the same across seeds.
        cap = size["max_dets"][stem]
        suppressed = [replace(r, gts=[], dets=fn(r.dets, cfg)[:cap])
                      for r in images]
        write_scene_file(suppressed, os.path.join(out, f"det_{stem}.jsonl"))
        counts[f"dets_{stem}"] = [len(r.dets) for r in suppressed]
    return {"images": len(images), "gts": [len(r.gts) for r in images],
            "raw_dets": [len(r.dets) for r in images], **counts}


def gen_suppress_large(seed: int, size: dict, out: str) -> dict:
    (image,) = tiled_images(seed, 1, dets_per_image=size["dets"])
    write_scene_file([image], os.path.join(out, "dets.jsonl"))
    return {"images": 1, "dets": len(image.dets), "gts": len(image.gts)}


def _slots(rng: np.random.Generator, proposal: BBox, members: list[BBox],
           k: int) -> tuple[SlotPrediction, ...]:
    """``k`` slot predictions: members' deltas plus noise, in shuffled slot
    order so the matching has work to do; leftover slots predict noise."""
    targets = [encode_delta(proposal, m).as_tuple() for m in members[:k]]
    targets += [tuple(rng.normal(0.0, 0.2, 4)) for _ in range(k - len(targets))]
    order = rng.permutation(k)
    slots = []
    for j in order:
        fg = float(rng.uniform(0.05, 0.95))
        delta = np.asarray(targets[j]) + rng.normal(0.0, 0.1, 4)
        slots.append(SlotPrediction(class_scores=np.array([1.0 - fg, fg]),
                                    delta=BoxDelta(*(float(v) for v in delta))))
    return tuple(slots)


def gen_emd_loss(seed: int, size: dict, out: str) -> dict:
    """Proposals jittered around every ground truth of crowded scenes with
    triples; sets larger than the widest k are left out so no op fails."""
    target = size["proposals"]
    max_k = max(k for k, _, _ in EMD_RUNS)
    scenes, preds = [], {k: [] for k, _, _ in EMD_RUNS}
    n_props = 0
    overflow = {k: 0 for k, _, _ in EMD_RUNS}
    batch = 0
    while n_props < target:
        batch_scenes = build_scenes(TILE, 16, derive_seed(seed, _NS_TILES, batch))
        for i, scene in enumerate(batch_scenes):
            scene = replace(scene, id=f"emd-{batch:04d}-{i:02d}")
            rng = np.random.default_rng(derive_seed(seed, _NS_SLOTS, batch, i))
            gt_boxes = [g.box for g in scene.gts]
            if not gt_boxes or n_props >= target:
                continue
            props = []
            for b in gt_boxes:
                for _ in range(3):
                    n = rng.normal(0.0, 1.0, 4)
                    w = b.width * float(np.exp(0.06 * n[2]))
                    h = b.height * float(np.exp(0.06 * n[3]))
                    cx = b.center[0] + 0.06 * b.width * n[0]
                    cy = b.center[1] + 0.06 * b.height * n[1]
                    props.append(BBox(cx - w / 2, cy - h / 2, cx + w / 2,
                                      cy + h / 2))
            per_k = {k: [] for k in preds}
            for p in props:
                members = [g.box for g in
                           build_gt_set(p, scene.gts, EMD_THETA).entries]
                if len(members) > max_k or n_props >= target:
                    continue
                for k in per_k:
                    per_k[k].append(PredictionSet(
                        proposal=p, slots=_slots(rng, p, members, k)))
                    overflow[k] += len(members) > k
                n_props += 1
            if per_k[max_k]:
                scenes.append(scene)
                for k in preds:
                    preds[k].append(PredictionRecord(id=scene.id,
                                                     proposals=per_k[k]))
        batch += 1
    write_scene_file(scenes, os.path.join(out, "gt.jsonl"))
    for k, _, stem in EMD_RUNS:
        write_prediction_file(preds[k], os.path.join(out, f"{stem}.jsonl"))
    return {"images": len(scenes), "proposals": n_props,
            "overflow": {str(k): v for k, v in overflow.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "study":
        # Each study builds its own scenes from its --seed inside the CLI.
        facts = {"images": size["images"],
                 "study_seeds": [derive_seed(args.seed, _NS_STUDY, j) % 2**31
                                 for j in range(size["studies"])]}
    else:
        gen = {"dense_eval": gen_dense_eval,
               "suppress_large": gen_suppress_large,
               "emd_loss": gen_emd_loss}[args.workload]
        facts = gen(args.seed, size, args.out)
    with open(os.path.join(args.out, "inputs.json"), "w", encoding="utf-8") as f:
        json.dump(facts, f, indent=2, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
