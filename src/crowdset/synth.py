"""Seeded synthetic crowded scenes and simulated detector outputs.

The generator places isolated boxes plus deliberately overlapping "crowd"
pairs at configurable per-image densities, so suppression strategies can be
compared on data whose crowd structure is known exactly. The detector
simulator turns those ground truths into detections two ways:

* ``single`` mode reproduces the classic failure: every proposal over a
  crowded cluster regresses toward the cluster's dominant member, so the
  cluster yields near-duplicate predictions and greedy NMS can keep only one.
* ``mip`` mode lets each proposal emit one prediction per ground truth in
  its assignment set (up to ``k`` slots sharing the proposal's id), which is
  exactly the structure Set NMS preserves.

Everything is deterministic under the configured seeds; per-image and
per-proposal streams are derived so that runs with different slot budgets
consume identical random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assignment import GroundTruth, gt_set_members
from .geometry import BBox, box_areas, boxes_to_array, iou, iou_arrays
from .metrics import EvalConfig, EvalReport, evaluate
from .scene_io import SceneRecord
from .suppression import Detection, SuppressionConfig, suppress

# Namespaces for derived seed streams.
_NS_SCENE = 0
_NS_SIM = 1

_PLACEMENT_TRIES = 200
_PAIR_IOU_TOL = 1e-4


class SceneGenerationError(RuntimeError):
    """Placement failed after bounded retries; names the violated constraint."""


@dataclass(frozen=True)
class SceneParams:
    """Crowded-scene generator knobs.

    The density defaults (22.64 objects and 2.40 overlapping pairs per image)
    match the per-image instance density of a heavily crowded pedestrian
    benchmark, so studies run at realistic crowding out of the box.
    """

    image_w: int = 1280
    image_h: int = 800
    n_objects_mean: float = 22.64
    crowd_pairs_mean: float = 2.40
    crowd_triples_mean: float = 0.0
    pair_iou_range: tuple[float, float] = (0.55, 0.8)
    box_scale_range: tuple[float, float] = (40.0, 90.0)
    aspect_range: tuple[float, float] = (1.6, 2.6)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.pair_iou_range
        if not 0.5 < lo <= hi < 1.0:
            raise ValueError("pair_iou_range must lie inside (0.5, 1.0)")
        if self.box_scale_range[0] <= 0 or self.box_scale_range[0] > self.box_scale_range[1]:
            raise ValueError("box_scale_range must be positive and ordered")
        if self.n_objects_mean < 0 or self.crowd_pairs_mean < 0 or self.crowd_triples_mean < 0:
            raise ValueError("density means must be non-negative")


@dataclass(frozen=True)
class DetectorSimParams:
    """Detector simulation knobs.

    ``proposal_jitter`` is the relative (fraction of box size) std of both
    the proposal placement noise and the prediction regression noise.
    ``proposals_per_gt`` models proposal over-completeness: real first stages
    put several proposals on every object, and those surplus near-duplicates
    are what loose suppression thresholds leave behind as false positives.
    ``single`` mode is identical to ``mip`` with ``k=1``: a one-slot
    proposal always collapses onto the cluster's dominant member. Scores
    follow quality: base score minus a penalty proportional to the
    prediction's coordinate error over the box diagonal, clipped to
    [0.05, 0.99].
    """

    mode: str = "mip"             # single | mip
    k: int = 2
    proposal_jitter: float = 0.06
    proposals_per_gt: int = 3
    score_base: float = 0.95
    score_penalty: float = 2.0
    theta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("single", "mip"):
            raise ValueError(f"mode must be 'single' or 'mip', got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.proposal_jitter < 0:
            raise ValueError("proposal_jitter must be >= 0")
        if self.proposals_per_gt < 1:
            raise ValueError("proposals_per_gt must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")

    @property
    def effective_k(self) -> int:
        return 1 if self.mode == "single" else self.k

    @property
    def label(self) -> str:
        return "single" if self.mode == "single" else f"mip{self.k}"


def derive_seed(*key: int) -> int:
    """Stable 64-bit child seed from an integer key path."""
    state = np.random.SeedSequence(list(key)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*key))


def _sample_box(rng: np.random.Generator, params: SceneParams) -> BBox:
    w = rng.uniform(*params.box_scale_range)
    h = w * rng.uniform(*params.aspect_range)
    x = rng.uniform(0.0, max(1.0, params.image_w - w))
    y = rng.uniform(0.0, max(1.0, params.image_h - h))
    return BBox(x, y, x + w, y + h)


class _Placed:
    """The boxes placed so far, with their corner array and areas grown in
    step, so each candidate costs one IoU call against the whole set."""

    def __init__(self):
        self.boxes: list[BBox] = []
        self._array = np.zeros((0, 4))
        self._areas = np.zeros(0)

    def add(self, boxes: Sequence[BBox]) -> None:
        self.boxes.extend(boxes)
        array = boxes_to_array(boxes)
        self._array = np.concatenate([self._array, array])
        self._areas = np.concatenate([self._areas, box_areas(array)])

    def max_iou(self, box: BBox) -> float:
        if not self.boxes:
            return 0.0
        return float(iou_arrays(np.array(box.as_tuple()), box.area,
                                self._array, self._areas).max())


def _offset_for_target_iou(box: BBox, ux: float, uy: float, target: float) -> BBox:
    """Partner box: ``box`` shifted along (ux, uy) so the pair IoU hits
    ``target``; the offset magnitude is solved by bisection."""
    lo, hi = 0.0, box.width + box.height  # IoU(hi) == 0 < target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        shifted = box.shifted(mid * ux, mid * uy)
        v = iou(box, shifted)
        if abs(v - target) <= _PAIR_IOU_TOL:
            return shifted
        if v > target:
            lo = mid
        else:
            hi = mid
    return box.shifted(0.5 * (lo + hi) * ux, 0.5 * (lo + hi) * uy)


def _place_cluster(rng: np.random.Generator, params: SceneParams,
                   placed: _Placed, n_partners: int) -> list[BBox]:
    """An anchor box plus ``n_partners`` offset copies, each hitting a target
    IoU with the anchor, none overlapping outside boxes beyond 0.5."""
    for _ in range(_PLACEMENT_TRIES):
        anchor = _sample_box(rng, params)
        if placed.max_iou(anchor) > 0.5:
            continue
        cluster = [anchor]
        ok = True
        for _ in range(n_partners):
            partner = None
            for _ in range(_PLACEMENT_TRIES):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                target = rng.uniform(*params.pair_iou_range)
                cand = _offset_for_target_iou(anchor, np.cos(angle), np.sin(angle),
                                              target)
                if placed.max_iou(cand) > 0.5:
                    continue
                partner = cand
                break
            if partner is None:
                ok = False
                break
            cluster.append(partner)
        if ok:
            return cluster
    raise SceneGenerationError(
        f"could not place a {n_partners + 1}-box cluster without accidental "
        f"IoU > 0.5 against existing boxes after {_PLACEMENT_TRIES} attempts"
    )


def generate_scene(params: SceneParams) -> list[GroundTruth]:
    """Generate one scene's ground truths, deterministic under params.seed.

    Object and crowd-cluster counts are Poisson around the configured means.
    Crowd pairs (and optional triples) hit a target IoU drawn from
    ``pair_iou_range`` via bisection; isolated boxes reject any accidental
    IoU > 0.5 with already-placed boxes, so the crowd structure is exactly
    the generated clusters.
    """
    rng = np.random.default_rng(params.seed)
    n_total = int(rng.poisson(params.n_objects_mean))
    n_pairs = int(rng.poisson(params.crowd_pairs_mean))
    n_triples = int(rng.poisson(params.crowd_triples_mean)) if params.crowd_triples_mean > 0 else 0
    n_isolated = max(0, n_total - 2 * n_pairs - 3 * n_triples)

    placed = _Placed()
    for _ in range(n_triples):
        placed.add(_place_cluster(rng, params, placed, n_partners=2))
    for _ in range(n_pairs):
        placed.add(_place_cluster(rng, params, placed, n_partners=1))
    for _ in range(n_isolated):
        box = None
        for _ in range(_PLACEMENT_TRIES):
            cand = _sample_box(rng, params)
            if placed.max_iou(cand) <= 0.5:
                box = cand
                break
        if box is None:
            raise SceneGenerationError(
                f"could not place an isolated box without accidental IoU > 0.5 "
                f"after {_PLACEMENT_TRIES} attempts"
            )
        placed.add([box])
    return [GroundTruth(box=b, class_id=1) for b in placed.boxes]


def _jitter_box(box: BBox, rel_std: float, noise: np.ndarray) -> BBox:
    """Perturb a box: center shift scaled by size, log-normal size scale.

    ``noise`` is four standard-normal draws; a zero ``rel_std`` returns the
    box unchanged (bit-exact), which the zero-jitter fixtures rely on.
    """
    if rel_std == 0.0:
        return box
    w, h = box.width, box.height
    cx, cy = box.center
    cx += noise[0] * rel_std * w
    cy += noise[1] * rel_std * h
    w *= float(np.exp(noise[2] * rel_std))
    h *= float(np.exp(noise[3] * rel_std))
    return BBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def _dominant_rank(members: list[GroundTruth]) -> int:
    """Index of the largest-area member; ties broken by corner coordinates so
    every proposal over the same cluster picks the same box."""
    best = 0
    for r in range(1, len(members)):
        a, b = members[r].box, members[best].box
        if (a.area, *a.as_tuple()) > (b.area, *b.as_tuple()):
            best = r
    return best


def simulate_detector(gts: Sequence[GroundTruth],
                      params: DetectorSimParams) -> list[Detection]:
    """Emit detections for a scene: ``proposals_per_gt`` jittered proposals
    per ground truth, each predicting from its own assignment set.

    Every proposal computes its assignment set (members with IoU >= theta,
    descending IoU). ``mip`` mode emits one detection per member up to ``k``
    slots; with one slot (``single`` mode or ``k=1``) the proposal emits one
    detection aimed at the cluster's dominant member. Per-proposal random
    streams are keyed by (seed, proposal index) and member draws are
    consumed in member order, so different ``k`` budgets see identical
    noise.
    """
    real = [g for g in gts if not g.ignore]
    if not real:
        return []
    n_proposals = len(real) * params.proposals_per_gt
    rngs = [_rng(params.seed, pi) for pi in range(n_proposals)]
    proposals = [
        _jitter_box(real[pi // params.proposals_per_gt].box,
                    params.proposal_jitter, rngs[pi].normal(size=4))
        for pi in range(n_proposals)
    ]
    ranked = gt_set_members(boxes_to_array(proposals), real, params.theta)
    detections: list[Detection] = []
    for pi in range(n_proposals):
        members = [real[i] for i in ranked[pi]]
        # Draws for every member are consumed regardless of what gets
        # emitted, keeping streams aligned across modes and k values.
        noises = [rngs[pi].normal(size=4) for _ in members]
        if not members:
            continue
        k = params.effective_k
        if k == 1:
            chosen = [_dominant_rank(members)]
        else:
            chosen = list(range(min(k, len(members))))
        for slot, rank in enumerate(chosen):
            member = members[rank]
            box = _jitter_box(member.box, params.proposal_jitter, noises[rank])
            err = np.linalg.norm(np.subtract(box.as_tuple(), member.box.as_tuple()))
            mag = float(err) / max(member.box.diagonal, 1e-9)
            score = float(np.clip(params.score_base - params.score_penalty * mag,
                                  0.05, 0.99))
            detections.append(Detection(box=box, score=score,
                                        class_id=member.class_id,
                                        proposal_id=pi, slot=slot))
    return detections


@dataclass(frozen=True)
class StudyRow:
    """One (simulator, suppression) combination with its evaluation report."""

    sim_label: str
    k: int
    method: str
    iou_thresh: float
    report: EvalReport


def build_scenes(scene_params: SceneParams, n_images: int, seed: int) -> list[SceneRecord]:
    """Generate ``n_images`` scene records with per-image derived seeds."""
    scenes = []
    for i in range(n_images):
        p = replace(scene_params, seed=derive_seed(seed, _NS_SCENE, i))
        scenes.append(SceneRecord(
            id=f"synthetic-{i:05d}",
            width=scene_params.image_w,
            height=scene_params.image_h,
            gts=generate_scene(p),
        ))
    return scenes


def run_study(scene_params: SceneParams,
              sim_params_list: Sequence[DetectorSimParams],
              suppression_cfgs: Sequence[SuppressionConfig],
              eval_cfg: EvalConfig,
              n_images: int,
              seed: int,
              jobs: int = 1) -> list[StudyRow]:
    """Simulate and evaluate every (simulator, suppression) combination over
    the same ``n_images`` seeded scenes.

    Scene seeds depend only on (seed, image); detector seeds only on
    (seed, image), shared by all simulator configs, so rows differ purely in
    model structure, not in random draws. Fully deterministic; ``jobs``
    parallelizes per-image simulation without changing any output.
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    scenes = build_scenes(scene_params, n_images, seed)
    sim_seeds = [derive_seed(seed, _NS_SIM, i) for i in range(n_images)]
    rows: list[StudyRow] = []
    for sim in sim_params_list:
        tasks = [(scenes[i].gts, replace(sim, seed=sim_seeds[i]))
                 for i in range(n_images)]
        raw = _map_simulations(tasks, jobs)
        for cfg in suppression_cfgs:
            eval_scenes = [replace(scenes[i], dets=suppress(raw[i], cfg))
                           for i in range(n_images)]
            report = evaluate(eval_scenes, eval_cfg)
            rows.append(StudyRow(sim_label=sim.label, k=sim.effective_k,
                                 method=cfg.method, iou_thresh=cfg.iou_thresh,
                                 report=report))
    return rows


def _simulate_task(task) -> list[Detection]:
    gts, sim = task
    return simulate_detector(gts, sim)


def _map_simulations(tasks, jobs: int) -> list[list[Detection]]:
    if jobs <= 1 or len(tasks) < 2:
        return [_simulate_task(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_simulate_task, tasks, chunksize=chunk))
