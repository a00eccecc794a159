"""Seeded synthetic crowded scenes and simulated detector outputs.

The generator places isolated boxes plus deliberately overlapping "crowd"
pairs at configurable per-image densities, so suppression strategies can be
compared on data whose crowd structure is known exactly. The detector
simulator turns those ground truths into detections, one prediction slot
budget ``k`` per model:

* ``k=1`` reproduces the classic failure: every proposal over a crowded
  cluster regresses toward the cluster's dominant member, so the cluster
  yields near-duplicate predictions and greedy NMS can keep only one.
* ``k >= 2`` lets each proposal emit one prediction per ground truth in its
  assignment set (up to ``k`` slots sharing the proposal's id), which is
  exactly the structure Set NMS preserves.

The simulator works in two steps on ground-truth columns. The draw does
everything that does not depend on ``k``: the proposals, each proposal's
ranked assignment set, the (proposal, rank) index and the noise, and with
them every member's prediction. A selection then picks one model's
:class:`~crowdset.suppression.Detections` from the draw. The study draws
once per image per model family (simulator configs that differ only in
``k`` or ``mode``) from its :class:`~crowdset.scene_io.SceneArrays` and
selects each ``k`` from that draw; :func:`simulate_detector` draws and
selects once, converting dataclasses at the edge.

Everything is deterministic under the configured seeds. Each image's
detector noise comes from one stream, drawn in an order that does not
depend on ``k``, so models with different slot budgets see identical noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assignment import GroundTruth, gt_columns, gt_set_members
from .geometry import BBox, box_areas, boxes_to_array, iou, iou_arrays
from .metrics import EvalConfig, EvalReport, Evaluation
from .scene_io import SceneArrays, SceneRecord
from .suppression import Detection, Detections, SuppressionConfig, suppress_many

# Namespaces for derived seed streams.
_NS_SCENE = 0
_NS_SIM = 1

# A detection scores SCORE_BASE minus SCORE_PENALTY times its coordinate
# error over its target's diagonal, clipped to [0.05, 0.99].
SCORE_BASE, SCORE_PENALTY = 0.95, 2.0

# A sampled box is BOX_SCALE_RANGE pixels wide and ASPECT_RANGE times as tall.
BOX_SCALE_RANGE = (40.0, 90.0)
ASPECT_RANGE = (1.6, 2.6)

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
    seed: int = 0

    def __post_init__(self):
        for name, size in (("image_w", self.image_w), ("image_h", self.image_h)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        lo, hi = self.pair_iou_range
        if not 0.5 < lo <= hi < 1.0:
            raise ValueError("pair_iou_range must lie inside (0.5, 1.0)")
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
    A one-slot proposal always collapses onto the cluster's dominant
    member. Scores follow quality (``SCORE_BASE``, ``SCORE_PENALTY``).

    ``mode="single"`` is ``mip`` with ``k=1`` whatever ``k`` says. It,
    ``label`` and ``effective_k`` are kept only because the benchmark's
    traced run (``bench/traced.py``) still builds ``mode="single"``.
    """

    mode: str = "mip"             # single | mip
    k: int = 2
    proposal_jitter: float = 0.06
    proposals_per_gt: int = 3
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


def _sample_box(rng: np.random.Generator, params: SceneParams) -> BBox:
    w = rng.uniform(*BOX_SCALE_RANGE)
    h = w * rng.uniform(*ASPECT_RANGE)
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


def _jitter(boxes: np.ndarray, rel_std: float, noise: np.ndarray) -> np.ndarray:
    """Perturb (N, 4) corner-form boxes: center shift scaled by size,
    log-normal size scale.

    ``noise`` is (N, 4) standard-normal draws; a zero ``rel_std`` returns the
    boxes unchanged (bit-exact), which the zero-jitter fixtures rely on.
    """
    if rel_std == 0.0:
        return boxes
    size = boxes[:, 2:] - boxes[:, :2]
    center = boxes[:, :2] + 0.5 * size + noise[:, :2] * rel_std * size
    half = 0.5 * size * np.exp(noise[:, 2:] * rel_std)
    return np.concatenate([center - half, center + half], axis=1)


class _Draw:
    """One image's detector draw, shared by every slot budget ``k``.

    ``dets`` holds every (proposal, rank) member's prediction in that order,
    with its rank in ``slots``; ``dominant`` is the row of each proposal's
    one-slot prediction. :meth:`select` picks a model's detections from it.
    """

    def __init__(self, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                 gt_ignore: np.ndarray, params: DetectorSimParams):
        rng = np.random.default_rng(params.seed)
        owners = np.repeat(np.flatnonzero(~gt_ignore), params.proposals_per_gt)
        proposals = _jitter(gt_boxes[owners], params.proposal_jitter,
                            rng.standard_normal((len(owners), 4)))
        ranked = gt_set_members(proposals, gt_boxes, gt_ignore, params.theta)
        sizes = np.array([len(m) for m in ranked], dtype=np.intp)
        member = np.array([i for m in ranked for i in m], dtype=np.intp)
        proposal = np.repeat(np.arange(len(ranked)), sizes)
        rank = np.arange(len(member)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        target = gt_boxes[member]
        boxes = _jitter(target, params.proposal_jitter,
                        rng.standard_normal((len(member), 4)))
        size = target[:, 2:] - target[:, :2]
        error = (np.linalg.norm(boxes - target, axis=1)
                 / np.maximum(np.hypot(size[:, 0], size[:, 1]), 1e-9))
        self.dets = Detections(
            boxes=boxes,
            scores=np.clip(SCORE_BASE - SCORE_PENALTY * error, 0.05, 0.99),
            classes=gt_classes[member], proposal_ids=proposal.astype(np.int64),
            slots=rank.astype(np.int64))
        order = np.lexsort((rank, -target[:, 3], -target[:, 2], -target[:, 1],
                            -target[:, 0], -box_areas(target), proposal))
        # Sorting keeps each proposal's members in the positions they held,
        # so a group's first sorted position is where its rank 0 was.
        self.dominant = order[rank == 0]

    def select(self, k: int) -> Detections:
        """The detections of a model with ``k`` slots: each proposal's
        members of rank below ``k``, or with one slot its dominant member."""
        d = self.dets
        if k > 1:
            rows = np.flatnonzero(d.slots < k)
            return d.take(rows, d.scores[rows])
        rows = self.dominant
        return replace(d.take(rows, d.scores[rows]),
                       slots=np.zeros(len(rows), dtype=np.int64))


def simulate_detector(gts: Sequence[GroundTruth],
                      params: DetectorSimParams) -> list[Detection]:
    """Emit detections for a scene: ``proposals_per_gt`` jittered proposals
    per ground truth, each predicting from its own assignment set.

    Every proposal computes its assignment set (members with IoU >= theta,
    descending IoU). With ``k >= 2`` slots a proposal emits one detection
    per member, up to ``k``; with one slot it emits one detection aimed at
    the cluster's dominant member: the largest area, ties to the larger
    corner tuple, then to the lower rank. One stream, seeded by
    ``params.seed``, gives first the proposal noise and then every member's
    noise in (proposal, rank) order, so different ``k`` see identical noise.
    Ignored ground truths get no proposal and join no set.
    """
    return _Draw(*gt_columns(gts), params).select(params.effective_k).to_list()


@dataclass(frozen=True)
class StudyRow:
    """One (simulator, suppression) combination with its evaluation report."""

    sim_label: str
    k: int
    method: str
    iou_thresh: float
    report: EvalReport


def build_scenes(scene_params: SceneParams, n_images: int, seed: int) -> list[SceneRecord]:
    """Generate ``n_images`` (at least one) scene records with per-image
    derived seeds."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
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


class StudyRows(list):
    """:func:`run_study`'s rows, in order, with :meth:`counters` of the work
    done to build them."""

    def __init__(self, rows: Sequence[StudyRow], counters: dict):
        super().__init__(rows)
        self._counters = counters

    def counters(self) -> dict:
        """Images, detector draws (one per image per model family), overlap
        sweeps (one per image per model) and rows."""
        return dict(self._counters)


def run_study(scene_params: SceneParams,
              sim_params_list: Sequence[DetectorSimParams],
              suppression_cfgs: Sequence[SuppressionConfig],
              eval_cfg: EvalConfig,
              n_images: int,
              seed: int) -> StudyRows:
    """Simulate and evaluate every (simulator, suppression) combination over
    the same ``n_images`` seeded scenes, except Set NMS on a one-slot
    simulator, which equals its NMS row.

    Scene seeds depend only on (seed, image); detector seeds only on
    (seed, image), shared by all simulator configs, so rows differ purely in
    model structure, not in random draws. Each image's work is shared
    between rows: simulator configs that differ only in ``k`` (or ``mode``)
    form one family, drawn once per image and selected per ``k``; each
    model's detections are swept for overlaps once per image, and every
    suppression config is derived from that sweep. The rows are fully
    deterministic.
    """
    scenes = build_scenes(scene_params, n_images, seed)
    columns = [SceneArrays.from_record(scene) for scene in scenes]
    sim_seeds = [derive_seed(seed, _NS_SIM, i) for i in range(n_images)]
    draws: dict[DetectorSimParams, list[_Draw]] = {}
    counters = {"images": n_images, "draws": 0, "sweeps": 0, "rows": 0}
    rows: list[StudyRow] = []
    for sim in sim_params_list:
        family = replace(sim, mode="mip", k=1, seed=0)
        if family not in draws:
            draws[family] = [
                _Draw(c.gt_boxes, c.gt_classes, c.gt_ignore, replace(family, seed=s))
                for c, s in zip(columns, sim_seeds)]
            counters["draws"] += n_images
        k = sim.effective_k
        # With one slot, no two boxes share a proposal: Set NMS is NMS.
        cfgs = [cfg for cfg in suppression_cfgs
                if not (k == 1 and cfg.method == "set_nms")]
        if not cfgs:
            continue
        raw = [d.select(k) for d in draws[family]]
        kept = [suppress_many(dets, cfgs) for dets in raw]
        counters["sweeps"] += n_images
        for j, cfg in enumerate(cfgs):
            images = [replace(c, dets=dets.take(*per_cfg[j]))
                      for c, dets, per_cfg in zip(columns, raw, kept)]
            report = Evaluation.of_arrays(images, eval_cfg).report()
            rows.append(StudyRow(sim_label=sim.label, k=k, method=cfg.method,
                                 iou_thresh=cfg.iou_thresh, report=report))
    counters["rows"] = len(rows)
    return StudyRows(rows, counters)
