"""Seeded synthetic crowded scenes and simulated detector outputs.

The generator places isolated boxes plus deliberately overlapping "crowd"
pairs and triples at configurable per-image densities, so suppression
strategies can be compared on data whose crowd structure is known exactly.
It builds each scene as a (G, 4) array. The isolated boxes come last, and
each candidate takes the next 4 uniforms whether or not it is rejected, so
their candidates are a fixed stream: drawn in blocks with ``random()`` (a
``Generator.uniform`` is exactly ``lo + (hi - lo) * random()``), each block
is scored in one IoU matrix and walked like NMS.

The detector simulator turns those ground truths into detections, one
prediction slot budget ``k`` per model:

* ``k=1`` reproduces the classic failure: every proposal over a crowded
  cluster regresses toward the cluster's dominant member, so the cluster
  yields near-duplicate predictions and greedy NMS can keep only one.
* ``k >= 2`` lets each proposal emit one prediction per ground truth in its
  assignment set (up to ``k`` slots sharing the proposal's id), which is
  exactly the structure Set NMS preserves.

A draw does everything that does not depend on ``k`` (the proposals, their
ranked assignment sets and the noise, in an order that does not depend on
``k``), and a model is a subset of the draw's rows. The study generates
its scenes as
:class:`~crowdset.scene_io.SceneArrays` and draws each model family
(configs that differ only in ``k`` or ``mode``) once over all images, each
image's noise from its own seed in the order of a draw of that image alone.
It sweeps each family's draw twice: det/det at the loosest threshold any
suppression config needs, and det/GT at the evaluation's threshold. Every
model and config is then a mask over those two sweeps: a model's rows
start the suppression walk over the det/det pairs
(:meth:`OverlapGraph.suppress <crowdset.suppression.OverlapGraph.suppress>`),
and each config's kept rows mask the det/GT pairs
(:class:`~crowdset.metrics.PairSet`). The ground
truths' overlaps are swept once for all rows. :func:`build_scenes` and
:func:`simulate_detector` (a draw over one image) convert dataclasses at
the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assignment import GroundTruth, check_theta, gt_columns, gt_set_members
from .geometry import box_areas, iou_arrays, iou_xyxy
from .metrics import EvalConfig, EvalReport, Evaluation, PairSet, Truth
from .scene_io import SceneArrays, SceneRecord
from .suppression import (Detection, Detections, OverlapGraph,
                          SuppressionConfig, _sweep_floor)

# Namespaces for derived seed streams.
_NS_SCENE = 0
_NS_SIM = 1

# A detection scores SCORE_BASE minus SCORE_PENALTY times its coordinate
# error over its target's diagonal, clipped to [0.05, 0.99].
SCORE_BASE, SCORE_PENALTY = 0.95, 2.0

# Proposals per ground truth. Real first stages put several proposals on
# every object, and those surplus near-duplicates are what loose suppression
# thresholds leave behind as false positives.
PROPOSALS_PER_GT = 3

# A sampled box is BOX_SCALE_RANGE pixels wide and ASPECT_RANGE times as tall.
BOX_SCALE_RANGE = (40.0, 90.0)
ASPECT_RANGE = (1.6, 2.6)

_PLACEMENT_TRIES = 200
_PAIR_IOU_TOL = 1e-4
_BISECTION_STEPS = 80
_CANDIDATE_BLOCK = 32  # isolated candidates drawn and scored at a time


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
        for name in ("n_objects_mean", "crowd_pairs_mean", "crowd_triples_mean"):
            mean = getattr(self, name)
            if not (np.isfinite(mean) and mean >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {mean}")


@dataclass(frozen=True)
class DetectorSimParams:
    """Detector simulation knobs.

    ``proposal_jitter`` is the relative (fraction of box size) std of both
    the proposal placement noise and the prediction regression noise. Every
    ground truth gets ``PROPOSALS_PER_GT`` proposals. A one-slot proposal
    always collapses onto the cluster's dominant member. Scores follow
    quality (``SCORE_BASE``, ``SCORE_PENALTY``).

    ``mode="single"`` is ``mip`` with ``k=1`` whatever ``k`` says. It,
    ``label`` and ``effective_k`` are kept only because the benchmark's
    traced run (``bench/traced.py``) still builds ``mode="single"``.
    """

    mode: str = "mip"             # single | mip
    k: int = 2
    proposal_jitter: float = 0.06
    theta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("single", "mip"):
            raise ValueError(f"mode must be 'single' or 'mip', got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (np.isfinite(self.proposal_jitter) and self.proposal_jitter >= 0):
            raise ValueError(f"proposal_jitter must be finite and >= 0, "
                             f"got {self.proposal_jitter}")
        check_theta(self.theta)

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


def _uniform(lo, hi, u):
    """``Generator.uniform(lo, hi)`` from its ``random()`` draw ``u``."""
    return lo + (hi - lo) * u


def _box_corners(uw, ua, ux, uy, params: SceneParams):
    """Corners (x1, y1, x2, y2) from 4 uniforms: width, aspect, x and y;
    floats give one box, arrays one box per element."""
    w = _uniform(*BOX_SCALE_RANGE, uw)
    h = w * _uniform(*ASPECT_RANGE, ua)
    x = _uniform(0.0, np.maximum(1.0, params.image_w - w), ux)
    y = _uniform(0.0, np.maximum(1.0, params.image_h - h), uy)
    return x, y, x + w, y + h


def _shift_to_iou(anchor: tuple, ux: float, uy: float,
                  target: float) -> tuple[tuple, bool]:
    """``anchor`` shifted along (ux, uy) to IoU ``target`` with it, by
    bisection on the offset; and whether every step ran."""
    x1, y1, x2, y2 = anchor
    lo, hi = 0.0, (x2 - x1) + (y2 - y1)  # IoU(hi) == 0 < target
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        box = (x1 + mid * ux, y1 + mid * uy, x2 + mid * ux, y2 + mid * uy)
        v = iou_xyxy(anchor, box)
        if abs(v - target) <= _PAIR_IOU_TOL:
            return box, False
        lo, hi = (mid, hi) if v > target else (lo, mid)
    mid = 0.5 * (lo + hi)
    return (x1 + mid * ux, y1 + mid * uy, x2 + mid * ux, y2 + mid * uy), True


class _Scene:
    """One scene's ground truths, deterministic under ``params.seed``: its
    (G, 4) ``boxes``, candidate boxes rejected and bisections capped.

    Triples, then pairs, then isolated boxes are placed, in Poisson counts,
    each partner at a target IoU from ``pair_iou_range`` with its anchor.
    A box overlapping an earlier one beyond IoU 0.5 is rejected, and
    ``_PLACEMENT_TRIES`` rejections in a row raise
    :class:`SceneGenerationError`. A block of isolated candidates may draw
    past the last one needed; the generator dies with the scene.
    """

    def __init__(self, params: SceneParams):
        self.rng = rng = np.random.default_rng(params.seed)
        n_total = int(rng.poisson(params.n_objects_mean))
        n_pairs = int(rng.poisson(params.crowd_pairs_mean))
        n_triples = (int(rng.poisson(params.crowd_triples_mean))
                     if params.crowd_triples_mean > 0 else 0)
        self.params, self.placed = params, []
        self.retries = self.cap_hits = 0
        for n_partners in [2] * n_triples + [1] * n_pairs:
            self.cluster(n_partners)
        self.boxes = self.isolated(max(0, n_total - 2 * n_pairs - 3 * n_triples))

    def fits(self, box: tuple) -> bool:
        """No placed box overlaps ``box`` beyond 0.5; counts a rejection."""
        ok = all(iou_xyxy(box, other) <= 0.5 for other in self.placed)
        self.retries += not ok
        return ok

    def partner(self, anchor: tuple) -> tuple | None:
        """The first of ``_PLACEMENT_TRIES`` partners of ``anchor`` that
        fits, or None."""
        for _ in range(_PLACEMENT_TRIES):
            angle = self.rng.uniform(0.0, 2.0 * np.pi)
            box, capped = _shift_to_iou(
                anchor, float(np.cos(angle)), float(np.sin(angle)),
                self.rng.uniform(*self.params.pair_iou_range))
            self.cap_hits += capped
            if self.fits(box):
                return box
        return None

    def cluster(self, n_partners: int) -> None:
        """An anchor and its partners; a partner that fails every try
        abandons its anchor."""
        for _ in range(_PLACEMENT_TRIES):
            anchor = tuple(map(float, _box_corners(*self.rng.random(4), self.params)))
            members = [anchor] if self.fits(anchor) else [None]
            while members[-1] is not None and len(members) <= n_partners:
                members.append(self.partner(anchor))
            if members[-1] is not None:
                self.placed += members
                return
        raise SceneGenerationError(
            f"could not place a {n_partners + 1}-box cluster without accidental "
            f"IoU > 0.5 against existing boxes after {_PLACEMENT_TRIES} attempts")

    def isolated(self, n: int) -> np.ndarray:
        """The placed boxes, then ``n`` isolated ones, as a (G, 4) array.
        Candidates are scored a block at a time in one IoU matrix, against
        the placed boxes and each other, then walked in order like NMS."""
        boxes, misses = np.array(self.placed).reshape(-1, 4), 0
        while n:
            cands = np.stack(_box_corners(*self.rng.random((_CANDIDATE_BLOCK, 4)).T,
                                          self.params), axis=1)
            both = np.concatenate([boxes, cands])
            over = iou_arrays(cands[:, None], box_areas(cands)[:, None],
                              both[None], box_areas(both)[None]) > 0.5
            blocked, kept = over[:, :len(boxes)].any(axis=1), []
            for i in range(_CANDIDATE_BLOCK):
                misses = misses + 1 if blocked[i] else 0
                if misses == _PLACEMENT_TRIES:
                    raise SceneGenerationError(
                        f"could not place an isolated box without accidental "
                        f"IoU > 0.5 after {_PLACEMENT_TRIES} attempts")
                if not blocked[i]:
                    kept.append(i)
                    blocked |= over[i, len(boxes):]
                    if len(kept) == n:
                        break
            self.retries += i + 1 - len(kept)
            boxes, n = np.concatenate([boxes, cands[kept]]), n - len(kept)
        return boxes


@np.errstate(over="ignore", invalid="ignore")
def _jitter(boxes: np.ndarray, rel_std: float, noise: np.ndarray) -> np.ndarray:
    """Perturb (N, 4) corner-form boxes: center shift scaled by size,
    log-normal size scale.

    ``noise`` is (N, 4) standard-normal draws; a zero ``rel_std`` returns the
    boxes unchanged (bit-exact), which the zero-jitter fixtures rely on. It
    raises, with numpy's overflow warnings off, when a box's area overflows.
    """
    if rel_std == 0.0:
        return boxes
    size = boxes[:, 2:] - boxes[:, :2]
    center = boxes[:, :2] + 0.5 * size + noise[:, :2] * rel_std * size
    half = 0.5 * size * np.exp(noise[:, 2:] * rel_std)
    out = np.concatenate([center - half, center + half], axis=1)
    if not np.isfinite(box_areas(out)).all():
        raise ValueError(f"proposal_jitter {rel_std} overflows a box's area")
    return out


def _normals(rngs: list, image: np.ndarray) -> np.ndarray:
    """(N, 4) standard normals: for each of the N non-decreasing ``image``
    ids, 4 from that image's stream in ``rngs``."""
    counts = np.bincount(image, minlength=len(rngs)).tolist()
    return np.concatenate([r.standard_normal((n, 4)) for r, n in zip(rngs, counts)])


class _Draw:
    """One model family's detector draw over all images, shared by every
    slot budget ``k``; each image's stream gives its proposal noise, then
    its member noise, as a draw of that image alone does.

    ``dets`` holds every (proposal, rank) member's prediction in that order,
    with its rank in ``slots`` and its image in ``image``; proposal ids count
    across images. ``dominant`` is the row of each proposal's one-slot
    prediction. :meth:`select` gives a model's rows.
    """

    def __init__(self, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                 gt_ignore: np.ndarray, gt_image: np.ndarray, seeds: list,
                 params: DetectorSimParams):
        rngs = [np.random.default_rng(s) for s in seeds]
        owners = np.repeat(np.flatnonzero(~gt_ignore), PROPOSALS_PER_GT)
        owner_image = gt_image[owners]
        proposals = _jitter(gt_boxes[owners], params.proposal_jitter,
                            _normals(rngs, owner_image))
        proposal, member, rank = gt_set_members(
            proposals, gt_boxes, gt_ignore, params.theta, owner_image, gt_image)
        self.image = owner_image[proposal]
        target = gt_boxes[member]
        boxes = _jitter(target, params.proposal_jitter, _normals(rngs, self.image))
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

    def select(self, k: int) -> np.ndarray:
        """The rows of :attr:`dets` that a model with ``k`` slots predicts,
        ascending: each proposal's members of rank below ``k``, or with one
        slot its dominant member."""
        return np.flatnonzero(self.dets.slots < k) if k > 1 else self.dominant


def simulate_detector(gts: Sequence[GroundTruth],
                      params: DetectorSimParams) -> list[Detection]:
    """Emit detections for a scene: ``PROPOSALS_PER_GT`` jittered proposals
    per ground truth, each predicting from its own assignment set.

    Every proposal computes its assignment set (members with IoU >= theta,
    descending IoU). With ``k >= 2`` slots a proposal emits one detection
    per member, up to ``k``; with one slot it emits one detection aimed at
    the cluster's dominant member: the largest area, ties to the larger
    corner tuple, then to the lower rank. One stream, seeded by
    ``params.seed``, gives the proposal noise and then every member's noise
    in (proposal, rank) order. Ignored ground truths join no set.
    """
    draw = _Draw(*gt_columns(gts), np.zeros(len(gts), dtype=np.intp),
                 [params.seed], params)
    rows = draw.select(params.effective_k)
    dets = draw.dets.take(rows, draw.dets.scores[rows])
    if params.effective_k == 1:
        dets.slots[:] = 0
    return dets.to_list()


@dataclass(frozen=True)
class StudyRow:
    """One (simulator, suppression) combination with its evaluation report."""

    sim_label: str
    k: int
    method: str
    iou_thresh: float
    report: EvalReport


def _scene_arrays(scene_params: SceneParams, n_images: int, seed: int,
                  counters: dict) -> list[SceneArrays]:
    """:func:`build_scenes` as columns; counts rejections and capped
    bisections into ``counters``."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    scenes = []
    for i in range(n_images):
        scene = _Scene(replace(scene_params, seed=derive_seed(seed, _NS_SCENE, i)))
        counters["placement_retries"] += scene.retries
        counters["bisection_cap_hits"] += scene.cap_hits
        g = len(scene.boxes)
        scenes.append(SceneArrays(
            f"synthetic-{i:05d}", scene_params.image_w, scene_params.image_h,
            scene.boxes, np.ones(g, dtype=np.int64), np.zeros(g, dtype=bool),
            Detections.from_list([])))
    return scenes


def build_scenes(scene_params: SceneParams, n_images: int, seed: int) -> list[SceneRecord]:
    """Generate ``n_images`` (at least one) scene records with per-image
    derived seeds."""
    counters = {"placement_retries": 0, "bisection_cap_hits": 0}
    return [s.record() for s in _scene_arrays(scene_params, n_images, seed, counters)]


class StudyRows(list):
    """:func:`run_study`'s rows, in order, with :meth:`counters` of the work
    done to build them."""

    def __init__(self, rows: Sequence[StudyRow], counters: dict):
        super().__init__(rows)
        self._counters = counters

    def counters(self) -> dict:
        """Images, detector draws (one per image per model family with a
        config to run), family sweeps (one per such family, over all its
        images: its det/det pairs for suppression and its det/GT pairs for
        evaluation), rows, candidate boxes rejected in scene generation, and
        pair bisections that ran all their steps."""
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
    model structure, not in random draws. The draws and sweeps are shared
    between rows: simulator configs that differ only in ``k`` (or ``mode``)
    form one family, drawn once over all images and swept twice, det/det
    at the loosest suppression threshold and det/GT at the evaluation's. A
    family is drawn only when one of its models has a config to run. Each
    model suppresses every config over the det/det pairs of its rows alone,
    and each config's
    :class:`~crowdset.metrics.Evaluation` masks the det/GT pairs by its
    kept rows. The ground truths are swept once for all rows. The rows are
    fully deterministic.
    """
    counters = {"images": n_images, "draws": 0, "sweeps": 0, "rows": 0,
                "placement_retries": 0, "bisection_cap_hits": 0}
    columns = _scene_arrays(scene_params, n_images, seed, counters)
    truth = Truth(columns)
    sim_seeds = [derive_seed(seed, _NS_SIM, i) for i in range(n_images)]
    models = []
    floors: dict[DetectorSimParams, float] = {}
    for sim in sim_params_list:
        family = replace(sim, mode="mip", k=1, seed=0)
        # With one slot, no two boxes share a proposal: Set NMS is NMS.
        cfgs = [cfg for cfg in suppression_cfgs
                if not (sim.effective_k == 1 and cfg.method == "set_nms")]
        if cfgs:
            models.append((sim, family, cfgs))
            floors[family] = min(floors.get(family, 1.0),
                                 *map(_sweep_floor, cfgs))
    # Each family's draw, its det/det sweep and its det/GT sweep.
    families: dict[DetectorSimParams, tuple] = {}
    rows: list[StudyRow] = []
    for sim, family, cfgs in models:
        if family not in families:
            draw = _Draw(truth.boxes, truth.classes, truth.ignore, truth.image,
                         sim_seeds, family)
            families[family] = (
                draw, OverlapGraph(draw.dets, floors[family], draw.image),
                PairSet(truth, draw.dets, draw.image, eval_cfg.iou_thresh))
            counters["draws"] += n_images
            counters["sweeps"] += 1
        draw, graph, pairs = families[family]
        selected = draw.select(sim.effective_k)
        for cfg in cfgs:
            keep, scores = graph.suppress(cfg, selected)
            report = Evaluation(eval_cfg, pairs, keep, scores).report()
            rows.append(StudyRow(sim_label=sim.label, k=sim.effective_k,
                                 method=cfg.method, iou_thresh=cfg.iou_thresh,
                                 report=report))
    counters["rows"] = len(rows)
    return StudyRows(rows, counters)
