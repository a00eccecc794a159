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
its scenes as :class:`~crowdset.scene_io.SceneArrays`, holds their ground
truths as one :class:`~crowdset.metrics.Truth`, and draws once over it,
each image's noise from its own seed in the order of a draw of that image
alone; each row keeps its target's row of the table (``member``). It
sweeps the draw twice: det/det in one
:class:`~crowdset.suppression.OverlapGraph` built from its suppression
configs, and det/GT at the evaluation's threshold. Every model and config
is then a mask over those two sweeps: a model's rows start the
suppression walk over the det/det pairs (:meth:`OverlapGraph.suppress
<crowdset.suppression.OverlapGraph.suppress>`), and each config's kept
rows mask the det/GT pairs (:class:`~crowdset.metrics.PairSet`). The
ground truths' overlaps are swept once for all rows. :func:`build_scenes`
and :func:`simulate_detector` (a draw over a one-image table) convert
dataclasses at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .assignment import GroundTruth, check_k, check_theta, gt_set_members
from .geometry import box_areas, invalid_boxes, iou_arrays, iou_xyxy
from .metrics import CROWD_IOU, EvalConfig, EvalReport, Evaluation, PairSet, Truth
from .scene_io import SceneArrays, SceneRecord
from .suppression import Detection, Detections, OverlapGraph, SuppressionConfig

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
# The largest mean numpy's Generator.poisson takes (its POISSON_LAM_MAX).
_POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


class SceneGenerationError(RuntimeError):
    """Placement failed after bounded retries; names the violated constraint."""


@dataclass(frozen=True)
class SceneParams:
    """Crowded-scene generator knobs, the same for every image; each image's
    seed comes from :func:`derive_seed`.

    The density defaults (22.64 objects and 2.40 overlapping pairs per image)
    match the per-image instance density of a heavily crowded pedestrian
    benchmark, so studies run at realistic crowding out of the box."""

    image_w: int = 1280
    image_h: int = 800
    n_objects_mean: float = 22.64
    crowd_pairs_mean: float = 2.40
    crowd_triples_mean: float = 0.0
    pair_iou_range: tuple[float, float] = (0.55, 0.8)

    def __post_init__(self):
        for name, size in (("image_w", self.image_w), ("image_h", self.image_h)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        lo, hi = self.pair_iou_range
        if not CROWD_IOU < lo <= hi < 1.0:
            raise ValueError(f"pair_iou_range must lie inside ({CROWD_IOU}, 1.0)")
        for name in ("n_objects_mean", "crowd_pairs_mean", "crowd_triples_mean"):
            mean = getattr(self, name)
            if not (np.isfinite(mean) and mean >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {mean}")
            if mean > _POISSON_LAM_MAX:
                raise ValueError(f"{name} must be <= {_POISSON_LAM_MAX} (numpy's "
                                 f"Poisson limit), got {mean}")


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
        check_k(self.k)
        if not (np.isfinite(self.proposal_jitter) and self.proposal_jitter >= 0):
            raise ValueError(f"proposal_jitter must be finite and >= 0, "
                             f"got {self.proposal_jitter}")
        check_theta(self.theta)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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


def _shift_to_iou(anchor: tuple, ux: float, uy: float, target: float) -> tuple:
    """``anchor`` shifted along (ux, uy) to IoU ``target`` with it, by
    bisection on the offset. IoU falls monotonically with the offset, at
    most 2 (1/w + 1/h) per pixel, so on any sampled box 19 of the steps
    reach the tolerance."""
    x1, y1, x2, y2 = anchor
    lo, hi = 0.0, (x2 - x1) + (y2 - y1)  # IoU(hi) == 0 < target
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        box = (x1 + mid * ux, y1 + mid * uy, x2 + mid * ux, y2 + mid * uy)
        v = iou_xyxy(anchor, box)
        if abs(v - target) <= _PAIR_IOU_TOL:
            break
        lo, hi = (mid, hi) if v > target else (lo, mid)
    return box


class _Scene:
    """One scene's ground truths, deterministic under ``seed``: its (G, 4)
    ``boxes`` and the count of candidate boxes rejected.

    Triples, then pairs, then isolated boxes are placed, in Poisson counts,
    each partner at a target IoU from ``pair_iou_range`` with its anchor.
    A box overlapping an earlier one beyond ``CROWD_IOU`` is rejected, and
    ``_PLACEMENT_TRIES`` rejections in a row raise
    :class:`SceneGenerationError`. A block of isolated candidates may draw
    past the last one needed; the generator dies with the scene.
    """

    def __init__(self, params: SceneParams, seed: int):
        self.rng = rng = np.random.default_rng(seed)
        n_total = int(rng.poisson(params.n_objects_mean))
        n_pairs = int(rng.poisson(params.crowd_pairs_mean))
        n_triples = int(rng.poisson(params.crowd_triples_mean))
        self.params, self.placed, self.retries = params, [], 0
        for n_partners in chain(repeat(2, n_triples), repeat(1, n_pairs)):
            self.cluster(n_partners)
        self.boxes = self.isolated(max(0, n_total - 2 * n_pairs - 3 * n_triples))

    def fits(self, box: tuple) -> bool:
        """No placed box overlaps ``box`` past CROWD_IOU; counts a rejection."""
        ok = all(iou_xyxy(box, other) <= CROWD_IOU for other in self.placed)
        self.retries += not ok
        return ok

    def partner(self, anchor: tuple) -> tuple | None:
        """The first of ``_PLACEMENT_TRIES`` partners of ``anchor`` that
        fits, or None."""
        for _ in range(_PLACEMENT_TRIES):
            angle = self.rng.uniform(0.0, 2.0 * np.pi)
            box = _shift_to_iou(
                anchor, float(np.cos(angle)), float(np.sin(angle)),
                self.rng.uniform(*self.params.pair_iou_range))
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
            f"could not place a {n_partners + 1}-box cluster without accidental IoU "
            f"> {CROWD_IOU} against existing boxes after {_PLACEMENT_TRIES} attempts")

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
                              both[None], box_areas(both)[None]) > CROWD_IOU
            blocked, kept = over[:, :len(boxes)].any(axis=1), []
            for i in range(_CANDIDATE_BLOCK):
                misses = misses + 1 if blocked[i] else 0
                if misses == _PLACEMENT_TRIES:
                    raise SceneGenerationError(
                        f"could not place an isolated box without accidental "
                        f"IoU > {CROWD_IOU} after {_PLACEMENT_TRIES} attempts")
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
    if invalid_boxes(out).any():
        raise ValueError(f"proposal_jitter {rel_std} overflows a box's area")
    return out


def _normals(rngs: list, image: np.ndarray) -> np.ndarray:
    """(N, 4) standard normals: for each of the N non-decreasing ``image``
    ids, 4 from that image's stream in ``rngs``."""
    counts = np.bincount(image, minlength=len(rngs)).tolist()
    return np.concatenate([r.standard_normal((n, 4)) for r, n in zip(rngs, counts)])


class _Draw:
    """One detector draw over the images of ``truth``, shared by every slot
    budget ``k``; image i's stream, seeded by ``seeds[i]``, gives its
    proposal noise, then its member noise, as a draw of that image alone
    does.

    ``dets`` holds every (proposal, rank) member's prediction in that order,
    with its rank in ``slots``, its target (a row of ``truth``) in
    ``member`` and its image in ``image``; proposal ids count across
    images. ``dominant`` is the row of each proposal's one-slot prediction.
    :meth:`select` gives a model's rows.
    """

    def __init__(self, truth: Truth, seeds: list, params: DetectorSimParams):
        rngs = [np.random.default_rng(s) for s in seeds]
        owners = np.repeat(np.flatnonzero(~truth.ignore), PROPOSALS_PER_GT)
        owner_image = truth.image[owners]
        proposals = _jitter(truth.boxes[owners], params.proposal_jitter,
                            _normals(rngs, owner_image))
        proposal, self.member, rank = gt_set_members(
            proposals, truth.boxes, truth.ignore, params.theta, owner_image,
            truth.image)
        self.image = owner_image[proposal]
        target = truth.boxes[self.member]
        boxes = _jitter(target, params.proposal_jitter, _normals(rngs, self.image))
        size = target[:, 2:] - target[:, :2]
        error = (np.linalg.norm(boxes - target, axis=1)
                 / np.maximum(np.hypot(size[:, 0], size[:, 1]), 1e-9))
        self.dets = Detections(
            boxes=boxes,
            scores=np.clip(SCORE_BASE - SCORE_PENALTY * error, 0.05, 0.99),
            classes=truth.classes[self.member],
            proposal_ids=proposal.astype(np.int64), slots=rank.astype(np.int64))
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
    truth = Truth([SceneArrays.from_record(SceneRecord("", gts=gts))])
    draw = _Draw(truth, [params.seed], params)
    rows = draw.select(params.effective_k)
    dets = draw.dets.take(rows, draw.dets.scores[rows])
    if params.effective_k == 1:
        dets.slots[:] = 0
    return dets.to_list()


@dataclass(frozen=True)
class StudyRow:
    """One (k, suppression config) pair with its evaluation report."""

    k: int
    method: str
    iou_thresh: float
    report: EvalReport


def _scene_arrays(scene_params: SceneParams, n_images: int,
                  seed: int) -> tuple[list[SceneArrays], dict]:
    """:func:`build_scenes` as columns, with the count of rejected
    candidate boxes."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    scenes, counters = [], {"placement_retries": 0}
    for i in range(n_images):
        scene = _Scene(scene_params, derive_seed(seed, _NS_SCENE, i))
        counters["placement_retries"] += scene.retries
        g = len(scene.boxes)
        scenes.append(SceneArrays(
            f"synthetic-{i:05d}", scene_params.image_w, scene_params.image_h,
            scene.boxes, np.ones(g, dtype=np.int64), np.zeros(g, dtype=bool),
            Detections.from_list([])))
    return scenes, counters


def build_scenes(scene_params: SceneParams, n_images: int, seed: int) -> list[SceneRecord]:
    """Generate ``n_images`` (at least one) scene records with per-image
    derived seeds."""
    return [s.record() for s in _scene_arrays(scene_params, n_images, seed)[0]]


def run_study(scene_params: SceneParams,
              sim_params: DetectorSimParams,
              ks: Sequence[int],
              suppression_cfgs: Sequence[SuppressionConfig],
              eval_cfg: EvalConfig,
              n_images: int,
              seed: int) -> tuple[list[StudyRow], dict]:
    """Simulate and evaluate every (k, suppression config) pair, in that
    order, over the same ``n_images`` seeded scenes, except Set NMS at
    ``k = 1``, which equals its NMS row.

    Scene and detector seeds depend only on (seed, image). The detector is
    drawn once over the scenes' :class:`~crowdset.metrics.Truth` with
    ``sim_params``' ``proposal_jitter`` and ``theta`` (its ``k``, ``mode``
    and ``seed`` are not read), and each ``k`` selects its rows from that
    draw, so rows differ only in model structure. The draw is swept twice,
    det/det by an :class:`~crowdset.suppression.OverlapGraph` of the
    configs and det/GT at the evaluation's threshold; each model suppresses
    each config over the det/det pairs of its rows, and each
    :class:`~crowdset.metrics.Evaluation` masks the det/GT pairs by its
    kept rows. The ground truths are swept once. The rows are deterministic.

    Returns the rows and the counters of their work: images, draws (one per
    image) and sweeps (one), both 0 when no row runs, rows, and candidate
    boxes rejected in scene generation.
    """
    for k in ks:
        check_k(k)
    columns, generated = _scene_arrays(scene_params, n_images, seed)
    # With one slot, no two boxes share a proposal: Set NMS is NMS.
    runs = [(k, cfg) for k in ks for cfg in suppression_cfgs
            if not (k == 1 and cfg.method == "set_nms")]
    counters = {"images": n_images, "draws": n_images if runs else 0,
                "sweeps": int(bool(runs)), "rows": len(runs), **generated}
    if not runs:
        return [], counters
    truth = Truth(columns)
    draw = _Draw(truth, [derive_seed(seed, _NS_SIM, i) for i in range(n_images)],
                 sim_params)
    graph = OverlapGraph(draw.dets, suppression_cfgs, draw.image)
    pairs = PairSet(truth, draw.dets, draw.image, eval_cfg.iou_thresh)
    rows = []
    for k, cfg in runs:
        keep, scores = graph.suppress(cfg, draw.select(k))
        report = Evaluation(eval_cfg, pairs, keep, scores).report()
        rows.append(StudyRow(k, cfg.method, cfg.iou_thresh, report))
    return rows, counters
