"""Greedy duplicate removal: classic NMS, Soft-NMS, and Set NMS.

Set NMS inserts one extra test into the greedy loop: a box never suppresses
another box that came from the same proposal, because a proposal's slot
predictions are distinct instances by construction. Detections carrying no
proposal identity (``proposal_id is None``) are treated as all-distinct, so
Set NMS degenerates to plain NMS on such inputs.

The methods run on :class:`Detections`, detections as a struct of arrays.
Every caller builds one :class:`OverlapGraph` from its detections and the
configs it will run, and runs each with :meth:`OverlapGraph.suppress`:
``crowdset suppress`` over all its images with its one config, the list
API (:func:`nms`, :func:`set_nms` and :func:`soft_nms`) over one image,
and the study over its one draw, each model's rows in turn.

Every method walks a sparse overlap graph instead of comparing every pick
with every surviving box, and the configs run on one set of detections
share one sweep. The set may hold many images, one after another, with
each row's ``image``: every image is suppressed as if it ran alone.

* The geometry overlap engine (:func:`~crowdset.geometry.overlaps`) sweeps
  the detections once, keyed by image, at the loosest threshold its configs
  need (0 for gaussian Soft-NMS, whose decay touches any overlap, else the
  smallest ``iou_thresh``), and keeps the same-class pairs of one image with
  their IoU. Each config masks that edge list: IoU above its own threshold
  and, for Set NMS's same-proposal skip, ``proposal ids differ``. Its edges
  are stored in CSR arrays; the edge list is sorted by source box once per
  orientation, so a mask keeps each box's edges in sweep order.
* A subset of the rows is a mask too: :meth:`OverlapGraph.suppress` with
  ``rows`` starts every other box dead, so it is never kept and its edges
  never fire, and returns indices into the swept rows. That equals
  suppressing the rows alone, in ascending order: ties go to the lower
  row either way. The study sweeps its draw once and walks
  each model's rows over it; ``crowdset suppress`` sweeps its one set of
  detections and walks all of them.
* NMS and Set NMS make one greedy pass over the boxes ranked by image,
  then descending score, then input index: a box still alive when reached
  is kept and kills its neighbours. No edge joins two images, so the pass
  is each image's own pass, one image after another. A box only ever kills
  boxes ranked after it, so each edge is stored once, from the
  higher-ranked box; a clique of N boxes holds N(N-1)/2 edges.
* Soft-NMS decays both ends of an edge, so it stores edges both ways. It
  computes the decay factors once, over all edges. A box under
  ``score_floor`` is dead before the walk starts, unless it is its image's
  first box in rank order among the walked rows: that box is the image's
  first pick. Each pick is the live box of highest current score, ties to
  the lowest index as ``argmax``. The walk has two phases.

  - **Rounds, in numpy.** The graph's connected components are labelled
    once (:func:`_components`), unless its first step already shows too
    few of them for a round. No edge joins two components, so each one
    is walked as if it were alone. In a round, every component with a live
    box picks its best one, and one gather and multiply applies all the
    picks' rows. With one pick per component per round, each box takes its
    decays in the order of its component's picks, the sequential order:
    the same factors multiplied in the same order give the same bits.
  - **The heap tail.** A round costs numpy's per-call overhead plus a scan
    of every live box; a heap pick costs a few microseconds. So rounds run
    while at least ``_ROUND_COMPONENTS`` components are live; a lone large
    component, such as a chain of thousands of boxes, takes no round. A
    lazy max-heap keyed ``(-score, index)`` then goes on from the current
    scores: a popped entry whose key is stale is pushed back with the
    current score, and a fresh one is the maximum.
  - **Output order.** Scores only decay, so the sequential walk picks in
    descending score at pick, ties to the lowest index: a box picked later
    at the same score already held it, and lost the tie. The picks of both
    phases are sorted by image, then that key: each image's own order.
* The greedy walks and the heap tail run in Python: a pick touches about a
  dozen neighbours, too few for numpy's per-call cost to pay. They hold
  the per-box state (scores, flags, row pointers) in Python lists, and
  read each pick's neighbours and decay factors as ``memoryview`` slices
  of the graph's arrays, which yield Python ints and floats one at a time:
  no edge is copied into a Python object, so an edge costs its array
  bytes alone. Python floats multiply exactly as float64 arrays do.
* A graph builds its rank order, as an array and a list, once, and each
  graph config (threshold, same-proposal skip, ranked or both ways) once,
  as CSR arrays, the row-pointer list and the neighbour view the walks
  read: every walk with that config shares them, such as each study
  model's NMS at one threshold. The walks only read them, and the arrays
  and the view are read-only.

The output equals that of the dense loops on each image bit for bit: a
pair without an edge has a decay factor of exactly 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import BBox, boxes_to_array, overlaps

METHODS = ("nms", "soft_linear", "soft_gaussian", "set_nms")
# Gaussian Soft-NMS's decay width sigma, Bodla et al.'s (ICCV 2017) value.
SOFT_SIGMA = 0.5
# Soft-NMS runs numpy rounds while at least _ROUND_COMPONENTS overlap
# components are live (see "The heap tail" above).
_ROUND_COMPONENTS = 32


@dataclass(frozen=True)
class Detection:
    """A scored, class-labeled box tagged with its originating proposal and
    slot index."""

    box: BBox
    score: float
    class_id: int = 1
    proposal_id: int | None = None
    slot: int = 0

    def __post_init__(self):
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite in [0, 1], got {self.score}")
        if self.proposal_id is not None and self.proposal_id < 0:
            raise ValueError(f"proposal_id must be non-negative, got {self.proposal_id}")
        if self.slot < 0:
            raise ValueError(f"slot must be non-negative, got {self.slot}")


@dataclass
class Detections:
    """One image's detections as a struct of arrays.

    ``boxes`` (N, 4) float64 in corner form, and (N,) ``scores`` float64,
    ``classes``, ``proposal_ids`` and ``slots`` int64. An anonymous
    detection at index i has proposal id -(i + 1): ids never compare equal
    between two anonymous detections of one image or to an explicit id, and
    ``id < 0`` means anonymous.
    """

    boxes: np.ndarray
    scores: np.ndarray
    classes: np.ndarray
    proposal_ids: np.ndarray
    slots: np.ndarray

    @classmethod
    def from_list(cls, dets: Sequence[Detection]) -> "Detections":
        return cls(
            boxes=boxes_to_array([d.box for d in dets]),
            scores=np.array([d.score for d in dets], dtype=np.float64),
            classes=np.array([d.class_id for d in dets], dtype=np.int64),
            proposal_ids=np.array(
                [-i - 1 if d.proposal_id is None else d.proposal_id
                 for i, d in enumerate(dets)], dtype=np.int64),
            slots=np.array([d.slot for d in dets], dtype=np.int64))

    @classmethod
    def concat(cls, parts: Sequence["Detections"]
               ) -> tuple["Detections", np.ndarray]:
        """Every image's detections, one image after another, and each
        row's ``image`` (its index in ``parts``). Ids are compared only
        within an image, so they need not differ between images."""
        image = np.repeat(np.arange(len(parts)),
                          np.array([len(p) for p in parts], dtype=np.intp))
        if not parts:
            return cls.from_list([]), image
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("boxes", "scores", "classes",
                                  "proposal_ids", "slots"))), image

    def __len__(self) -> int:
        return len(self.scores)

    def to_list(self) -> list[Detection]:
        """The inverse of :meth:`from_list`."""
        return [Detection(box=BBox(*box), score=score, class_id=cls,
                          proposal_id=pid if pid >= 0 else None, slot=slot)
                for box, score, cls, pid, slot in zip(
                    self.boxes.tolist(), self.scores.tolist(),
                    self.classes.tolist(), self.proposal_ids.tolist(),
                    self.slots.tolist())]

    def take(self, index: np.ndarray, scores: np.ndarray) -> "Detections":
        """The detections at ``index``, in that order, rescored."""
        return Detections(boxes=self.boxes[index], scores=scores,
                          classes=self.classes[index],
                          proposal_ids=self.proposal_ids[index],
                          slots=self.slots[index])


@dataclass(frozen=True)
class SuppressionConfig:
    method: str = "nms"
    iou_thresh: float = 0.5
    score_floor: float = 0.001  # soft modes drop detections rescored below this

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.iou_thresh < 1.0:
            raise ValueError(f"iou_thresh must be in (0, 1), got {self.iou_thresh}")
        if not 0.0 <= self.score_floor < math.inf:
            raise ValueError(f"score_floor must be finite and >= 0, "
                             f"got {self.score_floor}")


def _sweep_floor(cfg: SuppressionConfig) -> float:
    """The IoU a pair must exceed for ``cfg`` to act on it: any overlap for
    gaussian Soft-NMS, else ``iou_thresh``."""
    return 0.0 if cfg.method == "soft_gaussian" else cfg.iou_thresh


def _by_source(src: np.ndarray, dst: np.ndarray, ious: np.ndarray):
    """The edges ``(src, dst, ious)`` stably sorted by source box."""
    by_row = np.argsort(src, kind="stable")
    return src[by_row], dst[by_row], ious[by_row]


def _check_image(image: np.ndarray) -> None:
    if np.any(np.diff(image) < 0):
        raise ValueError("image must list the detections image by image")


class OverlapGraph:
    """The same-class pairs of one image that any of ``cfgs`` acts on,
    swept once at the loosest threshold they need (``min_iou``); with
    ``image``, each row's image index, non-decreasing, the pairs of every
    image.

    :meth:`_walk` masks the pairs into the CSR graph of one config and
    :meth:`suppress` runs one config over it, so every config whose
    threshold is at least ``min_iou`` shares the sweep, and so does every
    subset of the boxes: the boxes outside it start dead. The graph keeps
    only the columns its walks read: ``scores``, ``proposal_ids`` and
    ``image``. ``order``, by image then descending score, is the walks'
    only per-image state.
    """

    def __init__(self, dets: Detections, cfgs: Sequence[SuppressionConfig],
                 image: np.ndarray | None = None):
        if image is not None:
            _check_image(image)
        min_iou = min(map(_sweep_floor, cfgs))
        classes = dets.classes
        a, b, ious, _ = overlaps(
            dets.boxes,
            lambda i, j, ov: (ov > min_iou) & (classes[i] == classes[j]),
            image)
        if image is None:
            image = np.zeros(len(dets), dtype=np.intp)
        self.scores, self.proposal_ids = dets.scores, dets.proposal_ids
        self.min_iou, self.image = min_iou, image
        self._a, self._b, self._ious = a.astype(np.int32), b.astype(np.int32), ious
        # By image, then descending score, ties by ascending input index.
        self.order = np.lexsort((-dets.scores, image))
        self.order.flags.writeable = False
        self._order = self.order.tolist()
        self._graphs: dict[tuple, tuple] = {}

    @cached_property
    def _ranked(self):
        """Each edge once, from the box ranked first in ``order``."""
        rank = np.empty(len(self.order), dtype=np.intp)
        rank[self.order] = np.arange(len(self.order))
        a, b = self._a, self._b
        fwd = rank[a] < rank[b]
        return _by_source(np.where(fwd, a, b), np.where(fwd, b, a), self._ious)

    @cached_property
    def _both(self):
        """Each edge both ways."""
        a, b = self._a, self._b
        return _by_source(np.concatenate((a, b)), np.concatenate((b, a)),
                          np.tile(self._ious, 2))

    def _walk(self, min_iou: float, respect_proposals: bool = False,
              ranked: bool = False):
        """The pairs with IoU > ``min_iou`` (and, under
        ``respect_proposals``, different proposal ids) as a CSR graph
        ``(indptr, neighbours, ious, indptr list, neighbours view)``: box
        i's neighbours are ``neighbours[indptr[i]:indptr[i + 1]]``. Each
        edge is stored both ways, or with ``ranked`` once, from the box
        ranked first. Built once per key, with the list and the
        ``memoryview`` the walks read; the arrays and the view are
        read-only."""
        key = (min_iou, respect_proposals, ranked)
        if key not in self._graphs:
            src, dst, ious = self._ranked if ranked else self._both
            keep = ious > min_iou
            if respect_proposals:
                pids = self.proposal_ids
                keep &= pids[src] != pids[dst]
            if not keep.all():
                src, dst, ious = src[keep], dst[keep], ious[keep]
            n = len(self.scores)
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
            for array in (indptr, dst, ious):
                array.flags.writeable = False
            self._graphs[key] = (indptr, dst, ious,
                                 indptr.tolist(), memoryview(dst))
        return self._graphs[key]

    def suppress(self, cfg: SuppressionConfig, rows: np.ndarray | None = None):
        """Run ``cfg``, whose threshold must not be below the sweep's, on
        every image's boxes at ``rows`` (default: all): the kept indices (an
        intp array) image by image, each image in its own output order, and
        their output scores. That equals suppressing the boxes at ``rows``
        alone, in ascending order, mapped back through ``rows``."""
        if _sweep_floor(cfg) < self.min_iou:
            raise ValueError(f"{cfg.method} at IoU {_sweep_floor(cfg)} needs "
                             f"pairs the sweep at IoU {self.min_iou} dropped")
        member = np.zeros(len(self.scores), dtype=bool)
        member[slice(None) if rows is None else rows] = True
        if cfg.method in ("nms", "set_nms"):
            keep = np.array(self._greedy_keep(cfg.iou_thresh,
                                              cfg.method == "set_nms", member),
                            dtype=np.intp)
            return keep, self.scores[keep]
        return self._soft_keep(cfg, member)

    def _greedy_keep(self, iou_thresh, respect_proposals, member) -> list[int]:
        """Greedy suppression loop over the ``member`` boxes; returns kept
        input indices in rank order."""
        *_, ptr, nbrs = self._walk(iou_thresh, respect_proposals, True)
        dead = (~member).tolist()
        keep = []
        for i in self._order:
            if not dead[i]:
                keep.append(i)
                for j in nbrs[ptr[i]:ptr[i + 1]]:
                    dead[j] = True
        return keep

    def _soft_keep(self, cfg: SuppressionConfig, member):
        """Score-decay walk over the ``member`` boxes; returns the kept
        input indices (an intp array) and their decayed scores, by image,
        then descending score at pick, then index: the order of the
        sequential walk, as scores only decay."""
        gaussian = cfg.method == "soft_gaussian"
        indptr, dst, ovr, ptr, nbrs = self._walk(_sweep_floor(cfg), False,
                                                 False)
        factor = (np.exp(-(ovr * ovr) / SOFT_SIGMA) if gaussian
                  else 1.0 - ovr)
        floor = cfg.score_floor
        # Scores only decay, so a box under the floor is dead from the start,
        # unless it is its image's first member in ``order``: the first pick.
        alive = member & (self.scores >= floor)
        ranked = self.order[member[self.order]]
        alive[ranked[np.diff(self.image[ranked], prepend=-1) != 0]] = True
        w = self.scores.copy()
        picks, at_pick, rest = _rounds(w, alive, indptr, dst, factor, floor)
        keep, scores = _heap_walk(w.tolist(), alive.tolist(), rest, ptr, nbrs,
                                  memoryview(factor), floor)
        keep = np.concatenate([*picks, np.array(keep, dtype=np.intp)])
        scores = np.concatenate([*at_pick, np.array(scores, dtype=np.float64)])
        by = np.lexsort((keep, -scores, self.image[keep]))
        return keep[by], scores[by]


def _rounds(w, alive, indptr, nbrs, factor, floor):
    """Soft-NMS's numpy rounds over the CSR graph ``(indptr, nbrs)``, whose
    edge decays are ``factor``: while enough overlap components are live,
    each picks its live box of highest score in ``w``, ties to the lowest
    index. Updates ``w`` and ``alive`` in place; returns each round's picks
    and their scores at pick, and the boxes still live."""
    boxes = np.flatnonzero(alive)
    label = _components(indptr, nbrs, _ROUND_COMPONENTS)
    if label is None:
        return [], [], boxes
    label = label[boxes]
    by = np.argsort(label, kind="stable")
    # The live boxes by component, then index, with their labels.
    boxes, label = boxes[by], label[by]
    picks, at_pick = [], []
    while True:
        start = np.flatnonzero(np.diff(label, prepend=-1))
        if len(start) < _ROUND_COMPONENTS:
            return picks, at_pick, boxes
        score = w[boxes]
        top = np.repeat(np.maximum.reduceat(score, start),
                        np.diff(start, append=len(boxes)))
        hit = np.flatnonzero(score == top)
        # Each component's first hit: its best score, lowest index.
        pick = boxes[hit[np.diff(label[hit], prepend=-1) != 0]]
        picks.append(pick)
        at_pick.append(w[pick])
        alive[pick] = False
        # Every pick's row at once: no box is in two of them.
        lo = indptr[pick]
        count = indptr[pick + 1] - lo
        edges = (np.repeat(lo - np.cumsum(count) + count, count)
                 + np.arange(count.sum()))
        near = nbrs[edges]
        w[near] *= factor[edges]
        alive[near[w[near] < floor]] = False
        still = alive[boxes]
        boxes, label = boxes[still], label[still]


def _components(indptr: np.ndarray, nbrs: np.ndarray,
                fewest: int = 0) -> np.ndarray | None:
    """Each box's connected component in the CSR graph ``(indptr, nbrs)``,
    whose edges are stored both ways, labelled by its lowest box index; or
    None if the first step leaves fewer than ``fewest`` trees.

    Every label is a box of its component, and a root's label is itself.
    Each step hooks the root of every row's tree under the lowest label
    beside the row, then jumps the pointers until every box points at its
    root. A tree that has a neighbour either hooks or, next step, sees a
    lower root beside it, so the trees of a component halve at least every
    two steps. It stops when no row sees a label below its own.

    The first step reads the neighbours' own indices, as every box is its
    own label, so it gathers no labels. It leaves one tree per box with no
    lower neighbour, and trees only merge, so there are never fewer trees
    than components: a chain in index order or a clique leaves one tree,
    and is not labelled further."""
    rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    start = indptr[rows]
    low = np.minimum.reduceat(nbrs, start) if len(rows) else rows
    if len(indptr) - 1 - np.count_nonzero(low < rows) < fewest:
        return None
    label = np.arange(len(indptr) - 1, dtype=np.int32)
    while True:
        mine = label[rows]
        if (low >= mine).all():
            return label
        np.minimum.at(label, mine, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        low = np.minimum.reduceat(label[nbrs], start)


def _heap_walk(w, alive, boxes, ptr, nbrs, factor, floor):
    """The sequential Soft-NMS walk over the live ``boxes`` (an array)
    from the scores ``w`` and flags ``alive`` (lists): the picks in pick
    order and their scores."""
    heap = [(-w[i], i) for i in boxes.tolist()]
    heapq.heapify(heap)
    keep: list[int] = []
    scores: list[float] = []
    while heap:
        key, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        wi = w[i]
        if wi != -key:  # decayed since it was pushed
            heapq.heappush(heap, (-wi, i))
            continue
        alive[i] = False
        keep.append(i)
        scores.append(wi)
        lo, hi = ptr[i], ptr[i + 1]
        for j, f in zip(nbrs[lo:hi], factor[lo:hi]):
            w[j] *= f
            if w[j] < floor:
                alive[j] = False
    return keep, scores


def _kept(dets: list[Detection], cfg: SuppressionConfig):
    keep, scores = OverlapGraph(Detections.from_list(dets), [cfg]).suppress(cfg)
    return zip(keep.tolist(), scores.tolist())


def nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Classic greedy NMS: keep the top score, drop same-class boxes with
    IoU strictly above the threshold, repeat. Output is in descending-score
    order (score ties by input index)."""
    return [dets[i] for i, _ in _kept(dets, replace(cfg, method="nms"))]


def set_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """NMS with the same-proposal skip: boxes sharing a proposal_id never
    suppress one another."""
    return [dets[i] for i, _ in _kept(dets, replace(cfg, method="set_nms"))]


def soft_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Score-decay suppression.

    Linear mode multiplies same-class neighbors by (1 - IoU) when IoU is
    strictly above the threshold; gaussian mode multiplies by
    exp(-IoU^2 / ``SOFT_SIGMA``) for any overlap. Any method other than
    ``soft_gaussian`` runs linear mode. Detections rescored below
    ``score_floor`` are dropped. Output carries the decayed scores, in
    descending rescored order.
    """
    if cfg.method != "soft_gaussian":
        cfg = replace(cfg, method="soft_linear")
    return [replace(dets[i], score=s) for i, s in _kept(dets, cfg)]
