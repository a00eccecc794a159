"""Greedy duplicate removal: classic NMS, Soft-NMS, and Set NMS.

Set NMS inserts one extra test into the greedy loop: a box never suppresses
another box that came from the same proposal, because a proposal's slot
predictions are distinct instances by construction. Detections carrying no
proposal identity (``proposal_id is None``) are treated as all-distinct, so
Set NMS degenerates to plain NMS on such inputs.

The methods run on :class:`Detections`, one image's detections as a struct
of arrays: :func:`suppress_arrays` returns the kept indices and their
scores, and the CLI parses, suppresses and writes these arrays without
building a :class:`Detection` per box. :func:`nms`, :func:`set_nms` and
:func:`soft_nms` are the list API over the same core.

Every method walks a sparse overlap graph instead of comparing every pick
with every surviving box, and the configs run on one image share one sweep
(:class:`OverlapGraph`; :func:`suppress_many` runs a list of configs,
:func:`suppress_arrays` one):

* The geometry overlap engine (:func:`~crowdset.geometry.overlaps`) sweeps
  the image once, at the loosest threshold its configs need (0 for
  gaussian Soft-NMS, whose decay touches any overlap, else the smallest
  ``iou_thresh``), and keeps the same-class pairs with their IoU. Each
  config masks that edge list: IoU above its own threshold and, for Set
  NMS's same-proposal skip, ``proposal ids differ``. Its edges are stored
  in CSR arrays; the edge list is sorted by source box once per
  orientation, so a mask keeps each box's edges in sweep order.
* NMS and Set NMS make one greedy pass in descending-score order: a box
  still alive when reached is kept and kills its neighbours. A box only
  ever kills boxes ranked after it, so each edge is stored once, from the
  higher-ranked box; a clique of N boxes holds N(N-1)/2 edges.
* Soft-NMS decays both ends of an edge, so it stores edges both ways. It
  computes the decay factors once, over all edges. Its picks come from a
  lazy max-heap keyed ``(-score, index)``: scores only decay, so a popped
  entry whose key is stale is pushed back with the current score, and a
  fresh one is the maximum, ties to the lowest index as ``argmax``.
* Both passes run over Python lists (``tolist()`` of the graph, scores,
  decay factors and flags): a pick touches about a dozen neighbours, too
  few for numpy's per-call cost to pay. Python floats multiply exactly as
  float64 arrays do.

The output equals that of the dense loops bit for bit: a pair without an
edge has a decay factor of exactly 1, and the first pick still drops every
box already under ``score_floor``.
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
    between two anonymous detections or to an explicit id, and ``id < 0``
    means anonymous.
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
    sigma: float = 0.5          # gaussian decay width
    score_floor: float = 0.001  # soft modes drop detections rescored below this

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.iou_thresh < 1.0:
            raise ValueError(f"iou_thresh must be in (0, 1), got {self.iou_thresh}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.score_floor < 0.0:
            raise ValueError(f"score_floor must be >= 0, got {self.score_floor}")


def _sweep_floor(cfg: SuppressionConfig) -> float:
    """The IoU a pair must exceed for ``cfg`` to act on it: any overlap for
    gaussian Soft-NMS, else ``iou_thresh``."""
    return 0.0 if cfg.method == "soft_gaussian" else cfg.iou_thresh


def _by_source(src: np.ndarray, dst: np.ndarray, ious: np.ndarray):
    """The edges ``(src, dst, ious)`` stably sorted by source box."""
    by_row = np.argsort(src, kind="stable")
    return src[by_row], dst[by_row], ious[by_row]


class OverlapGraph:
    """One image's same-class pairs with IoU above ``min_iou``, swept once.

    :meth:`graph` masks the pairs into the CSR graph of one config and
    :meth:`suppress` runs one config's walk over it, so every config whose
    threshold is at least ``min_iou`` shares the sweep.
    """

    def __init__(self, dets: Detections, min_iou: float):
        self.dets, self.min_iou = dets, min_iou
        classes = dets.classes
        a, b, self._ious, _ = overlaps(
            dets.boxes,
            lambda i, j, ov: (ov > min_iou) & (classes[i] == classes[j]))
        self._a, self._b = a.astype(np.int32), b.astype(np.int32)
        # Descending score, ties by ascending input index (stable sort).
        self.order = np.argsort(-dets.scores, kind="stable")

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

    def graph(self, min_iou: float, respect_proposals: bool = False,
              ranked: bool = False):
        """The pairs with IoU > ``min_iou`` (and, under
        ``respect_proposals``, different proposal ids) as a CSR graph
        ``(indptr, neighbours, ious)``: box i's neighbours are
        ``neighbours[indptr[i]:indptr[i + 1]]``. Each edge is stored both
        ways, or with ``ranked`` once, from the box ranked first."""
        src, dst, ious = self._ranked if ranked else self._both
        keep = ious > min_iou
        if respect_proposals:
            pids = self.dets.proposal_ids
            keep &= pids[src] != pids[dst]
        if not keep.all():
            src, dst, ious = src[keep], dst[keep], ious[keep]
        n = len(self.dets)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst, ious

    def suppress(self, cfg: SuppressionConfig):
        """:func:`suppress_arrays` of ``cfg``, whose threshold must not be
        below the sweep's."""
        if _sweep_floor(cfg) < self.min_iou:
            raise ValueError(f"{cfg.method} at IoU {_sweep_floor(cfg)} needs "
                             f"pairs the sweep at IoU {self.min_iou} dropped")
        if cfg.method in ("nms", "set_nms"):
            keep = np.array(self._greedy_keep(cfg.iou_thresh,
                                              cfg.method == "set_nms"),
                            dtype=np.intp)
            return keep, self.dets.scores[keep]
        keep, scores = self._soft_keep(cfg)
        return np.array(keep, dtype=np.intp), np.array(scores, dtype=np.float64)

    def _greedy_keep(self, iou_thresh, respect_proposals) -> list[int]:
        """Greedy suppression loop; returns kept input indices in keep
        order."""
        indptr, nbrs, _ = self.graph(iou_thresh, respect_proposals, ranked=True)
        ptr, nbrs = indptr.tolist(), nbrs.tolist()
        dead = [False] * len(self.order)
        keep = []
        for i in self.order.tolist():
            if not dead[i]:
                keep.append(i)
                for j in nbrs[ptr[i]:ptr[i + 1]]:
                    dead[j] = True
        return keep

    def _soft_keep(self, cfg: SuppressionConfig):
        """Score-decay loop; returns kept input indices in pick order and
        their decayed scores."""
        gaussian = cfg.method == "soft_gaussian"
        indptr, nbrs, ovr = self.graph(_sweep_floor(cfg))
        factor = (np.exp(-(ovr * ovr) / cfg.sigma) if gaussian
                  else 1.0 - ovr).tolist()
        ptr, nbrs = indptr.tolist(), nbrs.tolist()
        floor = cfg.score_floor
        w = self.dets.scores.tolist()
        alive = [True] * len(w)
        heap = [(-s, i) for i, s in enumerate(w)]
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
            if len(keep) == 1:
                # The floor applies to every box left after the first pick,
                # overlapping or not.
                alive = [a and s >= floor for a, s in zip(alive, w)]
        return keep, scores


def suppress_many(dets: Detections, cfgs: Sequence[SuppressionConfig]):
    """Run each config on one image's arrays over one overlap sweep, at the
    loosest threshold they need: a list of :func:`suppress_arrays` results,
    one per config."""
    if not cfgs:
        return []
    graph = OverlapGraph(dets, min(_sweep_floor(cfg) for cfg in cfgs))
    return [graph.suppress(cfg) for cfg in cfgs]


def suppress_arrays(dets: Detections, cfg: SuppressionConfig):
    """Run the configured method on one image's arrays: the kept input
    indices in output order (an intp array) and their output scores."""
    return OverlapGraph(dets, _sweep_floor(cfg)).suppress(cfg)


def _kept(dets: list[Detection], cfg: SuppressionConfig):
    keep, scores = suppress_arrays(Detections.from_list(dets), cfg)
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
    exp(-IoU^2 / sigma) for any overlap. Any method other than
    ``soft_gaussian`` runs linear mode. Detections rescored below
    ``score_floor`` are dropped. Output carries the decayed scores, in
    descending rescored order.
    """
    if cfg.method != "soft_gaussian":
        cfg = replace(cfg, method="soft_linear")
    return [replace(dets[i], score=s) for i, s in _kept(dets, cfg)]
