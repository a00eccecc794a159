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

Every method walks one sparse overlap graph instead of comparing every
pick with every surviving box:

* The geometry overlap engine (:func:`~crowdset.geometry.overlaps`)
  lists the pairs the method would act on: same class, and IoU above
  ``iou_thresh`` (above 0 for gaussian Soft-NMS, whose decay touches any
  overlap). Set NMS's same-proposal skip is one more term of that mask,
  ``proposal ids differ``. The edges are stored in CSR arrays.
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


def _overlap_graph(dets: Detections, min_iou, respect_proposals=False,
                   rank=None):
    """Same-class pairs with IoU > ``min_iou`` (and, under
    ``respect_proposals``, different proposal ids) as a CSR graph
    ``(indptr, neighbours, ious)``: box i's neighbours are
    ``neighbours[indptr[i]:indptr[i + 1]]``. Without ``rank`` each edge is
    stored both ways. With it, each edge is stored once, from the box of
    lower ``rank`` to the other, and ``ious`` is None."""
    classes, pids = dets.classes, dets.proposal_ids

    def edge(a, b, ious):
        keep = (ious > min_iou) & (classes[a] == classes[b])
        if respect_proposals:
            keep &= pids[a] != pids[b]
        return keep

    a, b, ious, _ = overlaps(dets.boxes, edge)
    if rank is None:
        a, b, ious = (np.concatenate((a, b)), np.concatenate((b, a)),
                      np.tile(ious, 2))
    else:
        fwd = rank[a] < rank[b]
        a, b, ious = np.where(fwd, a, b), np.where(fwd, b, a), None
    n = len(dets)
    by_row = np.argsort(a, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    return (indptr, b.astype(np.int32)[by_row],
            None if ious is None else ious[by_row])


def _greedy_keep(dets: Detections, iou_thresh, respect_proposals) -> list[int]:
    """Greedy suppression loop; returns kept input indices in keep order."""
    # Descending score, ties by ascending input index (stable sort).
    order = np.argsort(-dets.scores, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    indptr, nbrs, _ = _overlap_graph(dets, iou_thresh, respect_proposals, rank)
    ptr, nbrs = indptr.tolist(), nbrs.tolist()
    dead = [False] * len(order)
    keep = []
    for i in order.tolist():
        if not dead[i]:
            keep.append(i)
            for j in nbrs[ptr[i]:ptr[i + 1]]:
                dead[j] = True
    return keep


def _soft_keep(dets: Detections, cfg: SuppressionConfig):
    """Score-decay loop; returns kept input indices in pick order and their
    decayed scores."""
    gaussian = cfg.method == "soft_gaussian"
    indptr, nbrs, ovr = _overlap_graph(dets, 0.0 if gaussian else cfg.iou_thresh)
    factor = (np.exp(-(ovr * ovr) / cfg.sigma) if gaussian else 1.0 - ovr).tolist()
    ptr, nbrs = indptr.tolist(), nbrs.tolist()
    floor = cfg.score_floor
    w = dets.scores.tolist()
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


def suppress_arrays(dets: Detections, cfg: SuppressionConfig):
    """Run the configured method on one image's arrays: the kept input
    indices in output order (an intp array) and their output scores."""
    if cfg.method in ("nms", "set_nms"):
        keep = np.array(_greedy_keep(dets, cfg.iou_thresh, cfg.method == "set_nms"),
                        dtype=np.intp)
        return keep, dets.scores[keep]
    keep, scores = _soft_keep(dets, cfg)
    return np.array(keep, dtype=np.intp), np.array(scores, dtype=np.float64)


def nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Classic greedy NMS: keep the top score, drop same-class boxes with
    IoU strictly above the threshold, repeat. Output is in descending-score
    order (score ties by input index)."""
    return [dets[i] for i in _greedy_keep(Detections.from_list(dets),
                                          cfg.iou_thresh, False)]


def set_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """NMS with the same-proposal skip: boxes sharing a proposal_id never
    suppress one another."""
    return [dets[i] for i in _greedy_keep(Detections.from_list(dets),
                                          cfg.iou_thresh, True)]


def soft_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Score-decay suppression.

    Linear mode multiplies same-class neighbors by (1 - IoU) when IoU is
    strictly above the threshold; gaussian mode multiplies by
    exp(-IoU^2 / sigma) for any overlap. Detections rescored below
    ``score_floor`` are dropped. Output carries the decayed scores, in
    descending rescored order.
    """
    keep, scores = _soft_keep(Detections.from_list(dets), cfg)
    return [replace(dets[i], score=s) for i, s in zip(keep, scores)]
