"""Greedy duplicate removal: classic NMS, Soft-NMS, and Set NMS.

Set NMS inserts one extra test into the greedy loop: a box never suppresses
another box that came from the same proposal, because a proposal's slot
predictions are distinct instances by construction. Detections carrying no
proposal identity (``proposal_id is None``) are treated as all-distinct, so
Set NMS degenerates to plain NMS on such inputs.

All four methods walk one sparse overlap graph instead of comparing every
pick with every surviving box:

* A sort-and-sweep on x1 finds the candidate pairs. Boxes are sorted by
  their left edge, and ``searchsorted`` on each box's right edge bounds the
  run of later boxes whose x-extent can intersect it. IoU is computed for
  those pairs only; every other pair has IoU exactly 0. The sweep works in
  chunks of a bounded number of pairs, so its temporaries stay small.
* An edge is kept only where the method would act on it: same class, and
  IoU above ``iou_thresh`` (above 0 for gaussian Soft-NMS, whose decay
  touches any overlap). Set NMS's same-proposal skip is one more edge mask,
  ``proposal ids differ``. The edges are stored both ways in CSR arrays.
* NMS and Set NMS make one greedy pass in descending-score order: a box
  still alive when reached is kept and kills its neighbours.
* Soft-NMS computes the decay factors once, over all edges. Its picks come
  from a lazy max-heap keyed ``(-score, index)``: scores only decay, so a
  popped entry whose key is stale is pushed back with the current score,
  and a fresh one is the maximum, ties to the lowest index as ``argmax``.

The output equals that of the dense loops bit for bit: a pair without an
edge has a decay factor of exactly 1, and the first pick still drops every
box already under ``score_floor``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import BBox, box_areas, boxes_to_array, iou_arrays

METHODS = ("nms", "soft_linear", "soft_gaussian", "set_nms")

# Candidate pairs per sweep chunk; bounds the sweep's temporary arrays.
_SWEEP_PAIRS = 1 << 14


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


def _to_arrays(dets: list[Detection]):
    boxes = boxes_to_array([d.box for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    # Anonymous detections get unique negative ids so they never compare
    # equal to each other or to explicit non-negative ids.
    pids = np.array(
        [d.proposal_id if d.proposal_id is not None else -(i + 1)
         for i, d in enumerate(dets)],
        dtype=np.int64,
    )
    return boxes, scores, classes, pids


def _overlap_graph(boxes, classes, pids, min_iou, respect_proposals):
    """Same-class pairs with IoU > ``min_iou`` (and, under
    ``respect_proposals``, different proposal ids) as a symmetric CSR graph:
    ``(indptr, neighbours, ious)``, where box i's neighbours are
    ``neighbours[indptr[i]:indptr[i + 1]]``."""
    n = len(boxes)
    areas = box_areas(boxes)
    order = np.argsort(boxes[:, 0], kind="stable")
    # A box later in x1 order can only intersect box p if it starts left of
    # p's right edge: positions p+1 .. end[p]-1.
    end = np.searchsorted(boxes[order, 0], boxes[order, 2], side="left")
    span = np.maximum(end - np.arange(n) - 1, 0)
    first = np.cumsum(span) - span  # where position p's pairs start
    empty = np.zeros(0, dtype=np.intp)
    src, dst, val = [empty], [empty], [np.zeros(0)]
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(first, first[lo] + _SWEEP_PAIRS)))
        counts = span[lo:hi]
        p = np.repeat(np.arange(lo, hi), counts)
        q = p + 1 + np.arange(len(p)) - np.repeat(first[lo:hi] - first[lo], counts)
        a, b = order[p], order[q]
        ov = iou_arrays(boxes[a], areas[a], boxes[b], areas[b])
        edge = (ov > min_iou) & (classes[a] == classes[b])
        if respect_proposals:
            edge &= pids[a] != pids[b]
        src.append(a[edge])
        dst.append(b[edge])
        val.append(ov[edge])
        lo = hi
    a = np.concatenate([*src, *dst])
    b = np.concatenate([*dst, *src]).astype(np.int32)
    v = np.concatenate([*val, *val])
    by_row = np.argsort(a, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    return indptr, b[by_row], v[by_row]


def _greedy_keep(boxes, scores, classes, pids, iou_thresh, respect_proposals):
    """Greedy suppression loop; returns kept input indices in keep order."""
    indptr, nbrs, _ = _overlap_graph(boxes, classes, pids, iou_thresh,
                                     respect_proposals)
    ptr = indptr.tolist()
    dead = np.zeros(len(scores), dtype=bool)
    keep = []
    # Descending score, ties by ascending input index (stable sort).
    for i in np.argsort(-scores, kind="stable").tolist():
        if not dead[i]:
            keep.append(i)
            dead[nbrs[ptr[i]:ptr[i + 1]]] = True
    return keep


def nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Classic greedy NMS: keep the top score, drop same-class boxes with
    IoU strictly above the threshold, repeat. Output is in descending-score
    order (score ties by input index)."""
    boxes, scores, classes, pids = _to_arrays(dets)
    keep = _greedy_keep(boxes, scores, classes, pids, cfg.iou_thresh,
                        respect_proposals=False)
    return [dets[i] for i in keep]


def set_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """NMS with the same-proposal skip: boxes sharing a proposal_id never
    suppress one another."""
    boxes, scores, classes, pids = _to_arrays(dets)
    keep = _greedy_keep(boxes, scores, classes, pids, cfg.iou_thresh,
                        respect_proposals=True)
    return [dets[i] for i in keep]


def soft_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Score-decay suppression.

    Linear mode multiplies same-class neighbors by (1 - IoU) when IoU is
    strictly above the threshold; gaussian mode multiplies by
    exp(-IoU^2 / sigma) for any overlap. Detections rescored below
    ``score_floor`` are dropped. Output carries the decayed scores, in
    descending rescored order.
    """
    boxes, scores, classes, pids = _to_arrays(dets)
    gaussian = cfg.method == "soft_gaussian"
    indptr, nbrs, ovr = _overlap_graph(
        boxes, classes, pids, 0.0 if gaussian else cfg.iou_thresh,
        respect_proposals=False)
    factor = np.exp(-(ovr * ovr) / cfg.sigma) if gaussian else 1.0 - ovr
    ptr = indptr.tolist()
    w = scores.copy()
    alive = np.ones(len(w), dtype=bool)
    heap = list(zip((-w).tolist(), range(len(w))))
    heapq.heapify(heap)
    picked: list[tuple[int, float]] = []
    while heap:
        key, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        wi = float(w[i])
        if wi != -key:  # decayed since it was pushed
            heapq.heappush(heap, (-wi, i))
            continue
        alive[i] = False
        picked.append((i, wi))
        nb = nbrs[ptr[i]:ptr[i + 1]]
        w[nb] *= factor[ptr[i]:ptr[i + 1]]
        if len(picked) == 1:
            # The floor applies to every box left after the first pick,
            # overlapping or not.
            alive &= w >= cfg.score_floor
        else:
            alive[nb[w[nb] < cfg.score_floor]] = False
    return [replace(dets[i], score=s) for i, s in picked]


def suppress(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Dispatch to the configured suppression method."""
    if cfg.method == "nms":
        return nms(dets, cfg)
    if cfg.method == "set_nms":
        return set_nms(dets, cfg)
    return soft_nms(dets, cfg)
