"""Axis-aligned box geometry: IoU and box-regression delta transforms.

Boxes live in corner form (x1, y1, x2, y2) with real pixel coordinates.
A box is valid when its coordinates are finite, it is not inverted, and
twice its area is finite (:class:`BBox` and :func:`invalid_boxes` hold the
rule). The area bound keeps the intersection and union of any two valid
boxes finite, so both IoU kernels agree on them. Zero-area boxes are legal
inputs to IoU (the result is 0) but are rejected as proposals or targets
for delta encoding, where log-size ratios must stay finite.

IoU arithmetic lives in two kernels that compute the same numbers:

* :func:`iou_arrays` broadcasts box arrays against each other, with areas
  supplied by the caller so that repeated calls over one box set compute
  them once: the overlap engine gathers its candidate pairs into
  aligned arrays, and scene generation scores candidate boxes against the
  placed ones. :func:`iou_matrix` is its public all-pairs wrapper; no code
  in the package calls it.
* :func:`iou_xyxy` takes one pair of coordinate tuples (:func:`iou` one
  pair of :class:`BBox`): its callers ask for one pair at a time (scene
  generation, ``GtSet`` validation), and numpy's fixed per-call overhead
  costs over ten times the scalar arithmetic on a single pair.

:func:`overlaps` is the one overlap engine for many boxes. It walks
:func:`sweep_pairs`, a sort-and-sweep on x1 that lists the pairs whose
x-extents intersect (every other pair has IoU exactly 0) in chunks of at
most ``_SWEEP_PAIRS``, drops the pairs whose y-extents do not intersect
(their IoU is 0 too), computes the IoU of the rest and keeps the pairs the
caller's mask accepts. Suppression runs it on one image's detections, the
evaluator on every image's detections against ground truths and ground
truths against each other.

:func:`rank_order` is the one ranking rule, highest IoU first and ties to
the lowest column. It ranks the pairs of a sweep: the evaluator's
detection/ground-truth pairs (``metrics.PairSet``) and, through
:func:`rank_pairs`, ground-truth set construction
(``assignment.gt_set_members``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Candidate pairs per sweep chunk; bounds the sweep's temporary arrays.
_SWEEP_PAIRS = 1 << 14


class GeometryError(ValueError):
    """A box cannot be used in the requested geometric transform."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle in absolute pixel coordinates, corner form."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise GeometryError(f"non-finite box coordinates: {self}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise GeometryError(f"inverted box: {self}")
        if not math.isfinite(2.0 * self.area):
            raise GeometryError(f"box area overflows: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + 0.5 * self.width, self.y1 + 0.5 * self.height)

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class BoxDelta:
    """Dimensionless regression offsets: center shift normalized by proposal
    size plus log size ratios."""

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dx, self.dy, self.dw, self.dh)):
            raise GeometryError(f"non-finite delta: {self}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.dx, self.dy, self.dw, self.dh)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0 when the union has zero area."""
    return iou_xyxy(a.as_tuple(), b.as_tuple())


def iou_xyxy(a: tuple, b: tuple) -> float:
    """:func:`iou` of two (x1, y1, x2, y2) tuples of floats."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_areas(boxes: np.ndarray) -> np.ndarray:
    """Areas of corner-form boxes along the last axis."""
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


def invalid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Per row of (N, 4) corner-form boxes: whether it breaks the box rule
    of :class:`BBox` (a coordinate not finite, inverted, or twice its area
    not finite), with numpy's overflow warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] < boxes[:, 0])
                | (boxes[:, 3] < boxes[:, 1])
                | ~np.isfinite(2.0 * box_areas(boxes)))


def iou_arrays(a: np.ndarray, area_a: np.ndarray,
               b: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """IoU of boxes ``a`` against boxes ``b`` under numpy broadcasting.

    ``a`` and ``b`` hold corner-form boxes along their last axis and
    ``area_a``/``area_b`` their :func:`box_areas`; the result has the
    broadcast shape of the areas. Entries with zero union area are 0.
    The gap between two valid boxes far apart may overflow to -inf; it
    clips to 0 without a warning.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2])
                        - np.maximum(a[..., 0], b[..., 0]))
        ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3])
                        - np.maximum(a[..., 1], b[..., 1]))
        inter = iw * ih
        union = area_a + area_b - inter
        return np.where(union > 0.0, inter / union, 0.0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box sets.

    Args:
        boxes_a: (N, 4) corner-form boxes.
        boxes_b: (M, 4) corner-form boxes.

    Returns:
        (N, M) IoU matrix; entries with zero union area are 0.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return iou_arrays(a[:, None, :], box_areas(a)[:, None],
                      b[None, :, :], box_areas(b)[None, :])


def _x_keys(boxes: np.ndarray, col: int, groups) -> np.ndarray:
    """Sweep keys of one box edge: the x coordinate, or (group, x) pairs as
    complex numbers, which numpy sorts and searches lexicographically."""
    if groups is None:
        return boxes[:, col]
    keys = np.empty(len(boxes), dtype=np.complex128)
    keys.real, keys.imag = groups, boxes[:, col]
    return keys


def _range_pairs(lo: np.ndarray, hi: np.ndarray, chunk: int):
    """Chunks ``(p, q)`` holding every q in ``[lo[p], hi[p])`` for each p.
    A chunk stops at the first p whose run starts ``chunk`` pairs in, so it
    overshoots ``chunk`` by at most one run."""
    span = np.maximum(hi - lo, 0)
    first = np.cumsum(span) - span  # where position p's pairs start
    n, s = len(span), 0
    while s < n:
        e = max(s + 1, int(np.searchsorted(first, first[s] + chunk)))
        counts = span[s:e]
        p = np.repeat(np.arange(s, e), counts)
        q = np.arange(len(p)) + np.repeat(lo[s:e] - first[s:e] + first[s], counts)
        yield p, q
        s = e


def sweep_pairs(a: np.ndarray, groups_a=None,
                b: np.ndarray | None = None, groups_b=None):
    """Every pair of boxes whose x-extents intersect, by a sort-and-sweep on
    x1; every other pair has IoU 0.

    Yields chunks ``(i, j)`` of index arrays, about ``_SWEEP_PAIRS`` pairs
    each, so the caller's temporaries stay bounded. Without ``b``, each
    unordered pair of distinct boxes of ``a`` whose x-extents intersect
    comes once; with ``b``, each such pair of a box ``i`` of ``a`` and a box
    ``j`` of ``b``. With ``groups_a`` (and, with ``b``, ``groups_b``: both
    or neither, else ValueError), integer group ids such as image indices,
    only boxes of one group pair up. Boxes whose x-extents only touch are
    not paired; their IoU is 0. A box of zero width is paired with the
    boxes whose x-extent holds its x1, although the two meet in no
    interval of positive width; y is not looked at.

    Boxes are sorted by (group, x1), and ``searchsorted`` on a box's edges
    bounds the run of boxes whose left edge falls inside its x-extent. Every
    pair whose x-extents intersect has one box's left edge inside the other
    box's extent: within one set that is the later box in x1 order; between
    two sets ``a`` claims the ``b`` boxes with x1 in ``[x1, x2)`` and ``b``
    the ``a`` boxes with x1 in ``(x1, x2)``, so no pair comes twice.
    """
    if b is not None and (groups_a is None) != (groups_b is None):
        raise ValueError("groups_a and groups_b must be given together")
    if b is None:
        keys = _x_keys(a, 0, groups_a)
        order = np.argsort(keys, kind="stable")
        end = np.searchsorted(keys[order], _x_keys(a, 2, groups_a)[order],
                              side="left")
        for p, q in _range_pairs(np.arange(1, len(a) + 1), end, _SWEEP_PAIRS):
            yield order[p], order[q]
        return
    for x, gx, y, gy, side, flip in ((a, groups_a, b, groups_b, "left", False),
                                     (b, groups_b, a, groups_a, "right", True)):
        keys = _x_keys(y, 0, gy)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        lo = np.searchsorted(keys, _x_keys(x, 0, gx), side=side)
        hi = np.searchsorted(keys, _x_keys(x, 2, gx), side="left")
        for p, q in _range_pairs(lo, hi, _SWEEP_PAIRS):
            yield (order[q], p) if flip else (p, order[q])


def _y_edges(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(y1, y2)`` for the y-test of :func:`overlaps`, with y1 = +inf for a
    box of zero width: the x-sweep pairs such a box with the boxes around
    it, but it meets none of them in x, and an infinite y1 fails it."""
    return np.where(boxes[:, 2] > boxes[:, 0], boxes[:, 1], np.inf), boxes[:, 3]


def overlaps(a: np.ndarray, keep, groups_a=None,
             b: np.ndarray | None = None, groups_b=None):
    """``(i, j, ious, swept)``: the pairs of :func:`sweep_pairs` (same
    arguments) that ``keep(i, j, ious)``, a mask over one chunk, accepts, as
    aligned arrays in sweep order; and ``swept``, the number of pairs the
    x-sweep listed.

    ``keep`` sees only the pairs whose boxes intersect in both axes, each in
    an interval of positive length: the sweep's pairs whose y-extents do
    not intersect, or that hold a box of zero width, have IoU 0 and are
    dropped before the IoU is computed. So a ``keep`` that rejects IoU 0
    gets the same pairs as over every pair of the sweep."""
    other = a if b is None else b
    area_a = box_areas(a)
    area_b = area_a if b is None else box_areas(b)
    top_a, bottom_a = _y_edges(a)
    top_b, bottom_b = (top_a, bottom_a) if b is None else _y_edges(b)
    empty = np.zeros(0, dtype=np.intp)
    firsts, seconds, values = [empty], [empty], [np.zeros(0)]
    swept = 0
    for i, j in sweep_pairs(a, groups_a, b, groups_b):
        swept += len(i)
        meet = (np.minimum(bottom_a[i], bottom_b[j])
                > np.maximum(top_a[i], top_b[j]))
        i, j = i[meet], j[meet]
        ious = iou_arrays(a[i], area_a[i], other[j], area_b[j])
        hit = keep(i, j, ious)
        firsts.append(i[hit])
        seconds.append(j[hit])
        values.append(ious[hit])
    return (np.concatenate(firsts), np.concatenate(seconds),
            np.concatenate(values), swept)


def rank_order(rows: np.ndarray, cols: np.ndarray, ious: np.ndarray
               ) -> np.ndarray:
    """The permutation that sorts the (row, col, IoU) triplets by row, then
    highest IoU first and ties to the lowest column."""
    return np.lexsort((cols, -ious, rows))


def rank_pairs(rows: np.ndarray, cols: np.ndarray, ious: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, rank)``: the (row, col, IoU) triplets in
    :func:`rank_order`, with ``rank`` each pair's position within its row."""
    order = rank_order(rows, cols, ious)
    rows, cols = rows[order], cols[order]
    return rows, cols, np.arange(len(rows)) - np.searchsorted(rows, rows)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack BBox objects into an (N, 4) float array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def encode_delta(proposal: BBox, target: BBox) -> BoxDelta:
    """Encode ``target`` relative to ``proposal`` as regression offsets.

    Both boxes must have positive width and height, otherwise the
    normalized shifts and log ratios are undefined.
    """
    pw, ph = proposal.width, proposal.height
    if pw <= 0.0 or ph <= 0.0:
        raise GeometryError(f"proposal has non-positive size: {proposal}")
    tw, th = target.width, target.height
    if tw <= 0.0 or th <= 0.0:
        raise GeometryError(f"target has non-positive size: {target}")
    px, py = proposal.center
    tx, ty = target.center
    return BoxDelta(
        dx=(tx - px) / pw,
        dy=(ty - py) / ph,
        dw=math.log(tw / pw),
        dh=math.log(th / ph),
    )


def decode_delta(proposal: BBox, delta: BoxDelta) -> BBox:
    """Apply regression offsets to a proposal; exact inverse of
    :func:`encode_delta`."""
    pw, ph = proposal.width, proposal.height
    if pw <= 0.0 or ph <= 0.0:
        raise GeometryError(f"proposal has non-positive size: {proposal}")
    px, py = proposal.center
    cx = px + delta.dx * pw
    cy = py + delta.dy * ph
    w = pw * math.exp(delta.dw)
    h = ph * math.exp(delta.dh)
    return BBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
