"""Greedy duplicate removal: classic NMS, Soft-NMS, and Set NMS.

Set NMS inserts one extra test into the greedy loop: a box never suppresses
another box that came from the same proposal, because a proposal's slot
predictions are distinct instances by construction. Detections carrying no
proposal identity (``proposal_id is None``) are treated as all-distinct, so
Set NMS degenerates to plain NMS on such inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import BBox, box_areas, boxes_to_array, iou_arrays

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


def _greedy_keep(boxes, scores, classes, pids, iou_thresh, respect_proposals):
    """Greedy suppression loop; returns kept input indices in keep order."""
    n = len(scores)
    if n == 0:
        return []
    areas = box_areas(boxes)
    # Descending score, ties by ascending input index (stable sort).
    cand = np.argsort(-scores, kind="stable")
    keep = []
    while cand.size > 0:
        i = cand[0]
        keep.append(int(i))
        rest = cand[1:]
        if rest.size == 0:
            break
        ovr = iou_arrays(boxes[i], areas[i], boxes[rest], areas[rest])
        suppress = (ovr > iou_thresh) & (classes[rest] == classes[i])
        if respect_proposals:
            suppress &= pids[rest] != pids[i]
        cand = rest[~suppress]
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
    boxes, scores, classes, _ = _to_arrays(dets)
    n = len(scores)
    if n == 0:
        return []
    gaussian = cfg.method == "soft_gaussian"
    areas = box_areas(boxes)
    w = scores.copy()
    alive = np.ones(n, dtype=bool)
    picked: list[tuple[int, float]] = []
    while alive.any():
        i = int(np.argmax(np.where(alive, w, -1.0)))
        alive[i] = False
        picked.append((i, float(w[i])))
        rest = np.nonzero(alive)[0]
        if rest.size == 0:
            break
        ovr = iou_arrays(boxes[i], areas[i], boxes[rest], areas[rest])
        if gaussian:
            factor = np.exp(-(ovr * ovr) / cfg.sigma)
        else:
            factor = np.where(ovr > cfg.iou_thresh, 1.0 - ovr, 1.0)
        factor = np.where(classes[rest] == classes[i], factor, 1.0)
        w[rest] *= factor
        alive[rest[w[rest] < cfg.score_floor]] = False
    return [replace(dets[i], score=s) for i, s in picked]


def suppress(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Dispatch to the configured suppression method."""
    if cfg.method == "nms":
        return nms(dets, cfg)
    if cfg.method == "set_nms":
        return set_nms(dets, cfg)
    return soft_nms(dets, cfg)

