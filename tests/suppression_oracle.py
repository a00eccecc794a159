"""The suppression loops as they were before they shared the IoU kernel
in ``crowdset.geometry``, kept verbatim as oracles: the library must keep
the same indices in the same order and the same soft scores, bit for bit.
"""

from dataclasses import replace

import numpy as np

from crowdset.geometry import boxes_to_array
from crowdset.suppression import Detection, SuppressionConfig

# Gaussian Soft-NMS's decay width (Bodla et al., ICCV 2017).
SIGMA = 0.5


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
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    # Descending score, ties by ascending input index (stable sort).
    cand = np.argsort(-scores, kind="stable")
    keep = []
    while cand.size > 0:
        i = cand[0]
        keep.append(int(i))
        rest = cand[1:]
        if rest.size == 0:
            break
        ix1 = np.maximum(boxes[i, 0], boxes[rest, 0])
        iy1 = np.maximum(boxes[i, 1], boxes[rest, 1])
        ix2 = np.minimum(boxes[i, 2], boxes[rest, 2])
        iy2 = np.minimum(boxes[i, 3], boxes[rest, 3])
        iw = np.maximum(0.0, ix2 - ix1)
        ih = np.maximum(0.0, iy2 - iy1)
        inter = iw * ih
        union = areas[i] + areas[rest] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            ovr = np.where(union > 0.0, inter / union, 0.0)
        suppress = (ovr > iou_thresh) & (classes[rest] == classes[i])
        if respect_proposals:
            suppress &= pids[rest] != pids[i]
        cand = rest[~suppress]
    return keep


def soft_nms(dets: list[Detection], cfg: SuppressionConfig) -> list[Detection]:
    """Score-decay suppression.

    Linear mode multiplies same-class neighbors by (1 - IoU) when IoU is
    strictly above the threshold; gaussian mode multiplies by
    exp(-IoU^2 / SIGMA) for any overlap. Detections rescored below
    ``score_floor`` are dropped. Output carries the decayed scores, in
    descending rescored order.
    """
    boxes, scores, classes, _ = _to_arrays(dets)
    n = len(scores)
    if n == 0:
        return []
    gaussian = cfg.method == "soft_gaussian"
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
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
        ix1 = np.maximum(boxes[i, 0], boxes[rest, 0])
        iy1 = np.maximum(boxes[i, 1], boxes[rest, 1])
        ix2 = np.minimum(boxes[i, 2], boxes[rest, 2])
        iy2 = np.minimum(boxes[i, 3], boxes[rest, 3])
        iw = np.maximum(0.0, ix2 - ix1)
        ih = np.maximum(0.0, iy2 - iy1)
        inter = iw * ih
        union = areas[i] + areas[rest] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            ovr = np.where(union > 0.0, inter / union, 0.0)
        if gaussian:
            factor = np.exp(-(ovr * ovr) / SIGMA)
        else:
            factor = np.where(ovr > cfg.iou_thresh, 1.0 - ovr, 1.0)
        factor = np.where(classes[rest] == classes[i], factor, 1.0)
        w[rest] *= factor
        alive[rest[w[rest] < cfg.score_floor]] = False
    return [replace(dets[i], score=s) for i, s in picked]
