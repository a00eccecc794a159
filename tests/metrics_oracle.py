"""Reference implementations of the detection metrics, kept as test oracles.

These are the original per-metric loops: one greedy match per image for each
of AP, MR^-2 and the recall split, and a separate adjacency plus recursive
augmenting-path (Kuhn) search for the Jaccard index, each over a dense IoU
matrix per image. ``crowdset.metrics`` derives all of them from one sparse
pass over every image of a call; the tests require both to give identical
numbers. ``best_ji`` here is a brute force over :func:`jaccard_index` at
every distinct score, and ``density_stats`` the dense pair count.
``ranked_overlaps`` is the dense ranking rule that the sparse
``rank_pairs`` triplets must reproduce.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from crowdset.assignment import GroundTruth
from crowdset.geometry import boxes_to_array, iou_matrix
from crowdset.metrics import FPPI_HI, FPPI_LO, FPPI_POINTS, EvalConfig, RecallStats
from crowdset.scene_io import SceneRecord
from crowdset.suppression import Detection

CROWD_IOU = 0.5
TP, FP, IGNORED = 1, 0, -1

_MR_FLOOR = 1e-10


def ranked_overlaps(ious: np.ndarray, thresh: float) -> list[list[int]]:
    """For each row of a dense IoU matrix, the columns with IoU >=
    ``thresh``, highest IoU first and ties to the lowest column."""
    return [sorted(np.flatnonzero(row >= thresh).tolist(),
                   key=lambda j: (-row[j], j))
            for row in np.asarray(ious)]


def as_lists(ranked, n_rows: int) -> list[list[int]]:
    """``rank_pairs`` triplets ``(rows, cols, rank)`` as one column list per
    row, checking that the rows come sorted and that each row's ranks count
    0, 1, 2, ..."""
    rows, cols, rank = (a.tolist() for a in ranked)
    assert rows == sorted(rows)
    out = [[] for _ in range(n_rows)]
    for r, c, k in zip(rows, cols, rank):
        assert k == len(out[r])
        out[r].append(c)
    return out


@dataclass(frozen=True)
class MatchResult:
    """Per-detection TP/FP/ignored flags and per-GT matched flags, both in
    input order."""

    det_flags: np.ndarray   # int8: TP, FP, or IGNORED
    det_match: np.ndarray   # matched gt index, -1 when unmatched
    gt_matched: np.ndarray  # bool per input gt; ignored gts stay False


def match_greedy(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                 iou_thresh: float) -> MatchResult:
    """Greedily match detections to ground truths in descending score order.

    Each detection takes the unmatched, non-ignored, same-class ground truth
    with the highest IoU >= ``iou_thresh`` (TP); a detection whose only
    qualifying overlaps are ignored ground truths is flagged ignored;
    anything else is a FP. One ground truth matches at most one detection.
    """
    n_det, n_gt = len(dets), len(gts)
    det_flags = np.zeros(n_det, dtype=np.int8)
    det_match = np.full(n_det, -1, dtype=np.int64)
    gt_matched = np.zeros(n_gt, dtype=bool)
    if n_det == 0:
        return MatchResult(det_flags, det_match, gt_matched)
    ious = iou_matrix(boxes_to_array([d.box for d in dets]),
                      boxes_to_array([g.box for g in gts])) if n_gt else \
        np.zeros((n_det, 0))
    order = sorted(range(n_det), key=lambda i: (-dets[i].score, i))
    for i in order:
        det = dets[i]
        best_j, best_iou = -1, 0.0
        hits_ignored = False
        for j, gt in enumerate(gts):
            if gt.class_id != det.class_id or ious[i, j] < iou_thresh:
                continue
            if gt.ignore:
                hits_ignored = True
            elif not gt_matched[j] and (best_j == -1 or ious[i, j] > best_iou):
                best_j, best_iou = j, ious[i, j]
        if best_j >= 0:
            det_flags[i] = TP
            det_match[i] = best_j
            gt_matched[best_j] = True
        elif hits_ignored:
            det_flags[i] = IGNORED
        else:
            det_flags[i] = FP
    return MatchResult(det_flags, det_match, gt_matched)

def _count_real_gts(scenes: Iterable[SceneRecord]) -> int:
    return sum(1 for s in scenes for g in s.gts if not g.ignore)


def _sweep_flags(scenes: Sequence[SceneRecord], cfg: EvalConfig):
    """Global (score, is_tp) pairs sorted by descending score, ignored
    detections dropped."""
    scores, flags = [], []
    for scene in scenes:
        res = match_greedy(scene.dets, scene.gts, cfg.iou_thresh)
        for det, flag in zip(scene.dets, res.det_flags):
            if flag != IGNORED:
                scores.append(det.score)
                flags.append(flag == TP)
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    order = np.argsort(-scores, kind="stable")
    return scores[order], flags[order]


def average_precision(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Area under the precision-recall curve from a global descending-score
    sweep. Raises on a dataset without ground truths (AP is undefined, not 0)."""
    n_gt = _count_real_gts(scenes)
    if n_gt == 0:
        raise ValueError("average precision is undefined without ground truths")
    _, flags = _sweep_flags(scenes, cfg)
    if flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(~flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * envelope))


def mr2(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Log-average miss rate at FPPI_POINTS log-spaced FPPI sample points
    in [FPPI_LO, FPPI_HI].

    The miss-rate/FPPI curve is swept from the highest score down, starting
    at the empty prediction set (FPPI 0, miss rate 1). At each sample point
    the lowest miss rate with FPPI within budget is taken; miss rates are
    clamped to 1e-10 inside the log average.
    """
    n_images = len(scenes)
    n_gt = _count_real_gts(scenes)
    if n_images == 0 or n_gt == 0:
        raise ValueError("miss rate needs at least one image and one ground truth")
    _, flags = _sweep_flags(scenes, cfg)
    tp_cum = np.cumsum(flags) if flags.size else np.zeros(0)
    fp_cum = np.cumsum(~flags) if flags.size else np.zeros(0)
    fppi = np.concatenate(([0.0], fp_cum / n_images))
    miss = np.concatenate(([1.0], 1.0 - tp_cum / n_gt))
    refs = np.logspace(math.log10(FPPI_LO), math.log10(FPPI_HI), FPPI_POINTS)
    samples = []
    for ref in refs:
        within = miss[fppi <= ref]
        samples.append(within.min() if within.size else miss[0])
    logs = np.log(np.maximum(np.asarray(samples), _MR_FLOOR))
    return float(np.exp(logs.mean()))


def _augment(u: int, adj: list[list[int]], match_right: list[int],
             seen: list[bool]) -> bool:
    """One augmenting-path search from left vertex ``u`` (Kuhn's algorithm)."""
    for v in adj[u]:
        if seen[v]:
            continue
        seen[v] = True
        if match_right[v] == -1 or _augment(match_right[v], adj, match_right, seen):
            match_right[v] = u
            return True
    return False


def _build_adjacency(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                     iou_thresh: float) -> tuple[list[list[int]], int]:
    """Edges between detections and matchable (non-ignored, same-class)
    ground truths with IoU >= threshold."""
    real = [(j, g) for j, g in enumerate(gts) if not g.ignore]
    if not dets or not real:
        return [[] for _ in dets], len(real)
    ious = iou_matrix(boxes_to_array([d.box for d in dets]),
                      boxes_to_array([g.box for _, g in real]))
    adj = []
    for i, det in enumerate(dets):
        adj.append([jj for jj, (_, g) in enumerate(real)
                    if g.class_id == det.class_id and ious[i, jj] >= iou_thresh])
    return adj, len(real)


def _match_count(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                 cfg: EvalConfig) -> int:
    """Maximum matching cardinality between detections and real ground
    truths, by augmenting paths."""
    adj, n_right = _build_adjacency(dets, gts, cfg.iou_thresh)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    match_right = [-1] * n_right
    count = 0
    for i in order:
        seen = [False] * n_right
        if _augment(i, adj, match_right, seen):
            count += 1
    return count


def jaccard_index(scenes: Sequence[SceneRecord], cfg: EvalConfig,
                  score_threshold: float) -> float:
    """Dataset-level Jaccard index at one confidence threshold.

    Per image, detections scoring >= threshold are matched one-to-one against
    non-ignored ground truths (maximum matching by default); the index is
    sum(matches) / (sum(dets) + sum(gts) - sum(matches)). A dataset with no
    detections and no ground truths scores 1.0 (vacuous agreement).
    """
    if math.isnan(score_threshold):
        raise ValueError("score_threshold must not be NaN")
    total_m = total_d = total_g = 0
    for scene in scenes:
        dets = [d for d in scene.dets if d.score >= score_threshold]
        total_m += _match_count(dets, scene.gts, cfg)
        total_d += len(dets)
        total_g += sum(1 for g in scene.gts if not g.ignore)
    if total_d + total_g == 0:
        return 1.0
    return total_m / (total_d + total_g - total_m)


def crowd_flags(gts: Sequence[GroundTruth], crowd_iou: float = CROWD_IOU) -> np.ndarray:
    """Boolean flag per ground truth: True when another non-ignored ground
    truth in the image overlaps it with IoU strictly above ``crowd_iou``."""
    flags = np.zeros(len(gts), dtype=bool)
    real = [(j, g) for j, g in enumerate(gts) if not g.ignore]
    if len(real) < 2:
        return flags
    boxes = boxes_to_array([g.box for _, g in real])
    ious = iou_matrix(boxes, boxes)
    np.fill_diagonal(ious, 0.0)
    for row, (j, _) in enumerate(real):
        flags[j] = bool((ious[row] > crowd_iou).any())
    return flags


def recall_split(scenes: Sequence[SceneRecord], cfg: EvalConfig,
                 score_threshold: float,
                 crowd_iou: float = CROWD_IOU) -> tuple[RecallStats, RecallStats, RecallStats]:
    """Recall of crowd vs. sparse ground truths at one confidence threshold.

    Returns (total, sparse, crowd) counts; matched flags come from
    :func:`match_greedy` on the thresholded detections.
    """
    matched = {"sparse": 0, "crowd": 0}
    total = {"sparse": 0, "crowd": 0}
    for scene in scenes:
        dets = [d for d in scene.dets if d.score >= score_threshold]
        res = match_greedy(dets, scene.gts, cfg.iou_thresh)
        crowd = crowd_flags(scene.gts, crowd_iou)
        for j, g in enumerate(scene.gts):
            if g.ignore:
                continue
            key = "crowd" if crowd[j] else "sparse"
            total[key] += 1
            if res.gt_matched[j]:
                matched[key] += 1
    sparse = RecallStats(matched["sparse"], total["sparse"])
    crowd_ = RecallStats(matched["crowd"], total["crowd"])
    total_ = RecallStats(sparse.matched + crowd_.matched, sparse.total + crowd_.total)
    return total_, sparse, crowd_



def best_ji(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> tuple[float, float]:
    """First maximum of :func:`jaccard_index` over +inf, then every distinct
    detection score in descending order."""
    scores = sorted({d.score for s in scenes for d in s.dets}, reverse=True)
    best_val, best_thr = -1.0, math.inf
    for thr in [math.inf] + scores:
        val = jaccard_index(scenes, cfg, thr)
        if val > best_val:
            best_val, best_thr = val, thr
    return best_val, best_thr


def density_stats(scenes: Sequence[SceneRecord], crowd_iou: float = CROWD_IOU):
    """(mean non-ignored ground truths, mean ground-truth pairs with IoU
    strictly above ``crowd_iou``) per image, from one IoU matrix each."""
    if not scenes:
        return 0.0, 0.0
    n_obj = n_pairs = 0
    for scene in scenes:
        real = [g for g in scene.gts if not g.ignore]
        n_obj += len(real)
        if len(real) >= 2:
            ious = iou_matrix(boxes_to_array([g.box for g in real]),
                              boxes_to_array([g.box for g in real]))
            n_pairs += int((ious[np.triu_indices(len(real), k=1)] > crowd_iou).sum())
    return n_obj / len(scenes), n_pairs / len(scenes)
