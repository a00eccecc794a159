"""Detection evaluation: average precision, log-average miss rate, Jaccard
index with best-threshold search, and crowd/sparse recall splits.

All metrics run at a single IoU threshold (default 0.5). Ignored ground
truths never enter a denominator; detections whose only qualifying overlap
is an ignored ground truth are excluded from the precision/recall sweeps.

Every metric reads one pass per image (:func:`_match_image`). The pass
computes one IoU matrix between the image's detections and ground truths,
lists for each detection the non-ignored, same-class ground truths with
IoU >= threshold (highest IoU first, then lowest index), and admits the
detections in rank order (descending score, ties by input index) into two
walks over those lists:

* the greedy walk: a detection takes its first unmatched candidate (TP),
  else is IGNORED when it overlaps an ignored ground truth, else is a FP;
* the maximum-matching walk: a detection searches one augmenting path
  (Kuhn's algorithm, iterative), so the matching of the top n detections is
  maximum for every n, and the per-rank gain says whether it grew.

Neither walk's decision for a detection depends on lower-ranked detections,
so keeping only the detections that score >= t gives a prefix of the pass
for every threshold t. AP and MR^-2 sweep the greedy flags of all images;
:func:`jaccard_index` sums the gains of each image's prefix (greedy-mode JI
matches as the greedy walk does, so its gains are the TP flags);
:func:`best_ji` scans every prefix end at once; and :func:`recall_split`
counts a ground truth as found when its greedy match scores >= t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .assignment import GroundTruth
from .geometry import boxes_to_array, iou_matrix
from .scene_io import SceneRecord
from .suppression import Detection

# A ground truth is "crowd" when another ground truth in the same image
# overlaps it beyond this IoU; everything else is "sparse".
CROWD_IOU = 0.5

# Flag values used by match_greedy.
TP, FP, IGNORED = 1, 0, -1

_MR_FLOOR = 1e-10


@dataclass(frozen=True)
class EvalConfig:
    iou_thresh: float = 0.5
    fppi_lo: float = 1e-2
    fppi_hi: float = 1e2
    fppi_points: int = 9
    ap_interpolation: str = "all_points"   # or "eleven_point"
    ji_matching: str = "optimal"           # or "greedy"

    def __post_init__(self):
        if not 0.0 < self.iou_thresh < 1.0:
            raise ValueError(f"iou_thresh must be in (0, 1), got {self.iou_thresh}")
        if not self.fppi_lo < self.fppi_hi:
            raise ValueError("fppi_lo must be < fppi_hi")
        if self.fppi_points < 2:
            raise ValueError("fppi_points must be >= 2")
        if self.ap_interpolation not in ("all_points", "eleven_point"):
            raise ValueError(f"unknown ap_interpolation {self.ap_interpolation!r}")
        if self.ji_matching not in ("optimal", "greedy"):
            raise ValueError(f"unknown ji_matching {self.ji_matching!r}")


@dataclass(frozen=True)
class RecallStats:
    matched: int
    total: int

    @property
    def ratio(self) -> float:
        return self.matched / self.total if self.total else 0.0


@dataclass(frozen=True)
class EvalReport:
    ap: float
    mr2: float
    ji: float
    ji_best_threshold: float
    recall_total: RecallStats
    recall_sparse: RecallStats
    recall_crowd: RecallStats


@dataclass(frozen=True)
class MatchResult:
    """Per-detection TP/FP/ignored flags and per-GT matched flags, both in
    input order."""

    det_flags: np.ndarray   # int8: TP, FP, or IGNORED
    det_match: np.ndarray   # matched gt index, -1 when unmatched
    gt_matched: np.ndarray  # bool per input gt; ignored gts stay False


@dataclass(frozen=True)
class _ImageMatch:
    """One image's pass; see the module docstring."""

    scores: np.ndarray    # float64 per detection, input order
    order: np.ndarray     # detection index at each rank
    greedy: MatchResult
    gains: np.ndarray     # int64 per rank: 1 where the maximum matching grew


def _augment(root: int, adj: list[list[int]], match_right: list[int]) -> bool:
    """Search one augmenting path from left vertex ``root`` (Kuhn's
    algorithm) and flip it into ``match_right``. Iterative, so the path
    length is not bounded by the interpreter's recursion limit."""
    seen = set()
    stack = [(root, iter(adj[root]))]
    via: list[int] = []   # via[t]: right vertex that led to stack[t + 1]
    while stack:
        v = next((v for v in stack[-1][1] if v not in seen), -1)
        if v < 0:
            stack.pop()
            if via:
                via.pop()
            continue
        seen.add(v)
        if match_right[v] == -1:
            for (left, _), right in zip(stack, via + [v]):
                match_right[right] = left
            return True
        via.append(v)
        stack.append((match_right[v], iter(adj[match_right[v]])))
    return False


def _max_matching_gains(adj: list[list[int]], order: Iterable[int],
                        n_right: int) -> np.ndarray:
    """Admit left vertices in ``order``, augmenting from each; 1 at each
    rank where the matching grew. The matching stays maximum at every
    prefix, so the gains summed over the first n ranks are the maximum
    matching size of the first n vertices."""
    match_right = [-1] * n_right
    return np.array([_augment(u, adj, match_right) for u in order],
                    dtype=np.int64)


def _match_image(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                 iou_thresh: float) -> _ImageMatch:
    """Candidate lists from one IoU matrix, then the greedy walk and the
    maximum-matching walk over them in rank order."""
    n_det, n_gt = len(dets), len(gts)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ignore = np.array([g.ignore for g in gts], dtype=bool)
    ious = iou_matrix(boxes_to_array([d.box for d in dets]),
                      boxes_to_array([g.box for g in gts]))
    same_class = (np.array([d.class_id for d in dets])[:, None]
                  == np.array([g.class_id for g in gts])[None, :])
    qualifies = (ious >= iou_thresh) & same_class
    hits_ignored = (qualifies & ignore).any(axis=1)
    rows, cols = np.nonzero(qualifies & ~ignore)
    by_iou = np.lexsort((cols, -ious[rows, cols], rows))
    adj: list[list[int]] = [[] for _ in range(n_det)]
    for i, j in zip(rows[by_iou].tolist(), cols[by_iou].tolist()):
        adj[i].append(j)

    ranked = order.tolist()
    det_match = [-1] * n_det
    taken = [False] * n_gt
    for i in ranked:
        for j in adj[i]:
            if not taken[j]:
                taken[j] = True
                det_match[i] = j
                break
    det_match = np.array(det_match, dtype=np.int64)
    det_flags = np.where(det_match >= 0, TP,
                         np.where(hits_ignored, IGNORED, FP)).astype(np.int8)
    greedy = MatchResult(det_flags, det_match, np.array(taken, dtype=bool))
    return _ImageMatch(scores, order, greedy,
                       _max_matching_gains(adj, ranked, n_gt))


def match_greedy(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                 iou_thresh: float) -> MatchResult:
    """Greedily match detections to ground truths in descending score order.

    Each detection takes the unmatched, non-ignored, same-class ground truth
    with the highest IoU >= ``iou_thresh`` (TP); a detection whose only
    qualifying overlaps are ignored ground truths is flagged ignored;
    anything else is a FP. One ground truth matches at most one detection.
    """
    return _match_image(dets, gts, iou_thresh).greedy


def _count_real_gts(scenes: Iterable[SceneRecord]) -> int:
    return sum(1 for s in scenes for g in s.gts if not g.ignore)


def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class _Evaluation:
    """Every image of a dataset matched once; each metric is a view."""

    def __init__(self, scenes: Sequence[SceneRecord], cfg: EvalConfig):
        self.scenes = scenes
        self.cfg = cfg
        self.n_gt = _count_real_gts(scenes)
        self.images = [_match_image(s.dets, s.gts, cfg.iou_thresh)
                       for s in scenes]

    def _sweep(self) -> np.ndarray:
        """Global is-TP flags sorted by descending score, ignored detections
        dropped."""
        kept = [m.greedy.det_flags != IGNORED for m in self.images]
        scores = _cat([m.scores[k] for m, k in zip(self.images, kept)], np.float64)
        flags = _cat([m.greedy.det_flags[k] == TP
                      for m, k in zip(self.images, kept)], bool)
        return flags[np.argsort(-scores, kind="stable")]

    def average_precision(self) -> float:
        if self.n_gt == 0:
            raise ValueError("average precision is undefined without ground truths")
        flags = self._sweep()
        if flags.size == 0:
            return 0.0
        tp_cum = np.cumsum(flags)
        fp_cum = np.cumsum(~flags)
        recall = tp_cum / self.n_gt
        precision = tp_cum / (tp_cum + fp_cum)
        if self.cfg.ap_interpolation == "eleven_point":
            vals = []
            for t in np.linspace(0.0, 1.0, 11):
                mask = recall >= t
                vals.append(float(precision[mask].max()) if mask.any() else 0.0)
            return float(np.mean(vals))
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        prev_recall = np.concatenate(([0.0], recall[:-1]))
        return float(np.sum((recall - prev_recall) * envelope))

    def mr2(self) -> float:
        n_images, n_gt, cfg = len(self.scenes), self.n_gt, self.cfg
        if n_images == 0 or n_gt == 0:
            raise ValueError("miss rate needs at least one image and one ground truth")
        flags = self._sweep()
        tp_cum = np.cumsum(flags) if flags.size else np.zeros(0)
        fp_cum = np.cumsum(~flags) if flags.size else np.zeros(0)
        fppi = np.concatenate(([0.0], fp_cum / n_images))
        miss = np.concatenate(([1.0], 1.0 - tp_cum / n_gt))
        refs = np.logspace(math.log10(cfg.fppi_lo), math.log10(cfg.fppi_hi),
                           cfg.fppi_points)
        samples = []
        for ref in refs:
            within = miss[fppi <= ref]
            samples.append(within.min() if within.size else miss[0])
        logs = np.log(np.maximum(np.asarray(samples), _MR_FLOOR))
        return float(np.exp(logs.mean()))

    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores and JI matching gains of all images, each image in rank
        order."""
        greedy = self.cfg.ji_matching == "greedy"
        scores = _cat([m.scores[m.order] for m in self.images], np.float64)
        gains = _cat([(m.greedy.det_flags[m.order] == TP).astype(np.int64)
                      if greedy else m.gains for m in self.images], np.int64)
        return scores, gains

    def jaccard_index(self, score_threshold: float) -> float:
        scores, gains = self._ranked()
        kept = scores >= score_threshold
        m, d = int(gains[kept].sum()), int(kept.sum())
        if d + self.n_gt == 0:
            return 1.0
        return m / (d + self.n_gt - m)

    def best_ji(self) -> tuple[float, float]:
        scores, gains = self._ranked()
        # Empty-set candidate at threshold +inf.
        best_val = 1.0 if self.n_gt == 0 else 0.0
        best_thr = math.inf
        if scores.size:
            order = np.argsort(-scores, kind="stable")
            s_sorted = scores[order]
            m_cum = np.cumsum(gains[order])
            # Evaluate once per distinct score, after all ties are admitted;
            # m <= min(d, n_gt) keeps every denominator >= 1.
            ends = np.append(np.nonzero(np.diff(s_sorted))[0], scores.size - 1)
            m = m_cum[ends]
            vals = m / (ends + 1 + self.n_gt - m)
            k = int(np.argmax(vals))   # first maximum: the highest threshold
            if vals[k] > best_val:
                best_val, best_thr = float(vals[k]), float(s_sorted[ends[k]])
        return best_val, best_thr

    def recall_split(self, score_threshold: float, crowd_iou: float
                     ) -> tuple[RecallStats, RecallStats, RecallStats]:
        real, crowd, found = [], [], []
        for scene, m in zip(self.scenes, self.images):
            hit = np.zeros(len(scene.gts), dtype=bool)
            at = m.greedy.det_match[m.scores >= score_threshold]
            hit[at[at >= 0]] = True
            real.append(np.array([not g.ignore for g in scene.gts], dtype=bool))
            crowd.append(crowd_flags(scene.gts, crowd_iou))
            found.append(hit)
        real, crowd, found = (_cat(x, bool) for x in (real, crowd, found))

        def stats(mask: np.ndarray) -> RecallStats:
            return RecallStats(int((found & mask).sum()), int(mask.sum()))

        sparse, crowd_ = stats(real & ~crowd), stats(real & crowd)
        total = RecallStats(sparse.matched + crowd_.matched,
                            sparse.total + crowd_.total)
        return total, sparse, crowd_


def average_precision(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Area under the precision-recall curve from a global descending-score
    sweep. Raises on a dataset without ground truths (AP is undefined, not 0)."""
    return _Evaluation(scenes, cfg).average_precision()


def mr2(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Log-average miss rate over log-spaced FPPI sample points.

    The miss-rate/FPPI curve is swept from the highest score down, starting
    at the empty prediction set (FPPI 0, miss rate 1). At each sample point
    the lowest miss rate with FPPI within budget is taken; miss rates are
    clamped to 1e-10 inside the log average.
    """
    return _Evaluation(scenes, cfg).mr2()


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
    return _Evaluation(scenes, cfg).jaccard_index(score_threshold)


def best_ji(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> tuple[float, float]:
    """Best Jaccard index over every distinct detection score, plus +inf for
    the empty set; ties return the highest threshold. Agrees exactly with
    :func:`jaccard_index` evaluated at each threshold."""
    return _Evaluation(scenes, cfg).best_ji()


def crowd_flags(gts: Sequence[GroundTruth], crowd_iou: float = CROWD_IOU) -> np.ndarray:
    """Boolean flag per ground truth: True when another non-ignored ground
    truth in the image overlaps it with IoU strictly above ``crowd_iou``."""
    flags = np.zeros(len(gts), dtype=bool)
    real = [j for j, g in enumerate(gts) if not g.ignore]
    if len(real) < 2:
        return flags
    boxes = boxes_to_array([gts[j].box for j in real])
    ious = iou_matrix(boxes, boxes)
    np.fill_diagonal(ious, 0.0)
    flags[real] = (ious > crowd_iou).any(axis=1)
    return flags


def recall_split(scenes: Sequence[SceneRecord], cfg: EvalConfig,
                 score_threshold: float,
                 crowd_iou: float = CROWD_IOU) -> tuple[RecallStats, RecallStats, RecallStats]:
    """Recall of crowd vs. sparse ground truths at one confidence threshold.

    Returns (total, sparse, crowd) counts; matched flags are those of
    :func:`match_greedy` on the thresholded detections.
    """
    return _Evaluation(scenes, cfg).recall_split(score_threshold, crowd_iou)


def evaluate(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> EvalReport:
    """Full report: AP, MR^-2, best-threshold Jaccard index, and crowd/sparse
    recall at the best-JI threshold, all from one pass per image."""
    ev = _Evaluation(scenes, cfg)
    ap = ev.average_precision()
    mr = ev.mr2()
    ji, thr = ev.best_ji()
    total, sparse, crowd = ev.recall_split(thr, CROWD_IOU)
    return EvalReport(ap=ap, mr2=mr, ji=ji, ji_best_threshold=thr,
                      recall_total=total, recall_sparse=sparse, recall_crowd=crowd)


@dataclass(frozen=True)
class DensityStats:
    objects_per_image: float
    overlaps_per_image: float


def density_stats(scenes: Sequence[SceneRecord],
                  crowd_iou: float = CROWD_IOU) -> DensityStats:
    """Instance density: mean non-ignored ground truths per image and mean
    count of ground-truth pairs overlapping beyond ``crowd_iou``."""
    if not scenes:
        return DensityStats(0.0, 0.0)
    n_obj = 0
    n_pairs = 0
    for scene in scenes:
        real = [g for g in scene.gts if not g.ignore]
        n_obj += len(real)
        if len(real) >= 2:
            boxes = boxes_to_array([g.box for g in real])
            ious = iou_matrix(boxes, boxes)
            iu = np.triu_indices(len(real), k=1)
            n_pairs += int((ious[iu] > crowd_iou).sum())
    return DensityStats(n_obj / len(scenes), n_pairs / len(scenes))
