"""Detection evaluation: average precision, log-average miss rate, Jaccard
index with best-threshold search, and crowd/sparse recall splits.

All metrics run at a single IoU threshold (default 0.5). Ignored ground
truths never enter a denominator; detections whose only qualifying overlap
is an ignored ground truth are excluded from the precision/recall sweeps.

Every metric is a view of one pass over all images of a call
(:class:`Evaluation`). The pass holds the images as columns, one image
after another, and builds no dense IoU matrix:

* The geometry overlap engine (:func:`~crowdset.geometry.overlaps`),
  keyed by image, lists every same-image detection/ground-truth pair and
  ground-truth/ground-truth pair that overlaps, in one sweep each.
* A detection's candidates are the non-ignored, same-class ground truths
  with IoU >= threshold, ranked by :func:`~crowdset.geometry.rank_pairs`:
  highest IoU first, then lowest index.
* The detections are admitted in rank order (descending score, ties by
  input index) into two walks over those lists:

  * the greedy walk: a detection takes its first unmatched candidate (TP),
    else is IGNORED when it overlaps an ignored ground truth, else is a FP;
  * the maximum-matching walk: a detection searches one augmenting path
    (Kuhn's algorithm, iterative), so the matching of the top n detections
    is maximum for every n, and the per-rank gain says whether it grew.

  Each walk runs once over all images, with global ground-truth indices.
  No candidate joins two images, so each image's flags and gains are
  those of a walk over that image alone.
* The pairs of non-ignored ground truths with IoU > 0 are kept, so the
  crowd flags and the density count at any ``crowd_iou`` are views too.

Neither walk's decision for a detection depends on lower-ranked detections,
so keeping only the detections that score >= t gives a prefix of the pass
for every threshold t. AP and MR^-2 sweep the greedy flags of all images;
:func:`jaccard_index` sums the gains of the prefix (greedy-mode JI matches
as the greedy walk does, so its gains are the TP flags); :func:`best_ji`
scans every prefix end at once; and :func:`recall_split` counts a ground
truth as found when its greedy match scores >= t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .assignment import GroundTruth
from .geometry import overlaps, rank_pairs
from .scene_io import SceneArrays, SceneRecord
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
class DensityStats:
    objects_per_image: float
    overlaps_per_image: float


def _augment(root: int, adj: list[list[int]], match_right: list[int],
             dead: set[int]) -> bool:
    """Search one augmenting path from left vertex ``root`` (Kuhn's
    algorithm) and flip it into ``match_right``. Iterative, so the path
    length is not bounded by the interpreter's recursion limit.

    A failed search adds the right vertices it reached to ``dead``: they
    are all matched, and every path through one of them stays among them,
    so no later search can end there and none flips their edges."""
    # A free neighbour is a path of one edge. Any augmenting path grows the
    # matching by one, so taking it changes no gain.
    for v in adj[root]:
        if match_right[v] == -1:
            match_right[v] = root
            return True
    seen = set()
    stack = [(root, iter(adj[root]))]
    via: list[int] = []   # via[t]: right vertex that led to stack[t + 1]
    while stack:
        v = next((v for v in stack[-1][1] if v not in seen and v not in dead), -1)
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
    dead |= seen
    return False


def _max_matching_gains(adj: list[list[int]], order: Iterable[int],
                        n_right: int) -> np.ndarray:
    """Admit left vertices in ``order``, augmenting from each; 1 at each
    rank where the matching grew. The matching stays maximum at every
    prefix, so the gains summed over the first n ranks are the maximum
    matching size of the first n vertices."""
    match_right = [-1] * n_right
    dead: set[int] = set()
    return np.array([_augment(u, adj, match_right, dead) for u in order],
                    dtype=np.int64)


def _check_crowd_iou(crowd_iou: float) -> None:
    # Only ground-truth pairs with IoU > 0 are kept.
    if not crowd_iou >= 0.0:
        raise ValueError(f"crowd_iou must be >= 0, got {crowd_iou}")


def _cat(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


class Evaluation:
    """Every image of one call matched in one sparse pass (see the module
    docstring); each metric is a view.

    The columns run over all images, one image after another: ground truths
    ``gt_boxes`` (G, 4), ``gt_classes`` and ``gt_ignore``, detections
    ``det_boxes`` (D, 4), ``det_scores`` and ``det_classes``, and the image
    index of each row in ``gt_image`` and ``det_image``. :meth:`of_arrays`
    builds one from :class:`~crowdset.scene_io.SceneArrays`.

    After construction, ``candidates`` lists each detection's candidate
    ground truths (global indices), ``order`` is the detection at each
    global rank, and ``det_flags``, ``det_match`` and ``gt_matched`` are the
    greedy walk's result, as in :class:`MatchResult` with global indices.
    """

    def __init__(self, cfg: EvalConfig, n_images: int,
                 gt_image: np.ndarray, gt_boxes: np.ndarray,
                 gt_classes: np.ndarray, gt_ignore: np.ndarray,
                 det_image: np.ndarray, det_boxes: np.ndarray,
                 det_scores: np.ndarray, det_classes: np.ndarray):
        self.cfg = cfg
        self.n_images = n_images
        self.gt_image, self.gt_boxes, self.gt_ignore = gt_image, gt_boxes, gt_ignore
        self.scores = det_scores
        self.n_gt = int(np.count_nonzero(~gt_ignore))
        # Descending score, ties by image, then input index: each image's
        # rank order, and the global order of the AP and MR^-2 sweeps.
        self.order = np.argsort(-det_scores, kind="stable")
        (self.candidates, hits_ignored, self.det_gt_swept,
         self.det_gt_above) = self._candidates(det_image, det_boxes,
                                               det_classes, gt_classes)
        det_match = [-1] * len(det_scores)
        taken = [False] * len(gt_boxes)
        for i in self.order.tolist():
            for j in self.candidates[i]:
                if not taken[j]:
                    taken[j] = True
                    det_match[i] = j
                    break
        self.det_match = np.array(det_match, dtype=np.int64)
        self.gt_matched = np.array(taken, dtype=bool)
        self.det_flags = np.where(
            self.det_match >= 0, TP,
            np.where(hits_ignored, IGNORED, FP)).astype(np.int8)

    @classmethod
    def of_arrays(cls, images: Sequence[SceneArrays],
                  cfg: EvalConfig) -> "Evaluation":
        n = len(images)
        dets = [r.dets for r in images]
        return cls(
            cfg, n,
            np.repeat(np.arange(n), [len(r.gt_boxes) for r in images]),
            _cat([r.gt_boxes for r in images], np.zeros((0, 4))),
            _cat([r.gt_classes for r in images], np.zeros(0, dtype=np.int64)),
            _cat([r.gt_ignore for r in images], np.zeros(0, dtype=bool)),
            np.repeat(np.arange(n), [len(d) for d in dets]),
            _cat([d.boxes for d in dets], np.zeros((0, 4))),
            _cat([d.scores for d in dets], np.zeros(0)),
            _cat([d.classes for d in dets], np.zeros(0, dtype=np.int64)))

    def _candidates(self, det_image, det_boxes, det_classes, gt_classes):
        """Each detection's candidate list, whether it reaches an ignored
        ground truth, the det/GT pairs swept, and how many of them are of
        one class with IoU >= threshold."""
        thresh, n_det = self.cfg.iou_thresh, len(det_boxes)
        d, g, ious, swept = overlaps(
            det_boxes,
            lambda i, j, ov: (ov >= thresh) & (det_classes[i] == gt_classes[j]),
            det_image, self.gt_boxes, self.gt_image)
        ignored = self.gt_ignore[g]
        hits_ignored = np.zeros(n_det, dtype=bool)
        hits_ignored[d[ignored]] = True
        real = ~ignored
        return (rank_pairs(d[real], g[real], ious[real], n_det), hits_ignored,
                swept, len(d))

    @cached_property
    def gains(self) -> np.ndarray:
        """The maximum-matching walk's gain at each global rank."""
        return _max_matching_gains(self.candidates, self.order.tolist(),
                                   len(self.gt_boxes))

    @cached_property
    def _gt_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Each pair of non-ignored ground truths of one image with IoU > 0,
        once, with its IoU; and the number of ground-truth pairs swept."""
        real = ~self.gt_ignore
        return overlaps(self.gt_boxes,
                        lambda a, b, ov: real[a] & real[b] & (ov > 0.0),
                        self.gt_image)

    def counters(self) -> dict:
        """What the pass saw: images, ground truths and detections; pairs
        the sweep listed (det/GT and GT/GT); same-class det/GT pairs at or
        above the IoU threshold; GT pairs overlapping beyond ``CROWD_IOU``."""
        _, _, gt_ious, gt_swept = self._gt_pairs
        return {"images": self.n_images, "gts": len(self.gt_boxes),
                "dets": len(self.scores),
                "candidate_pairs": self.det_gt_swept + gt_swept,
                "det_gt_pairs_above_iou": self.det_gt_above,
                "crowd_pairs": int(np.count_nonzero(gt_ious > CROWD_IOU))}

    def _sweep(self) -> np.ndarray:
        """Global is-TP flags sorted by descending score, ignored detections
        dropped."""
        flags = self.det_flags[self.order]
        return flags[flags != IGNORED] == TP

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
        n_images, n_gt, cfg = self.n_images, self.n_gt, self.cfg
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

    def _ji_gains(self) -> np.ndarray:
        """JI matching gain at each global rank."""
        if self.cfg.ji_matching == "greedy":
            return (self.det_flags[self.order] == TP).astype(np.int64)
        return self.gains

    def jaccard_index(self, score_threshold: float) -> float:
        kept = self.scores[self.order] >= score_threshold
        m, d = int(self._ji_gains()[kept].sum()), int(kept.sum())
        if d + self.n_gt == 0:
            return 1.0
        return m / (d + self.n_gt - m)

    def best_ji(self) -> tuple[float, float]:
        s_sorted = self.scores[self.order]
        # Empty-set candidate at threshold +inf.
        best_val = 1.0 if self.n_gt == 0 else 0.0
        best_thr = math.inf
        if s_sorted.size:
            m_cum = np.cumsum(self._ji_gains())
            # Evaluate once per distinct score, after all ties are admitted;
            # m <= min(d, n_gt) keeps every denominator >= 1.
            ends = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
            m = m_cum[ends]
            vals = m / (ends + 1 + self.n_gt - m)
            k = int(np.argmax(vals))   # first maximum: the highest threshold
            if vals[k] > best_val:
                best_val, best_thr = float(vals[k]), float(s_sorted[ends[k]])
        return best_val, best_thr

    def crowd_flags(self, crowd_iou: float) -> np.ndarray:
        """Per ground truth: another non-ignored ground truth of its image
        overlaps it with IoU > ``crowd_iou``; ignored ones stay False."""
        _check_crowd_iou(crowd_iou)
        a, b, ious, _ = self._gt_pairs
        over = ious > crowd_iou
        flags = np.zeros(len(self.gt_boxes), dtype=bool)
        flags[a[over]] = True
        flags[b[over]] = True
        return flags

    def recall_split(self, score_threshold: float, crowd_iou: float
                     ) -> tuple[RecallStats, RecallStats, RecallStats]:
        found = np.zeros(len(self.gt_boxes), dtype=bool)
        at = self.det_match[self.scores >= score_threshold]
        found[at[at >= 0]] = True
        real, crowd = ~self.gt_ignore, self.crowd_flags(crowd_iou)

        def stats(mask: np.ndarray) -> RecallStats:
            return RecallStats(int((found & mask).sum()), int(mask.sum()))

        sparse, crowd_ = stats(real & ~crowd), stats(real & crowd)
        total = RecallStats(sparse.matched + crowd_.matched,
                            sparse.total + crowd_.total)
        return total, sparse, crowd_

    def density_stats(self, crowd_iou: float = CROWD_IOU) -> DensityStats:
        _check_crowd_iou(crowd_iou)
        if self.n_images == 0:
            return DensityStats(0.0, 0.0)
        pairs = int(np.count_nonzero(self._gt_pairs[2] > crowd_iou))
        return DensityStats(self.n_gt / self.n_images, pairs / self.n_images)

    def report(self) -> EvalReport:
        """AP, MR^-2, best-threshold JI, and crowd/sparse recall at the
        best-JI threshold."""
        ji, thr = self.best_ji()
        total, sparse, crowd = self.recall_split(thr, CROWD_IOU)
        return EvalReport(ap=self.average_precision(), mr2=self.mr2(), ji=ji,
                          ji_best_threshold=thr, recall_total=total,
                          recall_sparse=sparse, recall_crowd=crowd)


def _of_scenes(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> Evaluation:
    """The pass over dataclasses, converted at the edge."""
    return Evaluation.of_arrays([SceneArrays.from_record(s) for s in scenes], cfg)


def match_greedy(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                 iou_thresh: float) -> MatchResult:
    """Greedily match detections to ground truths in descending score order.

    Each detection takes the unmatched, non-ignored, same-class ground truth
    with the highest IoU >= ``iou_thresh`` (TP); a detection whose only
    qualifying overlaps are ignored ground truths is flagged ignored;
    anything else is a FP. One ground truth matches at most one detection.
    ``iou_thresh`` must be in (0, 1), as in :class:`EvalConfig`.
    """
    ev = _of_scenes([SceneRecord("", gts=gts, dets=dets)],
                    EvalConfig(iou_thresh=iou_thresh))
    return MatchResult(ev.det_flags, ev.det_match, ev.gt_matched)


def average_precision(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Area under the precision-recall curve from a global descending-score
    sweep. Raises on a dataset without ground truths (AP is undefined, not 0)."""
    return _of_scenes(scenes, cfg).average_precision()


def mr2(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Log-average miss rate over log-spaced FPPI sample points.

    The miss-rate/FPPI curve is swept from the highest score down, starting
    at the empty prediction set (FPPI 0, miss rate 1). At each sample point
    the lowest miss rate with FPPI within budget is taken; miss rates are
    clamped to 1e-10 inside the log average.
    """
    return _of_scenes(scenes, cfg).mr2()


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
    return _of_scenes(scenes, cfg).jaccard_index(score_threshold)


def best_ji(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> tuple[float, float]:
    """Best Jaccard index over every distinct detection score, plus +inf for
    the empty set; ties return the highest threshold. Agrees exactly with
    :func:`jaccard_index` evaluated at each threshold."""
    return _of_scenes(scenes, cfg).best_ji()


def crowd_flags(gts: Sequence[GroundTruth], crowd_iou: float = CROWD_IOU) -> np.ndarray:
    """Boolean flag per ground truth: True when another non-ignored ground
    truth in the image overlaps it with IoU strictly above ``crowd_iou``
    (which must be >= 0). Reads the ground-truth pairs the sweep finds."""
    return _of_scenes([SceneRecord("", gts=gts)], EvalConfig()).crowd_flags(crowd_iou)


def recall_split(scenes: Sequence[SceneRecord], cfg: EvalConfig,
                 score_threshold: float,
                 crowd_iou: float = CROWD_IOU) -> tuple[RecallStats, RecallStats, RecallStats]:
    """Recall of crowd vs. sparse ground truths at one confidence threshold.

    Returns (total, sparse, crowd) counts; matched flags are those of
    :func:`match_greedy` on the thresholded detections.
    """
    return _of_scenes(scenes, cfg).recall_split(score_threshold, crowd_iou)


def evaluate(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> EvalReport:
    """Full report: AP, MR^-2, best-threshold Jaccard index, and crowd/sparse
    recall at the best-JI threshold, all from one pass over every image."""
    return _of_scenes(scenes, cfg).report()


def density_stats(scenes: Sequence[SceneRecord],
                  crowd_iou: float = CROWD_IOU) -> DensityStats:
    """Instance density: mean non-ignored ground truths per image and mean
    count of ground-truth pairs overlapping beyond ``crowd_iou`` (which
    must be >= 0), from the ground-truth pairs the sweep finds."""
    return _of_scenes([SceneRecord(s.id, gts=s.gts) for s in scenes],
                      EvalConfig()).density_stats(crowd_iou)
