"""Detection evaluation: average precision, log-average miss rate, Jaccard
index with best-threshold search, and crowd/sparse recall splits.

All metrics run at a single IoU threshold (default 0.5), each under one
protocol: AP is the area under the all-point interpolated precision-recall
curve, MR^-2 the log-average miss rate at ``FPPI_POINTS`` log-spaced FPPI
points in [``FPPI_LO``, ``FPPI_HI``], and JI counts a maximum one-to-one
matching. No config changes a protocol; :class:`EvalConfig` sets only the
IoU threshold. Ignored ground truths never enter a denominator; detections
whose only qualifying overlap is an ignored ground truth are excluded from
the precision/recall sweeps.

Every metric is a view of one pass over all images of a call
(:class:`Evaluation`). The pass holds the images as columns, one image
after another, and builds no dense IoU matrix:

* The geometry overlap engine (:func:`~crowdset.geometry.overlaps`),
  keyed by image, lists the same-class detection/ground-truth pairs with
  IoU at or above a floor in one sweep (:class:`PairSet`, ignored ground
  truths included), and the ground-truth/ground-truth pairs that overlap in
  another. The pair set is ranked once by
  :func:`~crowdset.geometry.rank_order`: highest IoU first, then lowest
  index.
* An evaluation is a mask over a pair set: its detections are a subset of
  the set's rows (``keep``), with their own scores, and a detection's
  candidates are its pairs with a non-ignored ground truth at IoU >= the
  threshold. Filtering a sorted list keeps its order, so the candidates
  stay ranked. ``crowdset eval`` keeps every row; the study sweeps its
  draw once and evaluates every model and suppression config as its kept
  rows. COCO's evaluator is built the same way: IoUs computed once per
  image, then matched at each threshold (Lin et al., ECCV 2014).
* The detections are admitted in rank order (descending score, ties by
  input index) under two matchings:

  * greedy: a detection takes its first untaken candidate (TP), else is
    IGNORED when it overlaps an ignored ground truth, else is a FP;
  * maximum: a detection searches one augmenting path (Kuhn's algorithm,
    iterative), so the matching of the top n detections is maximum for
    every n, and the per-rank gain says whether it grew.

  A ground truth is *contested* at a threshold when a row of the pair set
  with two or more candidates lists it. A row whose one candidate is
  uncontested shares it only with rows like itself: the best-ranked of
  them takes it in both matchings (gain 1), which numpy settles with one
  stable sort by ground truth. Only the other rows are walked in Python,
  in rank order; the two parts share no ground truth. The split is made
  once per threshold over all the pair set's rows, so an evaluation may
  walk a row whose contest left with a dropped row, which changes nothing.
  Both parts use global ground-truth indices; no candidate joins two
  images, so each image's flags and gains are those of a pass over that
  image alone.
* The non-ignored ground-truth pairs with IoU > ``CROWD_IOU`` are kept,
  so the crowd flags and the density count are views of them. They are
  swept, and the crowd flags and totals counted, once per :class:`Truth`,
  which the study's rows share. What a pair set or truth builds once is
  read-only: its arrays are, and no one modifies its lists. MR^-2's
  reference points are one read-only module array, and an evaluation
  ranks its flags and scores once for AP, MR^-2 and JI.

Neither matching's step for a detection depends on lower-ranked ones, so
keeping only the detections that score >= t gives a prefix of the pass for
every threshold t. AP and MR^-2 sweep the greedy flags of all images;
:func:`jaccard_index` sums the maximum-matching gains of the prefix;
:func:`best_ji` scans every prefix end at once; and :func:`recall_split`
counts a ground truth as found when its greedy match scores >= t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import overlaps, rank_order
from .scene_io import SceneArrays, SceneRecord
from .suppression import Detections

# A ground truth is "crowd" when another ground truth in the same image
# overlaps it beyond this IoU; everything else is "sparse".
CROWD_IOU = 0.5

# Greedy-matching flag values of a detection (Evaluation.det_flags).
TP, FP, IGNORED = 1, 0, -1

# MR^-2 averages the miss rate at FPPI_POINTS log-spaced FPPI points in
# [FPPI_LO, FPPI_HI], the Caltech/CrowdHuman protocol (Dollar et al., TPAMI
# 2012; Shao et al., arXiv 1805.00123); _FPPI_REFS holds them, read-only.
FPPI_LO, FPPI_HI, FPPI_POINTS = 1e-2, 1.0, 9
_FPPI_REFS = np.logspace(math.log10(FPPI_LO), math.log10(FPPI_HI), FPPI_POINTS)
_FPPI_REFS.flags.writeable = False

_MR_FLOOR = 1e-10


@dataclass(frozen=True)
class EvalConfig:
    iou_thresh: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.iou_thresh < 1.0:
            raise ValueError(f"iou_thresh must be in (0, 1), got {self.iou_thresh}")


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


def _cat(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


class Truth:
    """The ground truths of every image, as columns one image after
    another: ``boxes`` (G, 4), ``classes``, ``ignore`` and each row's
    ``image``; evaluations over the same images share one, and with it the
    sweep of :attr:`pairs`. It is the one table of a batch's ground truths:
    the detector draw and the EMD engine read it too."""

    def __init__(self, images: Sequence[SceneArrays]):
        self.n_images = len(images)
        self.image = np.repeat(np.arange(self.n_images),
                               [len(r.gt_boxes) for r in images])
        self.boxes = _cat([r.gt_boxes for r in images], np.zeros((0, 4)))
        self.classes = _cat([r.gt_classes for r in images],
                            np.zeros(0, dtype=np.int64))
        self.ignore = _cat([r.gt_ignore for r in images], np.zeros(0, dtype=bool))
        self.n_real = int(np.count_nonzero(~self.ignore))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Each crowd pair (non-ignored ground truths of one image at IoU >
        ``CROWD_IOU``) once, with its IoU; and the ground-truth pairs swept."""
        real = ~self.ignore
        return overlaps(self.boxes,
                        lambda a, b, ov: real[a] & real[b] & (ov > CROWD_IOU),
                        self.image)

    @cached_property
    def crowd(self) -> np.ndarray:
        """Per ground truth: another non-ignored ground truth of its image
        overlaps it with IoU > ``CROWD_IOU``; ignored ones stay False.
        Read-only."""
        a, b, _, _ = self.pairs
        flags = np.zeros(len(self.boxes), dtype=bool)
        flags[a] = True
        flags[b] = True
        flags.flags.writeable = False
        return flags

    @cached_property
    def n_crowd(self) -> int:
        return int(np.count_nonzero(self.crowd))


@dataclass(frozen=True)
class PairMask:
    """A pair set's pairs at one threshold, by detection row: ``easy_gt``,
    the one candidate of a row whose only candidate is uncontested, else
    -1; ``hard``, whether a row is walked (it has a contested candidate);
    ``candidates``, each such row's candidates in rank order;
    ``hits_ignored``, whether a row reaches an ignored ground truth; and
    ``n_pairs``, how many pairs it has. Shared by the evaluations: the
    arrays are read-only, and no one modifies the lists."""
    easy_gt: np.ndarray
    hard: np.ndarray
    candidates: dict[int, list[int]]
    hits_ignored: np.ndarray
    n_pairs: np.ndarray


class PairSet:
    """The same-class pairs of one set of detections and a :class:`Truth`
    with IoU >= ``min_iou``, ignored ground truths included, swept once and
    ranked once by :func:`~crowdset.geometry.rank_order`: ``rows`` (the
    detection), ``cols`` (the global ground-truth index), ``ious`` and
    ``ignored`` (whether the ground truth is), sorted by detection, then
    highest IoU first, ties to the lowest index.

    ``dets`` holds the detections of every image, one image after another,
    with each row's ``image`` in ``truth``'s image order. ``swept`` counts
    the pairs the sweep listed. :meth:`at_iou` masks the pairs at one
    threshold, and an :class:`Evaluation` of any subset of the rows gathers
    its rows from that mask.
    """

    def __init__(self, truth: Truth, dets: Detections, image: np.ndarray,
                 min_iou: float):
        self.truth, self.min_iou, self.n_dets = truth, min_iou, len(dets)
        classes = dets.classes
        d, g, ious, self.swept = overlaps(
            dets.boxes,
            lambda i, j, ov: (ov >= min_iou) & (classes[i] == truth.classes[j]),
            image, truth.boxes, truth.image)
        order = rank_order(d, g, ious)
        self.rows, self.cols, self.ious = d[order], g[order], ious[order]
        self.ignored = truth.ignore[self.cols]
        self._masks: dict[float, PairMask] = {}

    def at_iou(self, iou_thresh: float) -> PairMask:
        """The pairs with IoU >= ``iou_thresh``, which must not be below the
        sweep's, split into the rows numpy settles and the rows the walk
        visits (see the module docstring). A row's candidates are its
        non-ignored ground truths in rank order. Built once per threshold
        over every row, so all evaluations of the pair set share it."""
        if iou_thresh < self.min_iou:
            raise ValueError(f"evaluation at IoU {iou_thresh} needs pairs "
                             f"the sweep at IoU {self.min_iou} dropped")
        if iou_thresh not in self._masks:
            n, hit = self.n_dets, self.ious >= iou_thresh
            real = hit & ~self.ignored
            rows, cols = self.rows[real], self.cols[real]
            contested = np.zeros(len(self.truth.boxes), dtype=bool)
            contested[cols[np.bincount(rows, minlength=n)[rows] > 1]] = True
            on = contested[cols]   # a contested pair makes its row hard
            hard = np.zeros(n, dtype=bool)
            hard[rows[on]] = True
            easy_gt = np.full(n, -1, dtype=np.int64)
            easy_gt[rows[~on]] = cols[~on]
            rows, cols = rows[on], cols[on].tolist()
            ptr = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
            hits_ignored = np.zeros(n, dtype=bool)
            hits_ignored[self.rows[hit & self.ignored]] = True
            n_pairs = np.bincount(self.rows[hit], minlength=n)
            for a in (easy_gt, hard, hits_ignored, n_pairs):
                a.flags.writeable = False
            self._masks[iou_thresh] = PairMask(
                easy_gt, hard,
                {r: cols[a:b] for r, a, b in
                 zip(rows[ptr].tolist(), ptr, ptr[1:] + [len(cols)])},
                hits_ignored, n_pairs)
        return self._masks[iou_thresh]


class Evaluation:
    """Every image of one call matched in one sparse pass (see the module
    docstring); each metric is a view.

    The detections are the rows ``keep`` of ``pairs``' detections, in that
    order, with ``scores``; their pairs are those of ``pairs`` at IoU >=
    ``cfg.iou_thresh``, which must not be below the sweep's. Each image's
    detections must come in ``pairs``' image order. :meth:`of_arrays` builds
    one from :class:`~crowdset.scene_io.SceneArrays`, keeping every row.

    After construction, ``order`` is the detection at each global rank,
    the greedy matching is, in input order: ``det_flags`` (int8: TP, FP or
    IGNORED per detection) and ``det_match`` (the matched global
    ground-truth index, -1 when unmatched); ``gains`` holds the maximum
    matching's gain (0 or 1) at each global rank; and ``walked`` counts the
    detections the Python walk visited.
    """

    def __init__(self, cfg: EvalConfig, pairs: PairSet, keep: np.ndarray,
                 scores: np.ndarray):
        truth = pairs.truth
        self.pairs, self.truth = pairs, truth
        self.n_images = truth.n_images
        self.n_gt = truth.n_real
        self.scores = scores
        # Descending score, ties by image, then input index: each image's
        # rank order, and the global order of the AP and MR^-2 sweeps.
        self.order = np.argsort(-self.scores, kind="stable")
        self._ranked_scores = scores[self.order]
        mask = pairs.at_iou(cfg.iou_thresh)
        self.det_gt_above = int(mask.n_pairs[keep].sum())
        ranked = keep[self.order]   # the pair set's row at each rank
        # An uncontested ground truth goes to the best-ranked row on it.
        easy_gt = mask.easy_gt[ranked]
        easy = np.flatnonzero(easy_gt >= 0)
        easy = easy[np.argsort(easy_gt[easy], kind="stable")]
        easy = easy[np.diff(easy_gt[easy], prepend=-1) != 0]
        match = np.full(len(ranked), -1, dtype=np.int64)   # by rank
        match[easy] = easy_gt[easy]
        gains = (match >= 0).astype(np.int64)
        # The hard rows, walked in rank order, list no easy ground truth.
        walk = np.flatnonzero(mask.hard[ranked])
        adj = [mask.candidates[r] for r in ranked[walk].tolist()]
        self.walked = len(adj)
        taken = [False] * len(truth.boxes)
        match_right = [-1] * len(truth.boxes)
        dead: set[int] = set()
        walk_match, walk_gains = [-1] * len(adj), []
        for p, candidates in enumerate(adj):
            for j in candidates:
                if not taken[j]:
                    taken[j] = True
                    walk_match[p] = j
                    break
            # A row whose candidates are all dead has no augmenting path.
            walk_gains.append(not dead.issuperset(candidates)
                              and _augment(p, adj, match_right, dead))
        match[walk], gains[walk] = walk_match, walk_gains
        self.det_match = np.empty_like(match)
        self.det_match[self.order] = match
        self.gains = gains
        self.det_flags = np.where(
            self.det_match >= 0, TP,
            np.where(mask.hits_ignored[keep], IGNORED, FP)).astype(np.int8)

    @classmethod
    def of_arrays(cls, images: Sequence[SceneArrays],
                  cfg: EvalConfig) -> "Evaluation":
        dets, image = Detections.concat([r.dets for r in images])
        return cls(cfg, PairSet(Truth(images), dets, image, cfg.iou_thresh),
                   np.arange(len(dets)), dets.scores)

    def counters(self) -> dict:
        """What the pass saw: images, ground truths and detections; pairs
        the sweeps listed (the pair set's det/GT and the GT/GT); same-class
        det/GT pairs of the detections at or above the IoU threshold; GT
        pairs overlapping beyond ``CROWD_IOU``; detections the Python walk
        visited."""
        crowd, _, _, gt_swept = self.truth.pairs
        return {"images": self.n_images, "gts": len(self.truth.boxes),
                "dets": len(self.scores),
                "candidate_pairs": self.pairs.swept + gt_swept,
                "det_gt_pairs_above_iou": self.det_gt_above,
                "crowd_pairs": len(crowd), "walked": self.walked}

    @cached_property
    def _tp_cum(self) -> np.ndarray:
        """The running TP count of the global sweep by descending score,
        ignored detections dropped: the curve of AP and MR^-2."""
        flags = self.det_flags[self.order]
        return np.cumsum(flags[flags != IGNORED] == TP)

    def average_precision(self) -> float:
        if self.n_gt == 0:
            raise ValueError("average precision is undefined without ground truths")
        tp_cum = self._tp_cum
        precision = tp_cum / np.arange(1, len(tp_cum) + 1)  # TP + FP = rank
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        return float(np.sum(np.diff(tp_cum / self.n_gt, prepend=0.0) * envelope))

    def mr2(self) -> float:
        n_images, n_gt = self.n_images, self.n_gt
        if n_images == 0 or n_gt == 0:
            raise ValueError("miss rate needs at least one image and one ground truth")
        tp_cum = self._tp_cum
        fp_cum = np.arange(1, len(tp_cum) + 1) - tp_cum
        fppi = np.concatenate(([0.0], fp_cum / n_images))
        miss = np.concatenate(([1.0], 1.0 - tp_cum / n_gt))
        # FPPI rises from 0 < FPPI_LO: each reference sees a non-empty prefix.
        samples = np.minimum.accumulate(miss)[
            np.searchsorted(fppi, _FPPI_REFS, side="right") - 1]
        return float(np.exp(np.log(np.maximum(samples, _MR_FLOOR)).mean()))

    def jaccard_index(self, score_threshold: float) -> float:
        if math.isnan(score_threshold):
            raise ValueError("score_threshold must not be NaN")
        kept = self._ranked_scores >= score_threshold
        m, d = int(self.gains[kept].sum()), int(kept.sum())
        if d + self.n_gt == 0:
            return 1.0
        return m / (d + self.n_gt - m)

    def best_ji(self) -> tuple[float, float]:
        s_sorted = self._ranked_scores
        # Empty-set candidate at threshold +inf.
        best_val = 1.0 if self.n_gt == 0 else 0.0
        best_thr = math.inf
        if s_sorted.size:
            m_cum = np.cumsum(self.gains)
            # Evaluate once per distinct score, after all ties are admitted;
            # m <= min(d, n_gt) keeps every denominator >= 1.
            ends = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
            m = m_cum[ends]
            vals = m / (ends + 1 + self.n_gt - m)
            k = int(np.argmax(vals))   # first maximum: the highest threshold
            if vals[k] > best_val:
                best_val, best_thr = float(vals[k]), float(s_sorted[ends[k]])
        return best_val, best_thr

    def recall_split(self, score_threshold: float
                     ) -> tuple[RecallStats, RecallStats, RecallStats]:
        if math.isnan(score_threshold):
            raise ValueError("score_threshold must not be NaN")
        # Each matched ground truth once; the greedy matching takes only
        # non-ignored ones.
        at = self.det_match[self.scores >= score_threshold]
        at = at[at >= 0]
        crowd = int(np.count_nonzero(self.truth.crowd[at]))
        n_crowd = self.truth.n_crowd
        return (RecallStats(len(at), self.n_gt),
                RecallStats(len(at) - crowd, self.n_gt - n_crowd),
                RecallStats(crowd, n_crowd))

    def density_stats(self) -> DensityStats:
        if self.n_images == 0:
            return DensityStats(0.0, 0.0)
        pairs = len(self.truth.pairs[0])
        return DensityStats(self.n_gt / self.n_images, pairs / self.n_images)

    def report(self) -> EvalReport:
        """AP, MR^-2, best-threshold JI, and crowd/sparse recall at the
        best-JI threshold."""
        ji, thr = self.best_ji()
        total, sparse, crowd = self.recall_split(thr)
        return EvalReport(ap=self.average_precision(), mr2=self.mr2(), ji=ji,
                          ji_best_threshold=thr, recall_total=total,
                          recall_sparse=sparse, recall_crowd=crowd)


def _of_scenes(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> Evaluation:
    """The pass over dataclasses, converted at the edge."""
    return Evaluation.of_arrays([SceneArrays.from_record(s) for s in scenes], cfg)


def average_precision(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Area under the precision-recall curve from a global descending-score
    sweep. Raises on a dataset without ground truths (AP is undefined, not 0)."""
    return _of_scenes(scenes, cfg).average_precision()


def mr2(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> float:
    """Log-average miss rate at ``FPPI_POINTS`` log-spaced FPPI sample
    points in [``FPPI_LO``, ``FPPI_HI``].

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
    non-ignored ground truths (maximum matching); the index is
    sum(matches) / (sum(dets) + sum(gts) - sum(matches)). A dataset with no
    detections and no ground truths scores 1.0 (vacuous agreement).
    """
    return _of_scenes(scenes, cfg).jaccard_index(score_threshold)


def best_ji(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> tuple[float, float]:
    """Best Jaccard index over every distinct detection score, plus +inf for
    the empty set; ties return the highest threshold. Agrees exactly with
    :func:`jaccard_index` evaluated at each threshold."""
    return _of_scenes(scenes, cfg).best_ji()


def recall_split(scenes: Sequence[SceneRecord], cfg: EvalConfig,
                 score_threshold: float) -> tuple[RecallStats, RecallStats, RecallStats]:
    """Recall of crowd vs. sparse ground truths at one confidence threshold.

    Returns (total, sparse, crowd) counts; a ground truth counts as matched
    when its greedy match scores >= ``score_threshold``, and as crowd when
    another one overlaps it beyond ``CROWD_IOU``.
    """
    return _of_scenes(scenes, cfg).recall_split(score_threshold)


def evaluate(scenes: Sequence[SceneRecord], cfg: EvalConfig) -> EvalReport:
    """Full report: AP, MR^-2, best-threshold Jaccard index, and crowd/sparse
    recall at the best-JI threshold, all from one pass over every image."""
    return _of_scenes(scenes, cfg).report()


def density_stats(scenes: Sequence[SceneRecord]) -> DensityStats:
    """Instance density: mean non-ignored ground truths per image and mean
    count of ground-truth pairs overlapping beyond ``CROWD_IOU``, from the
    ground-truth pairs the sweep finds."""
    return _of_scenes([SceneRecord(s.id, gts=s.gts) for s in scenes],
                      EvalConfig()).density_stats()
