import math
import sys
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import metrics_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from crowdset import geometry
from crowdset.assignment import GroundTruth
from crowdset.geometry import BBox, boxes_to_array, iou_matrix
from crowdset.metrics import (CROWD_IOU, FP, IGNORED, TP, EvalConfig,
                              Evaluation, PairSet, RecallStats, Truth,
                              _max_matching_gains,
                              average_precision, best_ji, density_stats,
                              evaluate, jaccard_index, mr2, recall_split)
from crowdset.scene_io import SceneArrays, SceneRecord
from crowdset.suppression import Detection, Detections

B = BBox
CFG = EvalConfig()


def gt(x1, y1, x2, y2, class_id=1, ignore=False):
    return GroundTruth(box=B(x1, y1, x2, y2), class_id=class_id, ignore=ignore)


def det(x1, y1, x2, y2, score, class_id=1):
    return Detection(box=B(x1, y1, x2, y2), score=score, class_id=class_id)


def scene(sid, gts, dets=()):
    return SceneRecord(id=sid, gts=list(gts), dets=list(dets))


def one_image(gts, dets=(), iou_thresh=0.5):
    """The evaluation pass over one image: its greedy walk's ``det_flags``,
    ``det_match`` and ``gt_matched``, and its ``crowd_flags``."""
    return Evaluation.of_arrays([SceneArrays.from_record(scene("", gts, dets))],
                                EvalConfig(iou_thresh=iou_thresh))


def perfect_scene(sid, boxes, score=0.9):
    gts = [gt(*b) for b in boxes]
    dets = [det(*b, score=score) for b in boxes]
    return scene(sid, gts, dets)


def random_scenes(rng, n_scenes, quantize=None, n_classes=1):
    scenes = []
    for i in range(n_scenes):
        gts, dets = [], []
        for _ in range(int(rng.integers(1, 7))):
            x, y = rng.uniform(0, 300, 2)
            w, h = rng.uniform(10, 60, 2)
            cls = int(rng.integers(1, n_classes + 1))
            gts.append(gt(x, y, x + w, y + h, class_id=cls))
            # A detection near the gt with some probability, plus noise dets.
            if rng.random() < 0.75:
                jx, jy = rng.uniform(-8, 8, 2)
                s = float(rng.uniform(0.05, 0.99))
                if quantize:
                    s = round(round(s / quantize) * quantize, 10)
                dets.append(det(x + jx, y + jy, x + w + jx, y + h + jy, s,
                                class_id=cls))
        for _ in range(int(rng.integers(0, 3))):
            x, y = rng.uniform(0, 300, 2)
            s = float(rng.uniform(0.05, 0.99))
            if quantize:
                s = round(round(s / quantize) * quantize, 10)
            dets.append(det(x, y, x + rng.uniform(10, 60), y + rng.uniform(10, 60),
                            s, class_id=int(rng.integers(1, n_classes + 1))))
        scenes.append(scene(f"s{i}", gts, dets))
    return scenes


class TestMatchGreedy:
    def test_exact_hit_is_tp(self):
        res = one_image([gt(0, 0, 10, 10)], [det(0, 0, 10, 10, 0.9)])
        assert res.det_flags.tolist() == [TP]
        assert res.gt_matched.tolist() == [True]

    def test_one_to_one_second_det_is_fp(self):
        res = one_image([gt(0, 0, 10, 10)],
                        [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)])
        assert res.det_flags.tolist() == [TP, FP]

    def test_ignored_only_overlap_excluded(self):
        res = one_image([gt(0, 0, 10, 10, ignore=True)],
                        [det(0, 0, 10, 10, 0.9)])
        assert res.det_flags.tolist() == [IGNORED]
        assert res.gt_matched.tolist() == [False]

    def test_class_mismatch_is_fp(self):
        res = one_image([gt(0, 0, 10, 10, class_id=1)],
                        [det(0, 0, 10, 10, 0.9, class_id=2)])
        assert res.det_flags.tolist() == [FP]

    def test_higher_score_matches_first(self):
        res = one_image([gt(0, 0, 10, 10)],
                        [det(0, 0, 10, 10, 0.5), det(0, 0, 10, 10, 0.9)])
        assert res.det_flags.tolist() == [FP, TP]

    def test_prefers_highest_iou(self):
        d = det(0, 0, 10, 10, 0.9)
        loose = gt(0, 2.5, 10, 12.5)   # iou 0.6
        tight = gt(0, 0, 10, 10)       # iou 1.0
        res = one_image([loose, tight], [d])
        assert res.det_match.tolist() == [1]

    def test_equal_iou_goes_to_the_lower_index(self):
        # The detection sits midway: IoU 90/110 with both ground truths.
        left, right = gt(0, 0, 10, 10), gt(2, 0, 12, 10)
        d = det(1, 0, 11, 10, 0.9)
        assert one_image([left, right], [d]).det_match.tolist() == [0]
        assert one_image([right, left], [d]).det_match.tolist() == [0]

    def test_no_double_booking(self):
        rng = np.random.default_rng(3)
        for s in random_scenes(rng, 30):
            res = one_image(s.gts, s.dets)
            matched = [m for m in res.det_match if m >= 0]
            assert len(matched) == len(set(matched))
            assert ((res.det_flags == TP) == (res.det_match >= 0)).all()


class TestAveragePrecision:
    def test_perfect_is_one(self):
        scenes = [perfect_scene("a", [(0, 0, 10, 10), (50, 50, 70, 80)])]
        assert average_precision(scenes, CFG) == 1.0

    def test_no_detections_is_zero(self):
        assert average_precision([scene("a", [gt(0, 0, 10, 10)])], CFG) == 0.0

    def test_hand_computed_half(self):
        # 1 gt; FP at 0.9, TP at 0.8: precision at full recall is 1/2.
        s = scene("a", [gt(0, 0, 10, 10)],
                  [det(100, 100, 120, 120, 0.9), det(0, 0, 10, 10, 0.8)])
        assert average_precision([s], CFG) == 0.5

    def test_zero_gts_is_an_error(self):
        with pytest.raises(ValueError):
            average_precision([scene("a", [], [det(0, 0, 1, 1, 0.5)])], CFG)

    def test_high_scoring_fp_never_increases_ap(self):
        rng = np.random.default_rng(11)
        for s in random_scenes(rng, 15):
            base = average_precision([s], CFG)
            spiked = scene(s.id, s.gts,
                           list(s.dets) + [det(500, 500, 510, 510, 0.995)])
            assert average_precision([spiked], CFG) <= base + 1e-12

    def test_image_order_invariance(self):
        rng = np.random.default_rng(13)
        scenes = random_scenes(rng, 12)
        base = average_precision(scenes, CFG)
        assert average_precision(scenes[::-1], CFG) == pytest.approx(base, abs=1e-12)


class TestMr2:
    def test_perfect_detector_is_zero(self):
        scenes = [perfect_scene("a", [(0, 0, 10, 10)])]
        assert mr2(scenes, CFG) <= 1e-9

    def test_empty_detector_is_one(self):
        assert mr2([scene("a", [gt(0, 0, 10, 10)])], CFG) == 1.0

    def test_hand_built_curve(self):
        # One image, 2 gts, dets TP@0.9, FP@0.8, TP@0.7.
        s = scene("a", [gt(0, 0, 10, 10), gt(50, 50, 60, 60)],
                  [det(0, 0, 10, 10, 0.9), det(200, 200, 210, 210, 0.8),
                   det(50, 50, 60, 60, 0.7)])
        # Independent oracle: evaluate the hand-built curve at the 9 log
        # points. Curve operating points: (0,1) empty, (0,0.5), (1,0.5), (1,0).
        pts = [(0.0, 1.0), (0.0, 0.5), (1.0, 0.5), (1.0, 0.0)]
        refs = [10 ** e for e in np.linspace(-2, 0, 9)]
        samples = [min(m for f, m in pts if f <= r) for r in refs]
        want = math.exp(sum(math.log(max(m, 1e-10)) for m in samples) / len(samples))
        assert mr2([s], CFG) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.041812551547518666, rel=1e-9)

    def test_default_range_is_one_hundredth_to_one(self):
        # The hand-built curve reaches miss rate 0 only at FPPI 1, so the
        # range's upper end shows in the result.
        s = scene("a", [gt(0, 0, 10, 10), gt(50, 50, 60, 60)],
                  [det(0, 0, 10, 10, 0.9), det(200, 200, 210, 210, 0.8),
                   det(50, 50, 60, 60, 0.7)])
        assert (EvalConfig().fppi_lo, EvalConfig().fppi_hi) == (1e-2, 1.0)
        default = mr2([s], CFG)
        assert default == mr2([s], EvalConfig(fppi_hi=1.0))
        assert default != mr2([s], EvalConfig(fppi_hi=100.0))

    def test_zero_gts_is_an_error(self):
        with pytest.raises(ValueError):
            mr2([scene("a", [], [])], CFG)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.1, 1.0), (1e-2, math.inf),
                                        (math.nan, 1.0), (1e-2, math.nan),
                                        (1.0, 1.0)])
    def test_fppi_bounds_must_be_finite_and_positive(self, lo, hi):
        with pytest.raises(ValueError, match="fppi"):
            EvalConfig(fppi_lo=lo, fppi_hi=hi)

    def test_fppi_points_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="fppi_points must be >= 2"):
            EvalConfig(fppi_points=1)

    def test_high_scoring_fp_never_decreases_mr2(self):
        rng = np.random.default_rng(19)
        for s in random_scenes(rng, 15):
            base = mr2([s], CFG)
            spiked = scene(s.id, s.gts,
                           list(s.dets) + [det(500, 500, 510, 510, 0.995)])
            assert mr2([spiked], CFG) >= base - 1e-12


class TestJaccard:
    def test_perfect_is_one(self):
        scenes = [perfect_scene("a", [(0, 0, 10, 10), (40, 40, 60, 60)])]
        assert jaccard_index(scenes, CFG, 0.5) == 1.0

    def test_no_detections_is_zero(self):
        assert jaccard_index([scene("a", [gt(0, 0, 10, 10)])], CFG, 0.5) == 0.0

    def test_one_matchable_pair_of_two(self):
        # 2 dets, 2 gts, only one matchable pair: 1 / (2 + 2 - 1) = 1/3.
        s = scene("a", [gt(0, 0, 10, 10), gt(100, 100, 110, 110)],
                  [det(0, 0, 10, 10, 0.9), det(300, 300, 310, 310, 0.8)])
        assert jaccard_index([s], CFG, 0.0) == pytest.approx(1 / 3, abs=0)

    def test_empty_dataset_is_vacuously_one(self):
        assert jaccard_index([scene("a", [], [])], CFG, 0.5) == 1.0

    def test_threshold_filters_detections(self):
        s = scene("a", [gt(0, 0, 10, 10)], [det(0, 0, 10, 10, 0.4)])
        assert jaccard_index([s], CFG, 0.5) == 0.0
        assert jaccard_index([s], CFG, 0.4) == 1.0
        with pytest.raises(ValueError, match="must not be NaN"):
            jaccard_index([s], CFG, math.nan)

    def test_optimal_beats_greedy_on_crossing_fixture(self):
        # Greedy gives the high-score det the best gt and strands the other;
        # maximum matching pairs both.
        g1 = gt(0, 0, 10, 10)
        g2 = gt(0, 4, 10, 14)
        d1 = det(0, 1, 10, 11, 0.9)    # overlaps both, higher iou on g1
        d2 = det(0, 0.5, 10, 10.5, 0.8)  # qualifies only with g1
        s = scene("a", [g1, g2], [d1, d2])
        assert one_image([g1, g2], [d1, d2]).det_match.tolist() == [0, -1]
        assert jaccard_index([s], CFG, 0.0) == 2 / (2 + 2 - 2)


class TestBestJi:
    def test_single_perfect_detection(self):
        s = scene("a", [gt(0, 0, 10, 10)], [det(0, 0, 10, 10, 0.7)])
        assert best_ji([s], CFG) == (1.0, 0.7)

    def test_threshold_cuts_fp(self):
        s = scene("a", [gt(0, 0, 10, 10)],
                  [det(0, 0, 10, 10, 0.9), det(100, 100, 110, 110, 0.5)])
        val, thr = best_ji([s], CFG)
        assert val == 1.0 and thr == 0.9

    def test_tie_returns_the_highest_threshold(self):
        # 4 gts; TP .9, TP .8, FP .7, FP .6, TP .5: the index is 1/4, 2/4,
        # 2/5, 2/6, 3/6, so the best 1/2 is reached at .8 and again at .5.
        gts = [gt(100 * j, 0, 100 * j + 10, 10) for j in range(4)]
        dets = [det(0, 0, 10, 10, 0.9), det(100, 0, 110, 10, 0.8),
                det(500, 0, 510, 10, 0.7), det(600, 0, 610, 10, 0.6),
                det(200, 0, 210, 10, 0.5)]
        assert best_ji([scene("a", gts, dets)], CFG) == (0.5, 0.8)

    def test_matches_dense_grid_sweep(self):
        # Scores are quantized to 0.01 so every inter-score gap contains a
        # 1e-3 grid point and the grid realizes every threshold set.
        rng = np.random.default_rng(23)
        scenes = random_scenes(rng, 100, quantize=0.01)
        val, thr = best_ji(scenes, CFG)
        grid = np.arange(0.0, 1.001, 0.001)
        grid_best = max(jaccard_index(scenes, CFG, t) for t in grid)
        assert val == pytest.approx(grid_best, abs=1e-9)
        assert val == pytest.approx(jaccard_index(scenes, CFG, thr), abs=1e-9)

    def test_at_least_any_fixed_threshold(self):
        rng = np.random.default_rng(29)
        scenes = random_scenes(rng, 30)
        val, _ = best_ji(scenes, CFG)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert val >= jaccard_index(scenes, CFG, t) - 1e-12

    def test_empty_everything(self):
        val, thr = best_ji([scene("a", [], [])], CFG)
        assert val == 1.0 and thr == math.inf


class TestRecallSplit:
    def test_pair_is_crowd(self):
        gts = [gt(0, 0, 10, 10), gt(0, 2.5, 10, 12.5)]  # iou 0.6
        flags = one_image(gts).crowd_flags(CROWD_IOU)
        assert flags.tolist() == [True, True]

    def test_isolated_is_sparse(self):
        assert one_image([gt(0, 0, 10, 10)]).crowd_flags(CROWD_IOU).tolist() == [False]

    def test_two_crowd_one_sparse(self):
        gts = [gt(0, 0, 10, 10), gt(0, 2.5, 10, 12.5), gt(100, 100, 120, 140)]
        s = scene("a", gts, [det(0, 0, 10, 10, 0.9)])
        total, sparse, crowd = recall_split([s], CFG, 0.0)
        assert (crowd.total, sparse.total) == (2, 1)
        assert (crowd.matched, sparse.matched) == (1, 0)
        assert total.matched == sparse.matched + crowd.matched
        assert total.total == sparse.total + crowd.total

    def test_matches_brute_force_pairwise_oracle(self):
        from crowdset.geometry import iou as scalar_iou
        rng = np.random.default_rng(31)
        for s in random_scenes(rng, 25):
            flags = one_image(s.gts).crowd_flags(CROWD_IOU)
            for j, g in enumerate(s.gts):
                want = any(scalar_iou(g.box, o.box) > CROWD_IOU
                           for jj, o in enumerate(s.gts) if jj != j)
                assert flags[j] == want

    def test_partition_consistency_random(self):
        rng = np.random.default_rng(37)
        scenes = random_scenes(rng, 20)
        total, sparse, crowd = recall_split(scenes, CFG, 0.3)
        assert total.total == sparse.total + crowd.total
        assert total.matched == sparse.matched + crowd.matched


class TestEvaluate:
    def test_report_ranges(self):
        rng = np.random.default_rng(41)
        scenes = random_scenes(rng, 25)
        rep = evaluate(scenes, CFG)
        assert 0.0 <= rep.ap <= 1.0
        assert 0.0 <= rep.mr2 <= 1.0
        assert 0.0 <= rep.ji <= 1.0
        assert rep.recall_total.total == rep.recall_sparse.total + rep.recall_crowd.total

    def test_detection_order_invariance(self):
        rng = np.random.default_rng(43)
        scenes = random_scenes(rng, 10)
        base = evaluate(scenes, CFG)
        shuffled = [SceneRecord(id=s.id, gts=s.gts,
                                dets=[s.dets[i] for i in
                                      rng.permutation(len(s.dets))])
                    for s in scenes]
        got = evaluate(shuffled, CFG)
        assert got.ap == pytest.approx(base.ap, abs=1e-12)
        assert got.mr2 == pytest.approx(base.mr2, abs=1e-12)
        assert got.ji == pytest.approx(base.ji, abs=1e-12)


class TestDensity:
    def test_counts(self):
        s1 = scene("a", [gt(0, 0, 10, 10), gt(0, 2.5, 10, 12.5),
                         gt(100, 100, 110, 110)])
        s2 = scene("b", [gt(0, 0, 10, 10)])
        d = density_stats([s1, s2])
        assert d.objects_per_image == 2.0
        assert d.overlaps_per_image == 0.5

    def test_empty(self):
        assert density_stats([]).objects_per_image == 0.0


def oracle_scenes(rng, n_scenes):
    """Crowded two-class scenes for the oracle comparisons: clusters of
    overlapping ground truths (about 15% ignored), 0-2 detections per ground
    truth plus strays, scores on a 0.1 grid so ties are common, and every
    sixth image without ground truths, every sixth without detections."""
    def score():
        return round(int(rng.integers(1, 10)) / 10, 1)

    scenes = []
    for i in range(n_scenes):
        gts, dets = [], []
        if i % 6 != 0:
            for _ in range(int(rng.integers(1, 5))):
                x, y = rng.uniform(0, 200, 2)
                w, h = rng.uniform(10, 40, 2)
                for _ in range(int(rng.integers(1, 4))):
                    dx, dy = rng.uniform(-0.3, 0.3, 2) * (w, h)
                    gts.append(gt(x + dx, y + dy, x + dx + w, y + dy + h,
                                  class_id=int(rng.integers(1, 3)),
                                  ignore=bool(rng.random() < 0.15)))
        if i % 6 != 1:
            for g in gts:
                b = g.box
                for _ in range(int(rng.integers(0, 3))):
                    jx, jy = rng.uniform(-0.25, 0.25, 2) * (b.width, b.height)
                    cls = g.class_id if rng.random() < 0.9 else 3 - g.class_id
                    dets.append(det(b.x1 + jx, b.y1 + jy, b.x2 + jx, b.y2 + jy,
                                    score(), class_id=cls))
            for _ in range(int(rng.integers(0, 3))):
                x, y = rng.uniform(0, 200, 2)
                dets.append(det(x, y, x + rng.uniform(10, 40), y + rng.uniform(10, 40),
                                score(), class_id=int(rng.integers(1, 3))))
        scenes.append(scene(f"o{i}", gts, dets))
    return scenes


# The one protocol: JI over a maximum matching, all-point AP.
ORACLE_CFGS = {"optimal-all_points": EvalConfig()}


def oracle_datasets():
    """Quantized crowded scenes, plus continuous-score two-class scenes
    where nearly every score is a distinct threshold."""
    for seed in range(3):
        yield oracle_scenes(np.random.default_rng(100 + seed), 60)
    yield random_scenes(np.random.default_rng(200), 25, n_classes=2)


class TestOracleEquivalence:
    """Every public metric equals the original per-metric loops exactly."""

    def test_match_greedy(self):
        for scenes in oracle_datasets():
            for s in scenes:
                got = one_image(s.gts, s.dets)
                want = oracle.match_greedy(s.dets, s.gts, 0.5)
                for field in ("det_flags", "det_match", "gt_matched"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert g.dtype == w.dtype and np.array_equal(g, w), field

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS)
    def test_metrics(self, cfg):
        for scenes in oracle_datasets():
            want_ji, want_thr = oracle.best_ji(scenes, cfg)
            rep = evaluate(scenes, cfg)
            assert rep.ap == oracle.average_precision(scenes, cfg)
            assert average_precision(scenes, cfg) == rep.ap
            assert rep.mr2 == oracle.mr2(scenes, cfg) == mr2(scenes, cfg)
            assert (rep.ji, rep.ji_best_threshold) == (want_ji, want_thr)
            assert best_ji(scenes, cfg) == (want_ji, want_thr)
            recall = (rep.recall_total, rep.recall_sparse, rep.recall_crowd)
            assert recall == oracle.recall_split(scenes, cfg, want_thr)
            for r in recall:
                assert type(r.matched) is int and type(r.total) is int
            scores = sorted({d.score for s in scenes for d in s.dets})
            for thr in [0.0, 0.55, math.inf, *scores[::len(scores) // 8 + 1]]:
                assert jaccard_index(scenes, cfg, thr) == \
                    oracle.jaccard_index(scenes, cfg, thr)
                assert recall_split(scenes, cfg, thr) == \
                    oracle.recall_split(scenes, cfg, thr)

    def test_scenes_cover_the_hard_cases(self):
        scenes = oracle_scenes(np.random.default_rng(100), 60)
        flags = np.concatenate([one_image(s.gts, s.dets).det_flags
                                for s in scenes])
        assert {TP, FP, IGNORED} <= set(flags.tolist())
        assert any(not s.gts for s in scenes) and any(not s.dets for s in scenes)
        assert any(g.class_id == 2 for s in scenes for g in s.gts)
        # Some image has more maximum-matching pairs than greedy TPs.
        ev = Evaluation.of_arrays([SceneArrays.from_record(s) for s in scenes],
                                  CFG)
        assert ev.gains.sum() > np.count_nonzero(ev.det_flags == TP)


def chain_adjacency(n):
    """Left vertex t < n-1 joins right vertices t and t+1; the last left
    vertex joins only right vertex 0. Admitted in index order, each left
    vertex takes its first right vertex, and the last one completes the
    matching only through an augmenting path over every vertex."""
    return [[t, t + 1] for t in range(n - 1)] + [[0]]


def scipy_matching_size(adj, n_right):
    rows = [i for i, nbrs in enumerate(adj) for _ in nbrs]
    cols = [j for nbrs in adj for j in nbrs]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(len(adj), n_right))
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


class TestAugmentingChain:
    N = 3000   # 6,000 vertices on the final augmenting path

    def test_long_chain_needs_no_recursion(self):
        adj = chain_adjacency(self.N)
        assert sys.getrecursionlimit() < self.N
        gains = _max_matching_gains(adj, range(self.N), self.N)
        assert gains[-1] == 1
        assert int(gains.sum()) == scipy_matching_size(adj, self.N) == self.N
        with pytest.raises(RecursionError):
            match_right = [-1] * self.N
            for u in range(self.N):
                oracle._augment(u, adj, match_right, [False] * self.N)

    def test_chain_of_boxes_through_the_public_api(self):
        # gt t spans [5t, 5t+10]; det t sits 2 px right of it, so it has IoU
        # 0.67 with gt t and 0.54 with gt t+1, and none with any other gt.
        n = 1200
        gts = [gt(5 * t, 0, 5 * t + 10, 10) for t in range(n)]
        dets = [det(5 * t + 2, 0, 5 * t + 12, 10, 0.9) for t in range(n - 1)]
        dets.append(det(-2, 0, 8, 10, 0.5))
        s = scene("chain", gts, dets)
        assert jaccard_index([s], CFG, 0.0) == 1.0
        assert best_ji([s], CFG) == (1.0, 0.5)
        with pytest.raises(RecursionError):
            oracle.jaccard_index([s], CFG, 0.0)


# Corners on a small integer grid: duplicate boxes, boxes sharing an x-edge,
# zero-area boxes and pair IoUs of exactly 1/4, 1/3 and 1/2 are common.
_grid_box = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 4),
                      st.integers(0, 4)).map(
    lambda b: (float(b[0]), float(b[1]), float(b[0] + b[2]), float(b[1] + b[3])))
_THRESHOLDS = (0.25, 1 / 3, 0.5, 0.7)


@st.composite
def _image(draw, sid):
    gts = [gt(*draw(_grid_box), class_id=draw(st.integers(1, 2)),
              ignore=draw(st.sampled_from([False, False, False, True])))
           for _ in range(draw(st.integers(0, 6)))]
    boxes = [g.box.as_tuple() for g in gts]
    dets = []
    for _ in range(draw(st.integers(0, 8))):
        box = (draw(st.sampled_from(boxes)) if boxes and draw(st.booleans())
               else draw(_grid_box))
        score = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                               st.floats(0.0, 1.0)))
        dets.append(det(*box, score=score, class_id=draw(st.integers(1, 2))))
    return scene(sid, gts, dets)


_datasets = st.integers(0, 4).flatmap(
    lambda n: st.tuples(*(_image(f"i{k}") for k in range(n))).map(list))


def _raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


class TestSparsePass:
    """Multi-image evaluation and every view against the dense oracle loops,
    and the sparse candidate lists against the dense ranking rule."""

    @settings(max_examples=300, deadline=None)
    @given(scenes=_datasets, iou_thresh=st.sampled_from(_THRESHOLDS),
           crowd_iou=st.sampled_from((0.0, *_THRESHOLDS)),
           chunk=st.sampled_from([1, 7, geometry._SWEEP_PAIRS]))
    def test_equals_the_dense_oracle(self, scenes, iou_thresh, crowd_iou, chunk):
        cfg = EvalConfig(iou_thresh=iou_thresh)
        with patch.object(geometry, "_SWEEP_PAIRS", chunk):
            ev = Evaluation.of_arrays([SceneArrays.from_record(s) for s in scenes], cfg)
            self._check(scenes, cfg, crowd_iou, ev)

    def _check(self, scenes, cfg, crowd_iou, ev):
        if any(not g.ignore for s in scenes for g in s.gts):
            assert ev.report() == evaluate(scenes, cfg)
            assert ev.average_precision() == oracle.average_precision(scenes, cfg)
            assert ev.mr2() == oracle.mr2(scenes, cfg)
        else:
            for fn in (evaluate, average_precision, mr2, oracle.average_precision):
                assert _raises_value_error(fn, scenes, cfg)
        assert best_ji(scenes, cfg) == ev.best_ji() == oracle.best_ji(scenes, cfg)
        thresholds = {0.0, 0.5, math.inf, *(d.score for s in scenes for d in s.dets)}
        for t in sorted(thresholds)[::3]:
            assert ev.jaccard_index(t) == jaccard_index(scenes, cfg, t) \
                == oracle.jaccard_index(scenes, cfg, t)
            want = oracle.recall_split(scenes, cfg, t, crowd_iou)
            assert ev.recall_split(t, crowd_iou) == want
            assert recall_split(scenes, cfg, t, crowd_iou) == want
        density = density_stats(scenes, crowd_iou)
        assert (density.objects_per_image, density.overlaps_per_image) == \
            oracle.density_stats(scenes, crowd_iou)
        g0 = d0 = 0
        for s in scenes:
            n_gt, n_det = len(s.gts), len(s.dets)
            got = one_image(s.gts, s.dets, cfg.iou_thresh)
            assert got.crowd_flags(crowd_iou).tolist() == \
                oracle.crowd_flags(s.gts, crowd_iou).tolist() == \
                ev.crowd_flags(crowd_iou)[g0:g0 + n_gt].tolist()
            want = oracle.match_greedy(s.dets, s.gts, cfg.iou_thresh)
            for field in ("det_flags", "det_match", "gt_matched"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and np.array_equal(g, w), field
            assert ev.det_flags[d0:d0 + n_det].tolist() == want.det_flags.tolist()
            # The dense ranking rule: same class, not ignored, IoU >= thresh,
            # highest IoU first, ties to the lowest index.
            ious = iou_matrix(boxes_to_array([d.box for d in s.dets]),
                              boxes_to_array([g.box for g in s.gts]))
            usable = (np.array([[d.class_id == g.class_id and not g.ignore
                                 for g in s.gts] for d in s.dets], dtype=bool)
                      .reshape(ious.shape))
            dense = oracle.ranked_overlaps(np.where(usable, ious, -1.0),
                                           cfg.iou_thresh)
            assert [[j - g0 for j in ev.candidates[d0 + i]] for i in range(n_det)] \
                == dense
            g0, d0 = g0 + n_gt, d0 + n_det

    def test_the_grid_meets_the_boundaries(self):
        # IoU exactly at the threshold counts for matching (>=) and not for
        # crowding (>); shared x-edges and zero-area boxes never overlap.
        half = [gt(0, 0, 4, 2), gt(0, 0, 4, 4), gt(4, 0, 8, 4), gt(2, 2, 2, 6)]
        dets = [det(0, 0, 4, 2, 0.9), det(0, 0, 4, 2, 0.8), det(2, 2, 2, 6, 0.7)]
        s = scene("edge", half, dets)
        ev = one_image(half, dets)
        assert ev.det_match.tolist() == [0, 1, -1]
        assert ev.crowd_flags(CROWD_IOU).tolist() == [False] * 4
        assert ev.crowd_flags(0.49).tolist() == [True, True, False, False]
        assert density_stats([s], 0.0).overlaps_per_image == 1.0
        assert ev.candidates == [[0, 1], [0, 1], []]
        # The sweep lists each pair whose x-extents meet in more than an
        # edge: 8 det/GT pairs (the zero-width boxes sit inside two boxes'
        # extents) and 3 GT/GT pairs.
        assert ev.counters() == {"images": 1, "gts": 4, "dets": 3,
                                 "candidate_pairs": 11,
                                 "det_gt_pairs_above_iou": 4, "crowd_pairs": 0}

    def test_negative_crowd_iou_is_rejected(self):
        with pytest.raises(ValueError, match="crowd_iou"):
            one_image([gt(0, 0, 1, 1)]).crowd_flags(-0.1)
        with pytest.raises(ValueError, match="iou_thresh"):
            one_image([gt(0, 0, 1, 1)], [], 0.0)


@st.composite
def _kept(draw, image, scores):
    """Suppression-style output of a batch: a drawn subset of the rows,
    image by image, each image's rows in a drawn order, with scores decayed
    as Soft-NMS does (a factor in [0, 1], often 1 or 1/2, so ties stay)."""
    n = len(image)
    picked = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                      dtype=bool)
    rows = np.flatnonzero(picked)
    shuffle = np.array(draw(st.permutations(range(len(rows)))), dtype=np.intp)
    keep = rows[np.lexsort((shuffle, image[rows]))]
    factors = draw(st.lists(st.one_of(st.sampled_from([1.0, 0.5]),
                                      st.floats(0.0, 1.0)),
                            min_size=len(keep), max_size=len(keep)))
    return keep, scores[keep] * np.array(factors, dtype=np.float64)


class TestMaskedPairs:
    """An evaluation of some rows of a pair set swept at a lower threshold
    against a pass over those rows alone."""

    @settings(max_examples=300, deadline=None)
    @given(scenes=_datasets, swept_at=st.sampled_from([1 / 3, 0.5]),
           data=st.data())
    def test_a_mask_equals_a_pass_over_the_kept_rows(self, scenes, swept_at,
                                                     data):
        arrays = [SceneArrays.from_record(s) for s in scenes]
        dets, image = Detections.concat([a.dets for a in arrays])
        keep, scores = data.draw(_kept(image, dets.scores))
        pairs = PairSet(Truth(arrays), dets, image, swept_at)
        kept = dets.take(keep, scores)
        alone = [replace(a, dets=kept.take(np.flatnonzero(image[keep] == m),
                                           scores[image[keep] == m]))
                 for m, a in enumerate(arrays)]
        for t in (0.5, 0.75):
            cfg = EvalConfig(iou_thresh=t)
            got = Evaluation(cfg, pairs, keep, scores)
            want = Evaluation.of_arrays(alone, cfg)
            if want.n_gt:
                assert repr(got.report()) == repr(want.report())
            else:
                assert _raises_value_error(got.report)
            for field in ("det_flags", "det_match", "gt_matched"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and np.array_equal(g, w), field
            assert got.candidates == want.candidates
            assert got.det_gt_above == want.det_gt_above

    def test_a_threshold_below_the_sweep_is_rejected(self):
        arrays = [SceneArrays.from_record(scene("", [gt(0, 0, 4, 4)],
                                                [det(0, 0, 4, 2, 0.9)]))]
        dets, image = Detections.concat([a.dets for a in arrays])
        pairs = PairSet(Truth(arrays), dets, image, 0.5)
        with pytest.raises(ValueError, match="the sweep at IoU 0.5"):
            Evaluation(EvalConfig(iou_thresh=0.4), pairs, np.arange(1),
                       dets.scores)
        # IoU 1/2 is a pair at 0.5 and none at 0.75.
        assert Evaluation(CFG, pairs, np.arange(1),
                          dets.scores).det_flags.tolist() == [TP]
        assert Evaluation(EvalConfig(iou_thresh=0.75), pairs, np.arange(1),
                          dets.scores).det_flags.tolist() == [FP]


class TestScale:
    def test_wide_image_needs_no_dense_matrix(self):
        # 20,000 disjoint ground truths, each with one detection 1 px to its
        # right (IoU 56/72): a dense 20k x 20k float64 matrix is 3.2 GB.
        n = 20_000
        gts = [gt(10.0 * t, 0.0, 10.0 * t + 8.0, 8.0) for t in range(n)]
        dets = [det(10.0 * t + 1.0, 0.0, 10.0 * t + 9.0, 8.0, (t % 97 + 1) / 100)
                for t in range(n)]
        tracemalloc.start()
        try:
            rep = evaluate([scene("wide", gts, dets)], CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert (rep.ap, rep.ji) == (1.0, 1.0)
        assert rep.recall_total == RecallStats(n, n)
