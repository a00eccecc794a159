import math
from unittest.mock import patch

import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdset import geometry
from crowdset.assignment import GroundTruth, build_gt_set
from crowdset.geometry import (BBox, BoxDelta, GeometryError, boxes_to_array,
                               decode_delta, encode_delta, iou, iou_matrix,
                               overlaps, rank_pairs, ranked_overlaps)


def random_box(rng, lo=0.0, hi=100.0, min_size=1.0, max_size=40.0):
    x = rng.uniform(lo, hi)
    y = rng.uniform(lo, hi)
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    return BBox(x, y, x + w, y + h)


class TestBBox:
    def test_basic_properties(self):
        b = BBox(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0
        assert b.height == 6.0
        assert b.area == 18.0
        assert b.center == (2.5, 5.0)

    def test_zero_area_is_legal(self):
        b = BBox(3.0, 3.0, 3.0, 3.0)
        assert b.area == 0.0

    def test_inverted_box_rejected(self):
        with pytest.raises(GeometryError):
            BBox(5.0, 0.0, 4.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            BBox(0.0, 0.0, math.inf, 1.0)


class TestIou:
    def test_identity(self):
        a = BBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_partial_overlap_exact(self):
        # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3, abs=0)

    def test_zero_area_boxes(self):
        point = BBox(1, 1, 1, 1)
        assert iou(point, point) == 0.0
        assert iou(point, BBox(0, 0, 2, 2)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance_on_integer_grid(self, dx, dy):
        # Integer coordinates keep all float arithmetic exact.
        a = BBox(0, 0, 7, 5)
        b = BBox(3, 1, 9, 8)
        assert iou(a.shifted(dx, dy), b.shifted(dx, dy)) == iou(a, b)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        boxes_a = [random_box(rng) for _ in range(17)]
        boxes_b = [random_box(rng) for _ in range(23)]
        mat = iou_matrix(boxes_to_array(boxes_a), boxes_to_array(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == iou(a, b)

    def test_matrix_empty(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)


class TestRankedOverlaps:
    def test_threshold_inclusive_highest_first_ties_to_lowest_index(self):
        ious = np.array([[0.4, 0.7, 0.5, 0.7, 0.49],
                         [0.0, 0.0, 0.0, 0.0, 0.0]])
        assert ranked_overlaps(ious, 0.5) == [[1, 3, 2], []]

    def test_empty(self):
        assert ranked_overlaps(np.zeros((2, 0)), 0.5) == [[], []]
        assert ranked_overlaps(np.zeros((0, 3)), 0.5) == []

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                              st.integers(0, 6), st.integers(0, 6),
                              st.booleans()), max_size=12),
           st.tuples(st.integers(0, 10), st.integers(0, 10),
                     st.integers(1, 6), st.integers(1, 6)),
           st.sampled_from([0.3, 0.5, 1.0]))
    def test_same_order_as_build_gt_set(self, raw_gts, raw_prop, theta):
        # A coarse integer grid gives exact IoU ties and duplicate boxes.
        gts = [GroundTruth(box=BBox(x, y, x + w, y + h), ignore=ign)
               for x, y, w, h, ign in raw_gts]
        x, y, w, h = raw_prop
        proposal = BBox(x, y, x + w, y + h)
        ious = iou_matrix(boxes_to_array([proposal]),
                          boxes_to_array([g.box for g in gts]))
        ious[:, [g.ignore for g in gts]] = 0.0
        (ranked,) = ranked_overlaps(ious, theta)
        # build_gt_set ranks with ranked_overlaps itself; the scalar loop it
        # replaced is the independent reference.
        want = oracle.build_gt_set(proposal, gts, theta).entries
        assert [gts[j] for j in ranked] == list(want)
        assert build_gt_set(proposal, gts, theta).entries == want


class TestRankPairs:
    def test_ties_and_empty_rows(self):
        rows = np.array([2, 0, 2, 2, 0])
        cols = np.array([3, 4, 0, 1, 1])
        ious = np.array([0.6, 0.9, 0.8, 0.6, 0.9])
        assert rank_pairs(rows, cols, ious, 4) == [[1, 4], [], [0, 1, 3], []]
        assert rank_pairs(rows[:0], cols[:0], ious[:0], 2) == [[], []]

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_shuffled_triplets_rank_as_the_dense_matrix(self, n_rows, n_cols,
                                                         seed):
        rng = np.random.default_rng(seed)
        # Four IoU levels give ties; a row with nothing >= 0.5 stays empty.
        dense = rng.choice([0.0, 0.25, 0.5, 0.75], size=(n_rows, n_cols))
        rows, cols = np.nonzero(dense >= 0.5)
        shuffle = rng.permutation(len(rows))
        rows, cols = rows[shuffle], cols[shuffle]
        assert (rank_pairs(rows, cols, dense[rows, cols], n_rows)
                == ranked_overlaps(dense, 0.5))


class TestOverlaps:
    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.sampled_from([1, 3, geometry._SWEEP_PAIRS]))
    def test_the_kept_pairs_of_the_dense_matrix(self, seed, two_sets, grouped,
                                                chunk):
        rng = np.random.default_rng(seed)

        def boxes(n):
            # A coarse grid gives shared edges, duplicates and zero areas.
            xy = rng.integers(0, 12, size=(n, 2))
            return np.hstack([xy, xy + rng.integers(0, 6, size=(n, 2))]
                             ).astype(np.float64)

        a = boxes(int(rng.integers(0, 10)))
        b = boxes(int(rng.integers(0, 10))) if two_sets else None
        ga = rng.integers(0, 2, len(a)) if grouped else None
        gb = rng.integers(0, 2, len(b)) if grouped and two_sets else None
        with patch.object(geometry, "_SWEEP_PAIRS", chunk):
            i, j, ious, swept = overlaps(a, lambda i, j, ov: ov >= 0.2,
                                         ga, b, gb)
        other, g_other = (a, ga) if b is None else (b, gb)
        dense = iou_matrix(a, other)
        want = dense >= 0.2
        if grouped:
            want &= ga[:, None] == g_other[None, :]
        if b is None:
            want = np.triu(want, 1)
            i, j = np.minimum(i, j), np.maximum(i, j)
        assert sorted(zip(i.tolist(), j.tolist())) == list(zip(*np.nonzero(want)))
        assert ious.tolist() == dense[i, j].tolist()
        assert swept >= len(i)


class TestDeltas:
    def test_encode_identity(self):
        b = BBox(0, 0, 10, 10)
        assert encode_delta(b, b) == BoxDelta(0.0, 0.0, 0.0, 0.0)

    def test_encode_pure_shift(self):
        d = encode_delta(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10))
        assert d == BoxDelta(0.5, 0.0, 0.0, 0.0)

    def test_encode_width_doubling(self):
        d = encode_delta(BBox(0, 0, 10, 10), BBox(0, 0, 20, 10))
        assert d.dx == 0.5
        assert d.dy == 0.0
        assert d.dw == pytest.approx(math.log(2), abs=1e-15)
        assert d.dh == 0.0

    def test_decode_zero_is_identity(self):
        b = BBox(2, 3, 12, 9)
        out = decode_delta(b, BoxDelta(0, 0, 0, 0))
        assert np.allclose(out.as_tuple(), b.as_tuple(), atol=1e-12)

    def test_decode_inverts_width_doubling(self):
        out = decode_delta(BBox(0, 0, 10, 10), BoxDelta(0.5, 0.0, math.log(2), 0.0))
        assert np.allclose(out.as_tuple(), (0, 0, 20, 10), atol=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            proposal = random_box(rng)
            target = random_box(rng)
            back = decode_delta(proposal, encode_delta(proposal, target))
            worst = max(worst, max(abs(u - v) for u, v in
                                   zip(back.as_tuple(), target.as_tuple())))
        assert worst < 1e-9

    def test_zero_size_proposal_rejected(self):
        flat = BBox(0, 0, 10, 0)
        with pytest.raises(GeometryError):
            encode_delta(flat, BBox(0, 0, 10, 10))
        with pytest.raises(GeometryError):
            encode_delta(BBox(0, 0, 10, 10), flat)
        with pytest.raises(GeometryError):
            decode_delta(flat, BoxDelta(0, 0, 0, 0))

    def test_non_finite_delta_rejected(self):
        with pytest.raises(GeometryError):
            BoxDelta(0.0, 0.0, math.nan, 0.0)
