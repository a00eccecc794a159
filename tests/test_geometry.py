import math
import warnings
from unittest.mock import patch

import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdset import geometry
from crowdset.assignment import GroundTruth, build_gt_set, gt_set_members
from crowdset.geometry import (BBox, BoxDelta, GeometryError, boxes_to_array,
                               decode_delta, encode_delta, invalid_boxes, iou,
                               iou_matrix, overlaps, rank_pairs)
from metrics_oracle import as_lists, ranked_overlaps


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

    def test_box_whose_doubled_area_overflows_rejected(self):
        # Its area, 1e308, is finite, but two such areas sum to inf: the
        # union of the box with itself would overflow.
        with pytest.raises(GeometryError, match="box area overflows"):
            BBox(0.0, 0.0, 1e154, 1e154)
        with pytest.raises(GeometryError, match="box area overflows"):
            BBox(-1e308, 0.0, 1e308, 1.0)  # its width overflows

    def test_invalid_boxes_is_the_bbox_rule(self):
        rows = [[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1e153, 1e153],
                [0, 0, 1e154, 1e154], [-1e308, 0, 1e308, 1], [0, 0, 1e308, 0],
                [2, 0, 1, 1], [0, 2, 1, 1], [math.nan, 0, 1, 1],
                [0, 0, math.inf, 1], [1e200, 1e200, 2e200, 2e200]]
        want = []
        for row in rows:
            try:
                BBox(*row)
                want.append(False)
            except GeometryError:
                want.append(True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invalid_boxes(np.array(rows, dtype=np.float64))
        assert got.tolist() == want == [False, False, False, True, True, False,
                                        True, True, True, True, True]


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

    def test_the_kernels_agree_on_valid_boxes_at_the_bound(self):
        # The largest valid boxes: every intersection and union stays
        # finite, and the gap between two of them far apart clips to 0.
        b = BBox(0.0, 0.0, 1e153, 1e153)
        far = [BBox(-1e308, 0.0, -9e307, 1.0), BBox(9e307, 0.0, 1e308, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou(b, b) == iou_matrix(boxes_to_array([b]),
                                           boxes_to_array([b]))[0, 0] == 1.0
            assert iou_matrix(boxes_to_array(far),
                              boxes_to_array(far)).tolist() == [[1.0, 0.0],
                                                                [0.0, 1.0]]
            assert iou(*far) == 0.0

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
        # The dense rule and build_gt_set's sweep must both give the scalar
        # loop's order.
        want = oracle.build_gt_set(proposal, gts, theta).entries
        assert [gts[j] for j in ranked] == list(want)
        assert build_gt_set(proposal, gts, theta).entries == want


class TestRankPairs:
    def test_ties_and_empty_rows(self):
        rows = np.array([2, 0, 2, 2, 0])
        cols = np.array([3, 4, 0, 1, 1])
        ious = np.array([0.6, 0.9, 0.8, 0.6, 0.9])
        assert [a.tolist() for a in rank_pairs(rows, cols, ious)] == \
            [[0, 0, 2, 2, 2], [1, 4, 0, 1, 3], [0, 1, 0, 1, 2]]
        assert [a.tolist() for a in rank_pairs(rows[:0], cols[:0], ious[:0])] \
            == [[], [], []]

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_shuffled_triplets_rank_as_the_dense_matrix(self, n_rows, n_cols,
                                                         seed):
        rng = np.random.default_rng(seed)
        # Four IoU levels give ties; a row with nothing >= 0.5 stays empty.
        dense = rng.choice([0.0, 0.25, 0.5, 0.75], size=(n_rows, n_cols))
        rows, cols = np.nonzero(dense >= 0.5)
        shuffle = rng.permutation(len(rows))
        rows, cols = rows[shuffle], cols[shuffle]
        assert (as_lists(rank_pairs(rows, cols, dense[rows, cols]), n_rows)
                == ranked_overlaps(dense, 0.5))


class TestOverlaps:
    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.sampled_from([1, 3, geometry._SWEEP_PAIRS]))
    def test_the_kept_pairs_of_the_dense_matrix(self, seed, two_sets, grouped,
                                                chunk):
        rng = np.random.default_rng(seed)

        stacked = rng.random() < 0.5

        def boxes(n):
            # A coarse grid gives shared edges, duplicates and zero areas.
            # Stacked boxes all overlap in x, and their y-extents are often
            # disjoint, only touch or have zero height.
            xy = rng.integers(0, 12, size=(n, 2))
            wh = rng.integers(0, 6, size=(n, 2))
            if stacked:
                xy[:, 0] = rng.integers(0, 2, n)
                wh[:, 0] = rng.integers(3, 6, n)
                wh[:, 1] = rng.integers(0, 3, n)
            return np.hstack([xy, xy + wh]).astype(np.float64)

        a = boxes(int(rng.integers(0, 10)))
        b = boxes(int(rng.integers(0, 10))) if two_sets else None
        ga = rng.integers(0, 2, len(a)) if grouped else None
        gb = rng.integers(0, 2, len(b)) if grouped and two_sets else None
        other, g_other = (a, ga) if b is None else (b, gb)
        seen = []

        def keep(i, j, ov):
            seen.append((a[i], other[j]))
            return ov >= 0.2

        with patch.object(geometry, "_SWEEP_PAIRS", chunk):
            i, j, ious, swept = overlaps(a, keep, ga, b, gb)
            listed = sum(len(p) for p, _ in geometry.sweep_pairs(a, ga, b, gb))
        assert swept == listed
        for first, second in seen:  # keep sees only pairs that meet
            assert (np.minimum(first[:, 2:], second[:, 2:])
                    > np.maximum(first[:, :2], second[:, :2])).all()
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

    @pytest.mark.parametrize("ga, gb", [([0, 1], None), (None, [0, 1])])
    def test_groups_of_one_set_alone_are_rejected(self, ga, gb):
        # Box i of a overlaps box i of b, in x and in y. Both sets grouped,
        # or neither, pair them; one set alone grouped used to pair none.
        a = np.array([[0, 0, 10, 10], [20, 0, 30, 10]], dtype=np.float64)
        b = a + 1.0
        for both in ((None, None), ([0, 1], [0, 1])):
            chunks = list(geometry.sweep_pairs(a, both[0], b, both[1]))
            i, j = (np.concatenate(c) for c in zip(*chunks))
            assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 1)]
        ga, gb = (None if g is None else np.array(g) for g in (ga, gb))
        for call in (lambda: list(geometry.sweep_pairs(a, ga, b, gb)),
                     lambda: overlaps(a, lambda i, j, ov: ov > 0, ga, b, gb),
                     lambda: gt_set_members(a, b, np.zeros(2, dtype=bool),
                                            0.5, ga, gb)):
            with pytest.raises(ValueError, match="given together"):
                call()

    def test_keep_sees_only_the_pairs_that_meet_in_both_axes(self):
        a = np.array([[0, 0, 10, 10],
                      [0, 10, 10, 20],   # touches box 0 in y
                      [0, 30, 10, 40],   # y-disjoint from all
                      [2, 5, 8, 5],      # zero height, inside box 0
                      [5, 0, 5, 10],     # zero width, inside box 0
                      [5, 2, 15, 8]], dtype=np.float64)
        seen = []

        def keep(i, j, ov):
            seen.extend(zip(i.tolist(), j.tolist(), ov.tolist()))
            return ov >= 0.0

        i, j, ious, swept = overlaps(a, keep)
        assert [(min(p, q), max(p, q), v) for p, q, v in seen] == [
            (0, 5, 30 / 130)]
        assert (i.tolist(), j.tolist(), ious.tolist()) == ([0], [5], [30 / 130])
        assert swept == 14  # every pair but box 4 with box 5


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
