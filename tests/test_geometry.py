import math

import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, strategies as st

from crowdset.assignment import GroundTruth, build_gt_set
from crowdset.geometry import (BBox, BoxDelta, GeometryError, boxes_to_array,
                               decode_delta, encode_delta, iou, iou_matrix,
                               ranked_overlaps)


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
