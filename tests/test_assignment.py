import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdset.assignment import (BACKGROUND_CLASS, GroundTruth, GtSet,
                                 build_gt_set, gt_columns, gt_set_members,
                                 pad_to_k, truncate_top_k)
from crowdset.geometry import BBox, boxes_to_array, iou, iou_matrix
from metrics_oracle import as_lists, ranked_overlaps

B = BBox


def gt(x1, y1, x2, y2, class_id=1, ignore=False):
    return GroundTruth(box=B(x1, y1, x2, y2), class_id=class_id, ignore=ignore)


class TestBuildGtSet:
    def test_identical_box_is_member(self):
        s = build_gt_set(B(0, 0, 10, 10), [gt(0, 0, 10, 10)], theta=0.5)
        assert s.n_real == 1

    def test_disjoint_box_excluded(self):
        s = build_gt_set(B(0, 0, 10, 10), [gt(100, 100, 110, 110)], theta=0.5)
        assert s.n_real == 0

    def test_membership_needs_theta(self):
        # iou(proposal, gt0) = 1/3 < 0.5, iou(proposal, gt1) = 1 >= 0.5
        s = build_gt_set(B(0, 0, 2, 2), [gt(1, 0, 3, 2), gt(0, 0, 2, 2)], theta=0.5)
        assert s.n_real == 1
        assert s.entries[0].box == B(0, 0, 2, 2)

    def test_ordering_descending_iou_ties_by_index(self):
        proposal = B(0, 0, 10, 10)
        near = gt(0, 1, 10, 11)       # iou = 9/11
        exact = gt(0, 0, 10, 10)      # iou = 1
        near_twin = gt(0, 1, 10, 11)  # same iou as near, later index
        s = build_gt_set(proposal, [near, exact, near_twin], theta=0.5)
        assert [e.box for e in s.entries] == [exact.box, near.box, near_twin.box]

    def test_ignored_never_member(self):
        s = build_gt_set(B(0, 0, 10, 10), [gt(0, 0, 10, 10, ignore=True)], theta=0.5)
        assert s.n_real == 0

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.uniform(0, 50, 2)
            proposal = B(x, y, x + rng.uniform(5, 30), y + rng.uniform(5, 30))
            gts = []
            for _ in range(8):
                gx, gy = rng.uniform(0, 50, 2)
                gts.append(gt(gx, gy, gx + rng.uniform(5, 30), gy + rng.uniform(5, 30)))
            lo = build_gt_set(proposal, gts, theta=0.3)
            hi = build_gt_set(proposal, gts, theta=0.6)
            lo_boxes = {e.box.as_tuple() for e in lo.entries}
            hi_boxes = {e.box.as_tuple() for e in hi.entries}
            assert hi_boxes <= lo_boxes

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            build_gt_set(B(0, 0, 1, 1), [], theta=0.0)
        with pytest.raises(ValueError):
            build_gt_set(B(0, 0, 1, 1), [], theta=1.5)


class TestPadding:
    def make(self, n_real):
        proposal = B(0, 0, 10, 10)
        gts = [gt(0, 0, 10, 10), gt(0, 1, 10, 11), gt(1, 0, 11, 10)][:n_real]
        return build_gt_set(proposal, gts, theta=0.5)

    def test_pad_empty_to_two_dummies(self):
        s = pad_to_k(self.make(0), 2)
        assert s.n_slots == 2 and s.n_real == 0 and s.entries == ()

    def test_pad_one_real(self):
        s = pad_to_k(self.make(1), 2)
        assert (s.n_slots, s.n_real) == (2, 1)
        assert [(g.class_id, g.box) for g in s.entries] == [(1, B(0, 0, 10, 10))]

    def test_overflow_reports_excess(self):
        with pytest.raises(ValueError, match=r"^ground-truth set has 3 real "
                           r"members but only 2 slots \(excess 1\)$"):
            pad_to_k(self.make(3), 2)

    def test_idempotent_at_size(self):
        s = pad_to_k(self.make(1), 2)
        assert pad_to_k(s, 2) == s

    def test_real_entries_unchanged_and_ordered(self):
        before = self.make(2)
        after = pad_to_k(before, 3)
        assert after.entries == before.entries

    def test_truncate_keeps_top_iou(self):
        s = self.make(3)
        cut = truncate_top_k(s, 2)
        assert cut.n_real == 2 and cut.n_slots == 2
        assert cut.entries == s.entries[:2]
        ious = [iou(s.source_proposal, e.box) for e in s.entries]
        assert ious == sorted(ious, reverse=True)

    @pytest.mark.parametrize("fit", [pad_to_k, truncate_top_k])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, fit, k):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            fit(self.make(1), k)


def max_cardinality(scenes, theta=0.5):
    """Largest ground-truth set over the scenes, each real box standing in
    as a proposal; 0 without one."""
    sizes = [0]
    for gts in scenes:
        boxes, _, ignore = gt_columns(gts)
        proposals, _, _ = gt_set_members(boxes[~ignore], boxes, ignore, theta)
        sizes += np.bincount(proposals).tolist()
    return max(sizes)


class TestMaxCardinality:
    def test_empty_dataset(self):
        assert max_cardinality([]) == 0

    def test_isolated_boxes(self):
        scenes = [[gt(0, 0, 10, 10)], [gt(0, 0, 5, 5), gt(50, 50, 60, 60)]]
        assert max_cardinality(scenes) == 1

    def test_mutual_pair(self):
        # iou = 75 / 125 = 0.6
        assert max_cardinality([[gt(0, 0, 10, 10), gt(0, 2.5, 10, 12.5)]]) == 2

    def test_triple_cluster(self):
        # pairwise IoUs: 85/115, 85/115, 70/130 -- all >= 0.5
        scenes = [[gt(0, 0, 10, 10), gt(0, 1.5, 10, 11.5), gt(0, 3, 10, 13)]]
        assert max_cardinality(scenes) == 3


def grid_scene(rng):
    """GTs on an integer grid with shifted copies and exact duplicates (IoU
    ties), some ignored, plus proposals mostly on or next to them."""
    gts = []
    for _ in range(rng.integers(0, 6)):
        x, y, w, h = rng.integers(0, 20), rng.integers(0, 20), *rng.integers(0, 9, 2)
        for dx, dy in [(0, 0)] + [rng.integers(-1, 2, 2) for _ in range(rng.integers(0, 3))]:
            gts.append(gt(x + dx, y + dy, x + dx + w, y + dy + h,
                          ignore=bool(rng.random() < 0.2)))
    proposals = []
    for _ in range(rng.integers(0, 6)):
        if gts and rng.random() < 0.8:
            b = gts[rng.integers(len(gts))].box
            dx, dy = rng.integers(-1, 2, 2)
            proposals.append(B(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy))
        else:
            x, y, w, h = rng.integers(0, 20, 4)
            proposals.append(B(x, y, x + w, y + h))
    return gts, proposals


class TestGtSetMembers:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 1.0]))
    def test_batch_equals_the_scalar_loop(self, seed, theta):
        gts, proposals = grid_scene(np.random.default_rng(seed))
        boxes, _, ignore = gt_columns(gts)
        rows = as_lists(gt_set_members(boxes_to_array(proposals), boxes,
                                       ignore, theta), len(proposals))
        for p, row in zip(proposals, rows):
            want = oracle.build_gt_set(p, gts, theta).entries
            assert tuple(gts[j] for j in row) == want
            assert all(not gts[j].ignore for j in row)
            assert build_gt_set(p, gts, theta).entries == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 1.0]))
    def test_grouped_sweep_equals_each_image_alone(self, seed, theta):
        rng = np.random.default_rng(seed)
        images = [grid_scene(rng) for _ in range(rng.integers(1, 5))]
        columns = [gt_columns(gts) for gts, _ in images]
        proposals = [boxes_to_array(p).reshape(-1, 4) for _, p in images]
        p_all = np.concatenate(proposals)
        rows = as_lists(gt_set_members(
            p_all, np.concatenate([c[0] for c in columns]),
            np.concatenate([c[2] for c in columns]), theta,
            np.repeat(np.arange(len(images)), list(map(len, proposals))),
            np.repeat(np.arange(len(images)), [len(c[0]) for c in columns])),
            len(p_all))
        offset, want, dense = 0, [], []
        for (boxes, _, ignore), p in zip(columns, proposals):
            want += [[offset + j for j in row] for row in as_lists(
                gt_set_members(p, boxes, ignore, theta), len(p))]
            ious = iou_matrix(p, boxes)
            ious[:, ignore] = -1.0
            dense += [[offset + j for j in row]
                      for row in ranked_overlaps(ious, theta)]
            offset += len(boxes)
        assert rows == want == dense

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_max_cardinality_equals_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        scenes = [grid_scene(rng)[0] for _ in range(3)]
        want = max((oracle.build_gt_set(g.box, gts, 0.5).n_real
                    for gts in scenes for g in gts if not g.ignore), default=0)
        assert max_cardinality(scenes) == want

    def test_theta_checked_before_any_overlap(self):
        with pytest.raises(ValueError, match="theta must be in"):
            gt_set_members(np.zeros((0, 4)), np.zeros((0, 4)),
                           np.zeros(0, dtype=bool), 0.0)


class TestGtSetValidation:
    def test_member_below_theta_rejected(self):
        with pytest.raises(ValueError):
            GtSet(entries=(gt(50, 50, 60, 60),), source_proposal=B(0, 0, 10, 10),
                  theta=0.5, n_slots=1)

    @pytest.mark.parametrize("member, n_slots, message", [
        (gt(0, 0, 10, 10), 0, "n_slots cannot be smaller"),
        (gt(0, 0, 10, 10, ignore=True), 1, "ignored ground truths cannot"),
    ])
    def test_inconsistent_set_rejected(self, member, n_slots, message):
        with pytest.raises(ValueError, match=message):
            GtSet(entries=(member,), source_proposal=B(0, 0, 10, 10),
                  theta=0.5, n_slots=n_slots)

    def test_background_class_rejected_on_real_instance(self):
        with pytest.raises(ValueError):
            GroundTruth(box=B(0, 0, 1, 1), class_id=BACKGROUND_CLASS)
