import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import suppression_oracle as oracle
from crowdset import geometry, suppression
from crowdset.geometry import BBox, iou
from crowdset.suppression import (METHODS as METHOD_NAMES, Detection,
                                  Detections, OverlapGraph, SuppressionConfig,
                                  nms, set_nms, soft_nms)
from crowdset.synth import (DetectorSimParams, SceneParams, build_scenes,
                            simulate_detector)

B = BBox
NMS = SuppressionConfig(method="nms", iou_thresh=0.5)
SET = SuppressionConfig(method="set_nms", iou_thresh=0.5)
# Gaussian Soft-NMS acts on any overlap: a graph of it sweeps at IoU 0.
GAUSS = SuppressionConfig(method="soft_gaussian")


def det(x1, y1, x2, y2, score, class_id=1, pid=None, slot=0):
    return Detection(box=B(x1, y1, x2, y2), score=score, class_id=class_id,
                     proposal_id=pid, slot=slot)


def ids(dets):
    return [(d.proposal_id, d.slot) for d in dets]


_LIST_API = {"nms": nms, "set_nms": set_nms, "soft_linear": soft_nms,
             "soft_gaussian": soft_nms}


def suppress(dets, cfg):
    """The list-API function of ``cfg.method``."""
    return _LIST_API[cfg.method](dets, cfg)


def random_scene(rng, n=20, n_classes=1, distinct_pids=True):
    dets = []
    scores = rng.permutation(np.linspace(0.1, 0.95, n))  # distinct scores
    for i in range(n):
        x, y = rng.uniform(0, 60, 2)
        w, h = rng.uniform(5, 25, 2)
        dets.append(Detection(
            box=B(x, y, x + w, y + h), score=float(scores[i]),
            class_id=int(rng.integers(1, n_classes + 1)),
            proposal_id=i if distinct_pids else int(rng.integers(0, max(1, n // 3))),
            slot=0 if distinct_pids else i,
        ))
    return dets


class TestNms:
    def test_exact_duplicate_keeps_top(self):
        out = nms([det(0, 0, 10, 10, 0.9, pid=0),
                   det(0, 0, 10, 10, 0.8, pid=1)], NMS)
        assert len(out) == 1 and out[0].score == 0.9

    def test_disjoint_kept(self):
        out = nms([det(0, 0, 10, 10, 0.9), det(50, 50, 60, 60, 0.8)], NMS)
        assert len(out) == 2

    def test_three_box_chain(self):
        # A-B iou 0.6, B-C iou 0.6, A-C iou ~0.09: B suppressed by A, C
        # survives because B is already gone.
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 2.5, 10, 12.5, 0.8)    # iou(a,b) = 75/125 = 0.6
        c = det(0, 5, 10, 15, 0.7)        # iou(b,c) = 0.6, iou(a,c) = 50/150
        assert iou(a.box, b.box) == pytest.approx(0.6)
        assert iou(b.box, c.box) == pytest.approx(0.6)
        assert iou(a.box, c.box) < 0.5
        out = nms([a, b, c], NMS)
        assert [d.score for d in out] == [0.9, 0.7]

    def test_boundary_iou_exactly_at_threshold_kept(self):
        # iou = 50/100 = 0.5 exactly; suppression is strictly greater-than.
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 5, 0.8)
        assert iou(a.box, b.box) == 0.5
        assert len(nms([a, b], NMS)) == 2

    def test_empty_input(self):
        assert nms([], NMS) == []

    def test_score_ties_break_by_input_index(self):
        a = det(0, 0, 10, 10, 0.9, pid=0)
        b = det(0, 0, 10, 10, 0.9, pid=1)
        out = nms([a, b], NMS)
        assert len(out) == 1 and out[0].proposal_id == 0

    def test_different_classes_never_suppress(self):
        out = nms([det(0, 0, 10, 10, 0.9, class_id=1),
                   det(0, 0, 10, 10, 0.8, class_id=2)], NMS)
        assert len(out) == 2

    def test_output_descending_score(self):
        rng = np.random.default_rng(0)
        out = nms(random_scene(rng, 30), NMS)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            dets = random_scene(np.random.default_rng(seed), 25)
            once = nms(dets, NMS)
            assert nms(once, NMS) == once

    def test_no_kept_pair_overlaps_beyond_threshold(self):
        for seed in range(20):
            out = nms(random_scene(np.random.default_rng(seed), 30), NMS)
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    if out[i].class_id == out[j].class_id:
                        assert iou(out[i].box, out[j].box) <= NMS.iou_thresh

    def test_permutation_stability(self):
        rng = np.random.default_rng(2)
        dets = random_scene(rng, 30)
        base = set(ids(nms(dets, NMS)))
        for _ in range(10):
            shuffled = [dets[i] for i in rng.permutation(len(dets))]
            assert set(ids(nms(shuffled, NMS))) == base


class TestSetNms:
    def test_same_proposal_duplicates_both_kept(self):
        out = set_nms([det(0, 0, 10, 10, 0.9, pid=7, slot=0),
                       det(0, 0, 10, 10, 0.8, pid=7, slot=1)], SET)
        assert len(out) == 2

    def test_different_proposals_suppress(self):
        out = set_nms([det(0, 0, 10, 10, 0.9, pid=0),
                       det(0, 0, 10, 10, 0.8, pid=1)], SET)
        assert len(out) == 1

    def test_duplicate_pair_sets_hand_trace(self):
        # Proposals 1 and 2 each predict the same crowd pair; the whole
        # duplicate set from proposal 2 is removed.
        a1 = det(0, 0, 10, 10, 0.90, pid=1, slot=0)
        a2 = det(8, 0, 18, 10, 0.85, pid=1, slot=1)
        b1 = det(0.2, 0, 10.2, 10, 0.88, pid=2, slot=0)
        b2 = det(8.2, 0, 18.2, 10, 0.84, pid=2, slot=1)
        out = set_nms([a1, a2, b1, b2], SET)
        assert ids(out) == [(1, 0), (1, 1)]

    def test_equivalent_to_nms_with_distinct_proposals(self):
        for seed in range(50):
            dets = random_scene(np.random.default_rng(seed), 25, distinct_pids=True)
            assert set_nms(dets, SET) == nms(dets, NMS)

    def test_anonymous_detections_behave_distinct(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        assert set_nms(dets, SET) == nms(dets, NMS)
        assert len(set_nms(dets, SET)) == 1

    def test_idempotent(self):
        for seed in range(20):
            dets = random_scene(np.random.default_rng(seed), 25,
                                distinct_pids=False)
            once = set_nms(dets, SET)
            assert set_nms(once, SET) == once

    def test_kept_overlapping_pairs_share_proposal(self):
        for seed in range(30):
            dets = random_scene(np.random.default_rng(seed), 30,
                                distinct_pids=False)
            out = set_nms(dets, SET)
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    if out[i].class_id != out[j].class_id:
                        continue
                    if iou(out[i].box, out[j].box) > SET.iou_thresh:
                        assert out[i].proposal_id == out[j].proposal_id

    def test_chain_through_skipped_box_drops_an_nms_survivor(self):
        # Literal greedy semantics: the same-proposal skip keeps B alive, and
        # B then suppresses C, which plain NMS would have kept. The kept set
        # is therefore not always a superset of the NMS output.
        a = det(0, 0, 10, 10, 0.9, pid=1, slot=0)
        b = det(2, 0, 12, 10, 0.8, pid=1, slot=1)   # iou(a,b) = 80/120
        c = det(5, 0, 15, 10, 0.7, pid=2, slot=0)   # iou(b,c) = 70/130, iou(a,c) = 50/150
        assert iou(a.box, b.box) > 0.5
        assert iou(b.box, c.box) > 0.5
        assert iou(a.box, c.box) < 0.5
        assert ids(nms([a, b, c], NMS)) == [(1, 0), (2, 0)]
        assert ids(set_nms([a, b, c], SET)) == [(1, 0), (1, 1)]


class TestSoftNms:
    LINEAR = SuppressionConfig(method="soft_linear", iou_thresh=0.5,
                               score_floor=0.0)
    GAUSS = SuppressionConfig(method="soft_gaussian", iou_thresh=0.5,
                              score_floor=0.0)

    def test_disjoint_scores_unchanged(self):
        dets = [det(0, 0, 10, 10, 0.9), det(50, 50, 60, 60, 0.8)]
        for cfg in (self.LINEAR, self.GAUSS):
            out = soft_nms(dets, cfg)
            assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_linear_boundary_overlap_unchanged(self):
        # iou exactly at the threshold: strict inequality, no decay.
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 5, 0.8)
        out = soft_nms([a, b], self.LINEAR)
        assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_linear_identical_boxes_rescore_to_zero(self):
        out = soft_nms([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)],
                       self.LINEAR)
        assert out[0].score == 0.9
        assert out[1].score == 0.0  # 0.8 * (1 - 1.0)

    def test_gaussian_decay_formula(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 2.5, 10, 12.5, 0.8)  # iou 0.6
        out = soft_nms([a, b], self.GAUSS)
        want = 0.8 * np.exp(-0.6 ** 2 / 0.5)
        assert out[1].score == pytest.approx(want, rel=1e-12)

    def test_score_floor_drops(self):
        cfg = SuppressionConfig(method="soft_linear", iou_thresh=0.5,
                                score_floor=0.001)
        out = soft_nms([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)], cfg)
        assert len(out) == 1

    def test_classes_independent(self):
        out = soft_nms([det(0, 0, 10, 10, 0.9, class_id=1),
                        det(0, 0, 10, 10, 0.8, class_id=2)], self.LINEAR)
        assert sorted(d.score for d in out) == [0.8, 0.9]


class TestSuppressDispatch:
    def test_dispatches_by_method(self):
        dets = Detections.from_list([det(0, 0, 10, 10, 0.9, pid=0, slot=0),
                                     det(0, 0, 10, 10, 0.8, pid=0, slot=1)])
        graph = OverlapGraph(dets, [NMS, SET])
        assert graph.suppress(NMS)[0].tolist() == [0]
        assert graph.suppress(SET)[0].tolist() == [0, 1]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SuppressionConfig(method="magic")

    @pytest.mark.parametrize("thresh", [0.0, 1.0, math.nan])
    def test_iou_thresh_must_be_inside_the_unit_interval(self, thresh):
        with pytest.raises(ValueError) as exc:
            SuppressionConfig(iou_thresh=thresh)
        assert str(exc.value) == f"iou_thresh must be in (0, 1), got {thresh}"

    @pytest.mark.parametrize("field, value, rule", [
        ("score_floor", math.nan, ">= 0"), ("score_floor", math.inf, ">= 0"),
        ("score_floor", -0.5, ">= 0")])
    def test_soft_settings_must_be_finite(self, field, value, rule):
        # A NaN floor used to keep Soft-NMS's heap walk going forever.
        with pytest.raises(ValueError) as exc:
            SuppressionConfig(method="soft_gaussian", **{field: value})
        assert str(exc.value) == f"{field} must be finite and {rule}, got {value}"


# Grid boxes give exact duplicates, shared edges and IoUs exactly at the
# thresholds below (small-integer ratios such as 2/4); free-float boxes
# exercise rounding. Sizes include 0 (degenerate boxes), scores repeat
# (ties), and proposal ids are shared, distinct or absent.
_grid = st.integers(0, 3).map(float)
_real = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
_box = st.one_of(st.tuples(_grid, _grid, _grid, _grid),
                 st.tuples(_real, _real, _real, _real)).map(
    lambda v: B(v[0], v[1], v[0] + v[2], v[1] + v[3]))
_score = st.one_of(st.sampled_from([0.3, 0.6, 0.6, 0.9]),
                   st.floats(0.0, 1.0, allow_nan=False))
# Boxes spread over a wide x-range: most sweep spans are empty, wide boxes
# span many neighbours, and boxes that share x but not y have IoU 0.
_wide_x = st.one_of(st.integers(0, 40).map(lambda v: 10.0 * v),
                    st.floats(0.0, 400.0, allow_nan=False))
_wide_w = st.one_of(st.sampled_from([0.0, 10.0, 20.0, 400.0]),
                    st.floats(0.0, 60.0, allow_nan=False))
_wide_box = st.builds(lambda x, w, y, h: B(x, y, x + w, y + h),
                      _wide_x, _wide_w, st.sampled_from([0.0, 10.0, 20.0]),
                      st.sampled_from([0.0, 10.0, 15.0, 30.0]))


def _dets(box):
    return st.builds(
        lambda box, score, cls, pid: Detection(
            box=box, score=score, class_id=cls, proposal_id=pid),
        box, _score, st.integers(1, 2), st.one_of(st.none(), st.integers(0, 3)))


_det = _dets(_box)
_thresh = st.sampled_from([1 / 3, 0.5, 2 / 3])


def _lower_half(d: Detection) -> Detection:
    """``d`` cut to its lower half: IoU 0.5 with ``d``, exactly on the grid."""
    b = d.box
    return replace(d, box=B(b.x1, b.y1, b.x2, b.y1 + 0.5 * b.height),
                   score=d.score * 0.5)


@st.composite
def _cloud(draw, det=_det):
    """Detections plus exact copies and lower halves of some of them;
    ``slot`` holds the input index so outputs can be traced back to
    inputs."""
    dets = draw(st.lists(det, max_size=24))
    if dets:
        dets += draw(st.lists(st.sampled_from(dets), max_size=6))
        dets += [_lower_half(d) for d in
                 draw(st.lists(st.sampled_from(dets), max_size=6))]
    return [replace(d, slot=i) for i, d in enumerate(dets)]


_clouds = st.one_of(_cloud(), _cloud(_dets(_wide_box)))


class TestOracleEquivalence:
    """The library's loops against the reference loops in
    ``suppression_oracle``: same indices, same order, same bits."""

    @settings(max_examples=600, deadline=None)
    @given(_clouds, _thresh)
    def test_greedy_keep_same_indices_same_order(self, dets, thresh):
        for method, respect in (("nms", False), ("set_nms", True)):
            cfg = SuppressionConfig(method=method, iou_thresh=thresh)
            got = OverlapGraph(Detections.from_list(dets), [cfg]).suppress(cfg)[0].tolist()
            want = oracle._greedy_keep(*oracle._to_arrays(dets), thresh, respect)
            assert got == want
        cfg = SuppressionConfig(method="set_nms", iou_thresh=thresh)
        assert set_nms(dets, cfg) == [
            dets[i] for i in oracle._greedy_keep(*oracle._to_arrays(dets),
                                                 thresh, True)]

    @settings(max_examples=600, deadline=None)
    @given(_clouds, st.sampled_from(["soft_linear", "soft_gaussian"]),
           _thresh, st.sampled_from([0.0, 0.001, 0.2]))
    def test_soft_scores_bit_identical(self, dets, method, thresh, floor):
        cfg = SuppressionConfig(method=method, iou_thresh=thresh,
                                score_floor=floor)
        got = soft_nms(dets, cfg)
        want = oracle.soft_nms(dets, cfg)
        assert [d.slot for d in got] == [d.slot for d in want]
        assert [d.score.hex() for d in got] == [d.score.hex() for d in want]


_config = st.builds(SuppressionConfig, method=st.sampled_from(METHOD_NAMES),
                    iou_thresh=_thresh,
                    score_floor=st.sampled_from([0.0, 0.001, 0.2]))


@st.composite
def _config_lists(draw):
    """One to five configs of any method, thresholds drawn from three
    values so equal thresholds are common, plus repeats of some of them."""
    cfgs = draw(st.lists(_config, min_size=1, max_size=5))
    return cfgs + draw(st.lists(st.sampled_from(cfgs), max_size=2))


class TestSharedSweep:
    """Configs that share one image's sweep against the reference loops,
    each as if it ran alone: same indices, same order, same bits."""

    @settings(max_examples=600, deadline=None)
    @given(_clouds, _config_lists())
    def test_every_config_equals_the_oracle(self, dets, cfgs):
        graph = OverlapGraph(Detections.from_list(dets), cfgs)
        for cfg in cfgs:
            keep, scores = graph.suppress(cfg)
            want = oracle_suppress(dets, cfg)
            assert keep.tolist() == [d.slot for d in want], cfg
            assert ([s.hex() for s in scores.tolist()]
                    == [d.score.hex() for d in want]), cfg

    def test_config_below_the_sweep_is_rejected(self):
        graph = OverlapGraph(Detections.from_list([det(0, 0, 1, 1, 0.5)]), [NMS])
        for cfg in (SuppressionConfig(iou_thresh=0.4),
                    SuppressionConfig(method="soft_gaussian")):
            with pytest.raises(ValueError, match="the sweep at IoU 0.5"):
                graph.suppress(cfg)


@st.composite
def _images(draw):
    """A cloud cut into one to four images, some of them empty, and in some
    examples one image replaced by a copy of another: the same coordinates
    and proposal ids in two images. Anonymous ids repeat between images, as
    :meth:`Detections.from_list` numbers them per image. ``slot`` holds the
    index within the image."""
    dets = draw(_clouds)
    cuts = sorted(draw(st.lists(st.integers(0, len(dets)), max_size=3)))
    images = [dets[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(dets)])]
    if len(images) > 1 and draw(st.booleans()):
        images[draw(st.integers(0, len(images) - 1))] = draw(st.sampled_from(images))
    return [indexed(image) for image in images]


class TestBatchedImages:
    """Many images suppressed in one pass against the reference loops on
    each image alone: same indices, same order, same bits."""

    @settings(max_examples=250, deadline=None)
    @given(_images(), _config_lists())
    def test_each_image_equals_the_oracle_alone(self, images, cfgs):
        dets, image = Detections.concat([Detections.from_list(d) for d in images])
        start = np.cumsum([0] + [len(d) for d in images])
        graph = OverlapGraph(dets, cfgs, image)
        for cfg in cfgs:
            keep, scores = graph.suppress(cfg)
            at = image[keep]
            assert (np.diff(at) >= 0).all(), cfg  # image by image
            for m, part in enumerate(images):
                want = oracle_suppress(part, cfg)
                assert (keep[at == m] - start[m]).tolist() == [d.slot for d in want], cfg
                assert ([s.hex() for s in scores[at == m].tolist()]
                        == [d.score.hex() for d in want]), cfg

    @pytest.mark.parametrize("method", ["soft_linear", "soft_gaussian"])
    def test_soft_floor_spares_only_each_images_first_box(self, method):
        # Every box starts under the floor. Each image keeps its first box
        # in rank order (a score tie goes to the lower index) at its input
        # score, and drops the rest, overlapping or not.
        cfg = SuppressionConfig(method=method, score_floor=0.2)
        images = [indexed([det(0, 0, 10, 10, 0.05), det(20, 20, 30, 30, 0.1),
                           det(50, 50, 60, 60, 0.1), det(20, 20, 30, 28, 0.08)]),
                  indexed([det(0, 0, 10, 10, 0.1), det(20, 20, 30, 30, 0.15),
                           det(80, 80, 90, 90, 0.02)])]
        dets, image = Detections.concat([Detections.from_list(d) for d in images])
        keep, scores = OverlapGraph(dets, [cfg], image).suppress(cfg)
        assert keep.tolist() == [1, 5]
        assert scores.tolist() == [0.1, 0.15]
        for m, start in enumerate((0, 4)):
            want = oracle_suppress(images[m], cfg)
            at = image[keep] == m
            assert (keep[at] - start).tolist() == [d.slot for d in want]
            assert scores[at].tolist() == [d.score for d in want]

    def test_images_out_of_order_are_rejected(self):
        dets = Detections.from_list([det(0, 0, 1, 1, 0.5), det(0, 0, 1, 1, 0.7)])
        with pytest.raises(ValueError, match="image by image"):
            OverlapGraph(dets, [NMS], np.array([1, 0]))


@st.composite
def _rows_of(draw, n):
    """Distinct rows of a batch of ``n``: none, all, or a drawn subset, in a
    drawn order."""
    picked = draw(st.one_of(st.just([False] * n), st.just([True] * n),
                            st.lists(st.booleans(), min_size=n, max_size=n)))
    rows = np.flatnonzero(np.array(picked, dtype=bool))
    return rows[np.array(draw(st.permutations(range(len(rows)))), dtype=np.intp)]


class TestGraphRestriction:
    """A graph walked over some rows against a sweep of those rows alone:
    same indices, same order, same bits."""

    @pytest.mark.parametrize("method", METHOD_NAMES)
    @settings(max_examples=150, deadline=None)
    @given(images=_images(), thresh=_thresh,
           floor_cfg=st.sampled_from([GAUSS, *(SuppressionConfig(iou_thresh=t)
                                               for t in (1 / 3, 0.5, 2 / 3))]),
           score_floor=st.sampled_from([0.0, 0.001, 0.2]), data=st.data())
    def test_take_equals_suppressing_the_rows(self, method, images, thresh,
                                              floor_cfg, score_floor, data):
        cfg = SuppressionConfig(method=method, iou_thresh=thresh,
                                score_floor=score_floor)
        dets, image = Detections.concat([Detections.from_list(d) for d in images])
        rows = data.draw(_rows_of(len(dets)))
        graph = OverlapGraph(dets, [cfg, floor_cfg], image)
        keep, scores = graph.suppress(cfg, rows)
        alone = np.sort(rows)
        want, want_scores = OverlapGraph(
            dets.take(alone, dets.scores[alone]), [cfg], image[alone]).suppress(cfg)
        assert keep.tolist() == alone[want].tolist()
        assert ([s.hex() for s in scores.tolist()]
                == [s.hex() for s in want_scores.tolist()])

    def test_the_floor_spares_the_first_box_among_the_rows(self):
        # Box 0 outranks the rows but is not one of them: the rows' first
        # box, under the floor, is still its image's first pick.
        dets = Detections.from_list([det(0, 0, 10, 10, 0.9),
                                     det(20, 0, 30, 10, 0.1),
                                     det(20, 0, 30, 10, 0.05)])
        cfg = SuppressionConfig(method="soft_gaussian", score_floor=0.2)
        keep, scores = OverlapGraph(dets, [cfg]).suppress(cfg, np.array([1, 2]))
        assert keep.tolist() == [1]
        assert scores.tolist() == [0.1]


class TestGraphCache:
    """One graph walked many times, configs and row subsets interleaved,
    against a fresh graph for each walk: the graph and lists a config's
    walk reads are built once and left as they were."""

    @settings(max_examples=80, deadline=None)
    @given(images=_images(), data=st.data())
    def test_interleaved_walks_equal_fresh_graphs(self, images, data):
        dets, image = Detections.concat([Detections.from_list(d) for d in images])
        subsets = [None, data.draw(_rows_of(len(dets))),
                   data.draw(_rows_of(len(dets)))]
        cfgs = [SuppressionConfig(method=m, iou_thresh=t, score_floor=0.2)
                for m in METHOD_NAMES for t in (0.4, 0.6)]
        runs = data.draw(st.permutations([(cfg, rows) for cfg in cfgs
                                          for rows in subsets]))
        shared = OverlapGraph(dets, cfgs, image)
        # Each run again after all the others.
        for cfg, rows in runs + runs:
            keep, scores = shared.suppress(cfg, rows)
            want, want_scores = OverlapGraph(dets, cfgs, image).suppress(cfg, rows)
            assert keep.tolist() == want.tolist(), cfg
            assert scores.tobytes() == want_scores.tobytes(), cfg

    def test_shared_arrays_are_read_only(self):
        graph = OverlapGraph(Detections.from_list(crowd_cloud(n_scenes=2)),
                             [GAUSS])
        before = graph.suppress(SET)
        for array in (graph.order, *graph._walk(0.5)[:3],
                      *graph._walk(0.5, True, ranked=True)[:3]):
            assert len(array)
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
        for walk in (graph._walk(0.5), graph._walk(0.5, True, ranked=True)):
            view = walk[-1]
            assert view.readonly and view.obj is walk[1] and len(view)
            with pytest.raises(TypeError, match="read-only"):
                view[0] = 0
        assert all(np.array_equal(a, b)
                   for a, b in zip(graph.suppress(SET), before))


class TestBench:
    """Degenerate clouds: one box, all disjoint, all identical."""

    def test_single_box_every_method(self):
        dets = [det(10, 10, 50, 90, 0.7, pid=0)]
        for method in ("nms", "set_nms", "soft_linear", "soft_gaussian"):
            assert suppress(dets, SuppressionConfig(method=method)) == dets

    def test_disjoint_cloud_keeps_everything(self):
        # An 8x8 grid of 40x40 boxes on a 100-pixel pitch, distinct scores.
        dets = [det(100 * (i % 8), 100 * (i // 8), 100 * (i % 8) + 40,
                    100 * (i // 8) + 40, 0.1 + 0.01 * i, pid=i)
                for i in range(64)]
        assert len(nms(dets, NMS)) == 64
        assert len(set_nms(dets, SET)) == 64

    def test_identical_cloud_collapses_to_one(self):
        dets = [det(10, 10, 55, 80, 0.1 + 0.008 * i, pid=i) for i in range(100)]
        assert len(nms(dets, NMS)) == 1
        assert len(set_nms(dets, SET)) == 1
        assert nms(dets, NMS)[0] is dets[-1]

    @pytest.mark.parametrize("cfg", [NMS, SET, GAUSS], ids=lambda c: c.method)
    def test_identical_clique_costs_array_bytes_per_edge(self, cfg):
        # A clique of 300 identical boxes after 300 disjoint ones, so that
        # its row numbers are past CPython's cached small ints: a walk that
        # copied each edge into a Python int (28 bytes, plus 8 for its list
        # slot) would pass the limit. Building the CSR arrays peaks at about
        # 40 bytes per stored edge, on the sort's temporaries.
        n, pad = 300, 300
        boxes = np.tile([10.0, 10.0, 55.0, 80.0], (pad + n, 1))
        boxes[:pad] += 100.0 * np.arange(1, pad + 1)[:, None]
        dets = Detections(boxes=boxes, scores=np.linspace(0.9, 0.1, pad + n),
                          classes=np.ones(pad + n, dtype=np.int64),
                          proposal_ids=np.arange(pad + n, dtype=np.int64),
                          slots=np.zeros(pad + n, dtype=np.int64))
        graph = OverlapGraph(dets, [cfg])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            keep, _ = graph.suppress(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        edges = n * (n - 1) // 2 * (2 if cfg is GAUSS else 1)
        assert peak / edges < 48
        assert keep.tolist()[:pad] == list(range(pad))

    def test_graph_build_peak_per_swept_pair(self):
        # 800 identical boxes: the x-sweep lists every pair and keeps it.
        # The sweep joins its three outputs one at a time and empties each
        # chunk list once it is joined, so the build peaks at about 32
        # bytes per pair; with every chunk list alive beside the joins it
        # peaked at about 48.
        n = 800
        dets = Detections(boxes=np.tile([10.0, 10.0, 55.0, 80.0], (n, 1)),
                          scores=np.linspace(0.9, 0.1, n),
                          classes=np.ones(n, dtype=np.int64),
                          proposal_ids=np.arange(n, dtype=np.int64),
                          slots=np.zeros(n, dtype=np.int64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            graph = OverlapGraph(dets, [NMS])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        pairs = n * (n - 1) // 2
        assert len(graph._a) == pairs
        assert peak / pairs < 40


# Every method at two thresholds; the soft ones also with no floor, the
# default floor and a floor high enough to drop untouched boxes.
_CONFIGS = (
    [SuppressionConfig(method=m, iou_thresh=t)
     for m in ("nms", "set_nms") for t in (0.3, 0.5)]
    + [SuppressionConfig(method=m, iou_thresh=t, score_floor=f)
       for m in ("soft_linear", "soft_gaussian") for t in (0.3, 0.5)
       for f in (0.0, 0.001, 0.2)])


def oracle_suppress(dets, cfg):
    if cfg.method in ("nms", "set_nms"):
        keep = oracle._greedy_keep(*oracle._to_arrays(dets), cfg.iou_thresh,
                                   cfg.method == "set_nms")
        return [dets[i] for i in keep]
    return oracle.soft_nms(dets, cfg)


def indexed(dets):
    """``slot`` set to the input index, so outputs trace back to inputs."""
    return [replace(d, slot=i) for i, d in enumerate(dets)]


def assert_same_output(got, want, cfg):
    """Same inputs kept, in the same order, with the same score bits."""
    assert [d.slot for d in got] == [d.slot for d in want], cfg
    assert [d.score.hex() for d in got] == [d.score.hex() for d in want], cfg


def assert_matches_oracle(dets):
    for cfg in _CONFIGS:
        assert_same_output(suppress(dets, cfg), oracle_suppress(dets, cfg), cfg)


def crowd_cloud(n_scenes=16, seed=5):
    """``simulate_detector`` output at k=3 for crowded scenes tiled on one
    canvas; neighbouring tiles overlap at their borders, so boxes meet
    boxes of other scenes. About a fifth of the boxes are moved to a
    second class and a tenth lose their proposal id."""
    params = SceneParams(n_objects_mean=20.0, crowd_pairs_mean=3.0,
                         crowd_triples_mean=1.5)
    dets = []
    for j, scene in enumerate(build_scenes(params, n_scenes, seed)):
        dx, dy = 1000.0 * (j % 4), 700.0 * (j // 4)
        for d in simulate_detector(scene.gts, DetectorSimParams(k=3, seed=j)):
            dets.append(replace(d, box=d.box.shifted(dx, dy),
                                proposal_id=d.proposal_id + 1000 * j))
    rng = np.random.default_rng(seed)
    second = rng.random(len(dets)) < 0.2
    anonymous = rng.random(len(dets)) < 0.1
    return indexed([replace(d, class_id=2 if second[i] else d.class_id,
                            proposal_id=None if anonymous[i] else d.proposal_id)
                    for i, d in enumerate(dets)])


class TestCrowdCloud:
    def test_every_method_matches_the_oracle(self, monkeypatch):
        dets = crowd_cloud()
        assert 1200 <= len(dets) <= 2000
        assert len({d.class_id for d in dets}) == 2
        assert any(d.proposal_id is None for d in dets)
        wants = [oracle_suppress(dets, cfg) for cfg in _CONFIGS]
        # One-position chunks, odd-sized chunks and the default.
        for chunk in (1, 97, geometry._SWEEP_PAIRS):
            monkeypatch.setattr(geometry, "_SWEEP_PAIRS", chunk)
            for cfg, want in zip(_CONFIGS, wants):
                assert_same_output(suppress(dets, cfg), want, cfg)


def component_cloud(n_scenes=8, seed=11):
    """One image and one class: ``crowd_cloud``'s boxes, in many small
    overlap components, beside a chain of 300 boxes, each overlapping the
    next two at IoU 0.6 and 1/3, and a clique of 80 identical boxes, all in
    a shuffled order. The chain and the clique draw their scores from four
    values, so picks tie and go to the lowest index."""
    cloud = [replace(d, class_id=1) for d in crowd_cloud(n_scenes, seed)]
    rng = np.random.default_rng(seed)
    tied = [0.25, 0.5, 0.75, 1.0]
    chain = [det(10.0 * i, 3000, 10.0 * i + 40.0, 3040, s, pid=10**6 + i)
             for i, s in enumerate(rng.choice(tied, 300).tolist())]
    clique = [det(100, 3500, 145, 3570, s, pid=2 * 10**6 + i)
              for i, s in enumerate(rng.choice(tied, 80).tolist())]
    dets = cloud + chain + clique
    return indexed([dets[i] for i in rng.permutation(len(dets)).tolist()])


class TestSoftPhases:
    """Soft-NMS's numpy rounds, one pick per live overlap component, and
    the lazy heap that finishes the components left."""

    def test_every_soft_config_matches_the_oracle(self, monkeypatch):
        dets = component_cloud()
        soft = [cfg for cfg in _CONFIGS if cfg.method.startswith("soft")]
        wants = [oracle_suppress(dets, cfg) for cfg in soft]
        heap_walk, heaped = suppression._heap_walk, []

        def counted(*args):
            keep, scores = heap_walk(*args)
            heaped.append(len(keep))
            return keep, scores

        monkeypatch.setattr(suppression, "_heap_walk", counted)
        # Rounds to the last pick, the heap alone, and the default switch.
        for components, phases in ((1, "rounds"), (len(dets) + 1, "heap"),
                                   (suppression._ROUND_COMPONENTS, "both")):
            monkeypatch.setattr(suppression, "_ROUND_COMPONENTS", components)
            for cfg, want in zip(soft, wants):
                got = suppress(dets, cfg)
                assert_same_output(got, want, cfg)
                picks = heaped.pop()
                assert {"rounds": picks == 0, "heap": picks == len(got),
                        "both": 0 < picks < len(got)}[phases], cfg

    @pytest.mark.parametrize("seed", range(12))
    def test_components_are_labelled_by_their_lowest_index(self, seed):
        # A path over a shuffled subset of the boxes plus random edges.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        path = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        m = int(rng.integers(0, n))
        a = np.concatenate((path[:-1], rng.integers(0, n, m)))
        b = np.concatenate((path[1:], rng.integers(0, n, m)))
        pairs = sorted({(min(p), max(p)) for p in zip(a.tolist(), b.tolist())
                        if p[0] != p[1]})
        links = [[] for _ in range(n)]
        for i, j in pairs:
            links[i].append(j)
            links[j].append(i)
        indptr = np.cumsum([0] + [len(row) for row in links])
        nbrs = np.array([j for row in links for j in row], dtype=np.int32)
        want = list(range(n))
        for i in range(n):  # each unlabelled box floods its component
            if want[i] == i:
                stack = [i]
                while stack:
                    for j in links[stack.pop()]:
                        if want[j] == j and j != i:
                            want[j] = i
                            stack.append(j)
        assert suppression._components(indptr, nbrs).tolist() == want
        # The first step's tree count is never below the component count.
        count = len(set(want))
        assert suppression._components(indptr, nbrs, count).tolist() == want
        more = suppression._components(indptr, nbrs, count + 1)
        assert more is None or more.tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_a_chain_in_index_order_or_a_clique_is_not_labelled(self, n):
        chain = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
        clique = [[j for j in range(n) if j != i] for i in range(n)]
        for links in (chain, clique):
            indptr = np.cumsum([0] + [len(row) for row in links])
            nbrs = np.array([j for row in links for j in row], dtype=np.int32)
            assert suppression._components(indptr, nbrs, 2) is None
            assert suppression._components(indptr, nbrs, 1).tolist() == [0] * n


class TestSweepBoundaries:
    """Inputs at the edges of the x-sweep, against the oracle loops under
    every method and against the expected result."""

    def test_boxes_touching_at_x_do_not_overlap(self):
        # x2 of each box equals x1 of the next: IoU 0, nothing decays.
        dets = indexed([det(0, 0, 10, 10, 0.9), det(10, 0, 20, 10, 0.8),
                        det(20, 0, 30, 10, 0.7, class_id=2)])
        assert_matches_oracle(dets)
        for cfg in _CONFIGS:
            assert [d.score for d in suppress(dets, cfg)] == [0.9, 0.8, 0.7]

    def test_equal_x1(self):
        # Slot 1 overlaps slot 2 at IoU 90/110; slot 0 shares their x1 but
        # not their rows; slot 3 is a zero-width box on the same x1.
        dets = indexed([det(0, 50, 10, 60, 0.7), det(0, 1, 10, 11, 0.8),
                        det(0, 0, 10, 10, 0.9), det(0, 0, 0, 10, 0.6)])
        assert_matches_oracle(dets)
        assert [d.slot for d in nms(dets, NMS)] == [2, 0, 3]
        assert [d.slot for d in set_nms(dets, SET)] == [2, 0, 3]

    def test_zero_width_and_zero_height_boxes_never_overlap(self):
        dets = indexed([det(5, 0, 5, 10, 0.9), det(5, 0, 5, 10, 0.8),
                        det(0, 0, 10, 10, 0.7), det(0, 5, 10, 5, 0.6),
                        det(5, 5, 5, 5, 0.5)])
        assert_matches_oracle(dets)
        for cfg in _CONFIGS:
            out = suppress(dets, cfg)
            assert [d.slot for d in out] == [0, 1, 2, 3, 4]
            assert [d.score for d in out] == [0.9, 0.8, 0.7, 0.6, 0.5]

    def test_floor_drops_boxes_that_overlap_nothing(self):
        # Slots 1 and 2 overlap nothing and start under the 0.2 floor: the
        # first pick drops them although no pick decays them.
        dets = indexed([det(0, 0, 10, 10, 0.9), det(100, 0, 110, 10, 0.1),
                        det(200, 0, 210, 10, 0.15), det(1, 0, 11, 10, 0.85)])
        assert_matches_oracle(dets)
        for method in ("soft_linear", "soft_gaussian"):
            cfg = SuppressionConfig(method=method, score_floor=0.2)
            slots = [d.slot for d in soft_nms(dets, cfg)]
            assert slots[0] == 0 and 1 not in slots and 2 not in slots
            cfg = SuppressionConfig(method=method, score_floor=0.0)
            assert sorted(d.slot for d in soft_nms(dets, cfg)) == [0, 1, 2, 3]

    def test_floor_keeps_only_the_first_pick_when_all_start_below_it(self):
        dets = indexed([det(0, 0, 10, 10, 0.1), det(50, 0, 60, 10, 0.15)])
        assert_matches_oracle(dets)
        for method in ("soft_linear", "soft_gaussian"):
            out = soft_nms(dets, SuppressionConfig(method=method,
                                                   score_floor=0.2))
            assert [(d.slot, d.score) for d in out] == [(1, 0.15)]


class TestDetections:
    def test_from_list_and_back(self):
        dets = [det(0, 0, 10, 10, 0.9, class_id=2, pid=4, slot=1),
                det(1, 1, 5, 5, 0.25), det(2, 2, 6, 6, 0.5, slot=3)]
        arrays = Detections.from_list(dets)
        assert len(arrays) == 3
        assert arrays.boxes.shape == (3, 4)
        assert arrays.proposal_ids.tolist() == [4, -2, -3]
        assert arrays.slots.tolist() == [1, 0, 3]
        assert arrays.to_list() == dets

    def test_empty(self):
        arrays = Detections.from_list([])
        assert arrays.boxes.shape == (0, 4) and len(arrays) == 0
        for method in METHOD_NAMES:
            cfg = SuppressionConfig(method=method)
            keep, scores = OverlapGraph(arrays, [cfg]).suppress(cfg)
            assert keep.tolist() == [] and scores.tolist() == []

    def test_take_keeps_anonymous_ids_negative(self):
        arrays = Detections.from_list([det(0, 0, 1, 1, 0.5), det(0, 0, 1, 1, 0.7, pid=2)])
        taken = arrays.take(np.array([1, 0]), np.array([0.7, 0.4]))
        assert [d.proposal_id for d in taken.to_list()] == [2, None]
        assert [d.score for d in taken.to_list()] == [0.7, 0.4]

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError, match="slot must be non-negative"):
            det(0, 0, 1, 1, 0.5, slot=-1)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_arrays_and_list_api_agree(self, method):
        dets = crowd_cloud(n_scenes=4)
        cfg = SuppressionConfig(method=method, iou_thresh=0.4)
        keep, scores = OverlapGraph(Detections.from_list(dets), [cfg]).suppress(cfg)
        out = suppress(dets, cfg)
        assert keep.dtype == np.intp and scores.dtype == np.float64
        assert keep.tolist() == [d.slot for d in out]
        assert [s.hex() for s in scores.tolist()] == [d.score.hex() for d in out]


class TestGraphEdges:
    def test_greedy_methods_store_each_edge_once(self):
        n = 200
        arrays = Detections.from_list(
            [det(10, 10, 55, 80, 0.1 + 0.004 * i, pid=i) for i in range(n)])
        order = np.argsort(-arrays.scores, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        graph = OverlapGraph(arrays, [NMS])
        _, both, ious = graph._walk(0.5)[:3]
        indptr, once, once_ious = graph._walk(0.5, True, ranked=True)[:3]
        assert len(both) == len(ious) == n * (n - 1)
        assert len(once) == len(once_ious) == n * (n - 1) // 2
        # Each stored edge runs from the higher score to the lower one.
        src = np.repeat(np.arange(n), np.diff(indptr))
        assert (rank[src] < rank[once]).all()
