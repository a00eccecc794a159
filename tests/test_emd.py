import itertools
import math

import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdset.assignment import (GroundTruth, build_gt_set, gt_columns,
                                 pad_to_k, truncate_top_k)
from crowdset.emd import (EmdConfig, PredictionArrays, PredictionSet,
                          SlotPrediction, cls_loss, emd_match,
                          match_batch, pair_cost_matrix, reg_loss, smooth_l1)
from crowdset.geometry import BBox, BoxDelta, GeometryError, encode_delta
from crowdset.scene_io import PredictionRecord

B = BBox


def brute_force_match(costs):
    """Independent oracle: explicit enumeration over all permutations."""
    k = costs.shape[0]
    best_perm, best_total = None, None
    for perm in itertools.permutations(range(k)):
        total = 0.0
        for i in range(k):
            total += costs[i, perm[i]]
        if best_total is None or total < best_total:
            best_perm, best_total = perm, total
    return best_perm, best_total


def random_scores(rng, n_classes):
    v = rng.uniform(0.05, 1.0, n_classes)
    return v / v.sum()


def random_slot(rng, n_classes=3):
    return SlotPrediction(class_scores=random_scores(rng, n_classes),
                          delta=BoxDelta(*rng.normal(0, 0.3, 4)))


class TestClsLoss:
    def test_one_hot_is_zero(self):
        assert cls_loss(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform_two_class(self):
        assert cls_loss(np.array([0.5, 0.5]), 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_score_clamped(self):
        v = cls_loss(np.array([0.0, 1.0]), 0)
        assert v == pytest.approx(-math.log(1e-12), abs=1e-6)

    def test_target_outside_vocabulary(self):
        with pytest.raises(ValueError):
            cls_loss(np.array([0.5, 0.5]), 2)


class TestRegLoss:
    def test_smooth_l1_closed_form(self):
        assert smooth_l1(0.5) == 0.125
        assert smooth_l1(2.0) == 1.5
        assert smooth_l1(-0.5) == 0.125
        assert smooth_l1(0.5, beta=2.0) == 0.0625

    def test_exact_prediction_is_zero(self):
        proposal, target = B(0, 0, 10, 10), B(2, 1, 9, 12)
        pred = encode_delta(proposal, target)
        assert reg_loss(pred, proposal, target) == 0.0

    def test_dummy_target_is_exactly_zero(self):
        assert reg_loss(BoxDelta(3.0, -2.0, 1.0, 0.4), B(0, 0, 10, 10), None) == 0.0

    def test_single_component_residuals(self):
        proposal = B(0, 0, 10, 10)
        base = encode_delta(proposal, proposal)  # all zeros
        shifted = BoxDelta(base.dx + 0.5, base.dy, base.dw, base.dh)
        assert reg_loss(shifted, proposal, proposal) == pytest.approx(0.125, abs=0)
        shifted = BoxDelta(base.dx + 2.0, base.dy, base.dw, base.dh)
        assert reg_loss(shifted, proposal, proposal) == pytest.approx(1.5, abs=0)


class TestPairCostMatrix:
    def test_k1_equals_direct_loss(self):
        rng = np.random.default_rng(2)
        proposal = B(0, 0, 10, 10)
        target = GroundTruth(box=B(1, 0, 11, 10), class_id=1)
        slot = random_slot(rng)
        pred = PredictionSet(proposal=proposal, slots=(slot,))
        gts = build_gt_set(proposal, [target], theta=0.5)
        cfg = EmdConfig(k=1)
        costs = pair_cost_matrix(pred, gts, cfg)
        direct = (cls_loss(slot.class_scores, 1)
                  + reg_loss(slot.delta, proposal, target.box))
        assert costs.shape == (1, 1)
        assert costs[0, 0] == pytest.approx(direct, abs=0)

    def test_all_dummy_columns_are_background_only(self):
        rng = np.random.default_rng(3)
        proposal = B(0, 0, 10, 10)
        slots = (random_slot(rng), random_slot(rng))
        pred = PredictionSet(proposal=proposal, slots=slots)
        gts = pad_to_k(build_gt_set(proposal, [], theta=0.5), 2)
        costs = pair_cost_matrix(pred, gts, EmdConfig(k=2))
        for i, slot in enumerate(slots):
            want = cls_loss(slot.class_scores, 0)
            assert costs[i, 0] == pytest.approx(want, abs=0)
            assert costs[i, 1] == pytest.approx(want, abs=0)

    def test_hand_built_two_by_two(self):
        # Frozen from an independent hand computation of both loss terms.
        proposal = B(0, 0, 10, 10)
        pred = PredictionSet(proposal=proposal, slots=(
            SlotPrediction(class_scores=np.array([0.1, 0.7, 0.2]),
                           delta=BoxDelta(0.0, 0.0, 0.0, 0.0)),
            SlotPrediction(class_scores=np.array([0.2, 0.3, 0.5]),
                           delta=BoxDelta(0.1, -0.2, 0.05, 0.0)),
        ))
        gts = build_gt_set(proposal, [
            GroundTruth(box=B(1, 1, 9, 9), class_id=1),
            GroundTruth(box=B(0, 0, 12, 10), class_id=2),
        ], theta=0.5)
        costs = pair_cost_matrix(pred, gts, EmdConfig(k=2))
        want = np.array([[0.4064679884318498, 1.6310584874699858],
                         [1.2911730263847638, 0.7219016777561331]])
        # gt entries reorder by descending IoU: (0,0,12,10) has iou 100/120,
        # (1,1,9,9) has iou 64/100, so columns swap relative to input order.
        assert np.allclose(costs, want[:, ::-1], atol=1e-12)

    def test_degenerate_proposal_rejected(self):
        rng = np.random.default_rng(4)
        gts = pad_to_k(build_gt_set(B(0, 0, 10, 10),
                                    [GroundTruth(box=B(1, 0, 11, 10))], 0.5), 2)
        pred = PredictionSet(proposal=B(5, 5, 5, 5),
                             slots=(random_slot(rng), random_slot(rng)))
        with pytest.raises(GeometryError, match="proposal has non-positive size"):
            pair_cost_matrix(pred, gts, EmdConfig(k=2))

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        proposal = B(0, 0, 10, 10)
        pred = PredictionSet(proposal=proposal, slots=(random_slot(rng),))
        gts = pad_to_k(build_gt_set(proposal, [], theta=0.5), 2)
        with pytest.raises(ValueError):
            pair_cost_matrix(pred, gts, EmdConfig(k=2))


class TestEmdMatch:
    def test_two_by_two_identity(self):
        m = emd_match(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert m.permutation == (0, 1)
        assert m.total == 2.0
        assert m.per_slot_cost == (1.0, 1.0)

    def test_all_equal_tie_breaks_to_identity(self):
        m = emd_match(np.full((3, 3), 2.5))
        assert m.permutation == (0, 1, 2)
        assert m.total == 7.5

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            costs = rng.uniform(0, 10, (4, 4))
            got = emd_match(costs)
            perm, total = brute_force_match(costs)
            assert got.permutation == perm
            assert got.total == total

    def test_k6_equals_the_permutation_oracle(self):
        # k = ENUMERATION_LIMIT, the largest accepted; coarse costs tie
        # often, and ties go to the first permutation in itertools order.
        rng = np.random.default_rng(19)
        for grid in (False, True):
            for _ in range(10):
                costs = (rng.integers(0, 3, (6, 6)) * 0.5 if grid
                         else rng.uniform(0, 10, (6, 6)))
                got, want = emd_match(costs), oracle.emd_match(costs)
                assert got.permutation == want.permutation
                assert got.total.hex() == want.total.hex()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            emd_match(np.array([[1.0, math.nan], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            emd_match(np.zeros((2, 3)))

    def test_lower_bound_row_minima(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            costs = rng.uniform(0, 5, (3, 3))
            m = emd_match(costs)
            assert m.total >= costs.min(axis=1).sum() - 1e-12

    def test_never_exceeds_identity_permutation(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            costs = rng.uniform(0, 5, (4, 4))
            m = emd_match(costs)
            assert m.total <= float(np.trace(costs)) + 1e-12


def random_fixture(rng, k, n_gts, theta=0.3):
    proposal = B(0, 0, 10, 20)
    gts = []
    for _ in range(n_gts):
        dx, dy = rng.uniform(-2, 2, 2)
        gts.append(GroundTruth(box=B(dx, dy, dx + 10, dy + 20),
                               class_id=int(rng.integers(1, 3))))
    gt_set = build_gt_set(proposal, gts, theta=theta)
    slots = tuple(random_slot(rng) for _ in range(k))
    return PredictionSet(proposal=proposal, slots=slots), gt_set


def padded_match(pred, gt_set, cfg):
    """The one-proposal loss: the set padded to ``cfg.k`` slots, then
    matched; a set with more than ``k`` real members raises."""
    return emd_match(pair_cost_matrix(pred, pad_to_k(gt_set, cfg.k), cfg))


class TestEmdLoss:
    def test_k1_reduces_to_direct_loss(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            pred, gt_set = random_fixture(rng, k=1, n_gts=1)
            cfg = EmdConfig(k=1)
            match = padded_match(pred, gt_set, cfg)
            slot = pred.slots[0]
            if gt_set.n_real == 1:
                direct = (cls_loss(slot.class_scores, gt_set.entries[0].class_id)
                          + reg_loss(slot.delta, pred.proposal,
                                     gt_set.entries[0].box))
            else:
                direct = cls_loss(slot.class_scores, 0)
            assert match.total == pytest.approx(direct, abs=1e-12)
            assert match.permutation == (0,)

    def test_identical_slots_tie_break_identity(self):
        rng = np.random.default_rng(37)
        slot = random_slot(rng)
        proposal = B(0, 0, 10, 10)
        pred = PredictionSet(proposal=proposal, slots=(slot, slot))
        gt_set = build_gt_set(proposal,
                              [GroundTruth(box=B(0, 0, 10, 10), class_id=1)],
                              theta=0.5)
        match = padded_match(pred, gt_set, EmdConfig(k=2))
        assert match.permutation == (0, 1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            k = int(rng.integers(2, 4))
            pred, gt_set = random_fixture(rng, k=k, n_gts=int(rng.integers(0, k + 1)))
            cfg = EmdConfig(k=k)
            match = padded_match(pred, gt_set, cfg)
            costs = pair_cost_matrix(pred, pad_to_k(gt_set, k), cfg)
            _, total = brute_force_match(costs)
            assert match.total == pytest.approx(total, abs=1e-12)

    def test_permutation_invariance_of_total(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            pred, gt_set = random_fixture(rng, k=3, n_gts=3)
            if gt_set.n_real < 2:
                continue
            base = padded_match(pred, gt_set, EmdConfig(k=3)).total
            from dataclasses import replace
            flipped = replace(gt_set, entries=gt_set.entries[::-1])
            assert padded_match(pred, flipped, EmdConfig(k=3)).total == \
                pytest.approx(base, abs=1e-12)

    def test_dummy_only_total_is_background_sum(self):
        rng = np.random.default_rng(47)
        proposal = B(0, 0, 10, 10)
        slots = tuple(random_slot(rng) for _ in range(2))
        pred = PredictionSet(proposal=proposal, slots=slots)
        gt_set = build_gt_set(proposal, [], theta=0.5)
        match = padded_match(pred, gt_set, EmdConfig(k=2))
        want = sum(cls_loss(s.class_scores, 0) for s in slots)
        assert match.total == pytest.approx(want, abs=1e-12)

    def test_extra_dummy_slots_only_add_background_terms(self):
        # Widening the slot budget with dummies never increases the matched
        # regression cost; the added total is at most the background terms.
        rng = np.random.default_rng(53)
        for _ in range(50):
            pred3, gt_set = random_fixture(rng, k=3, n_gts=2)
            pred2 = PredictionSet(proposal=pred3.proposal, slots=pred3.slots[:2])
            if gt_set.n_real > 2:
                continue
            t2 = padded_match(pred2, gt_set, EmdConfig(k=2)).total
            t3 = padded_match(pred3, gt_set, EmdConfig(k=3)).total
            extra_bg = cls_loss(pred3.slots[2].class_scores, 0)
            assert t3 <= t2 + extra_bg + 1e-9


@st.composite
def emd_images(draw, k=st.sampled_from([1, 2, 3, 4, 6])):
    """One image for the engine, drawn from a seed: crowds of GT boxes on an
    integer grid (shifted copies and exact duplicates give IoU ties),
    ignored GTs, classes that can fall outside a slot's score vector,
    ragged score vectors, duplicate slots (cost ties), proposals mostly
    near a GT, and now and then a proposal with a wrong slot count. ``k``
    is drawn from the strategy given."""
    k = draw(k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def box(x, y, w, h):
        return BBox(float(x), float(y), float(x + w), float(y + h))

    gts = []
    for _ in range(rng.integers(1, 6)):
        x, y, h = rng.integers(0, 20), rng.integers(0, 20), rng.integers(3, 11)
        w = rng.choice([0, 3, 6, 8, 10])
        shifts = [(0, 0)] + [rng.integers(-1, 2, 2) for _ in range(rng.integers(0, 4))]
        for dx, dy in shifts:
            gts.append(GroundTruth(box=box(x + dx, y + dy, w, h),
                                   class_id=int(rng.choice([1] * 8 + [2, 3])),
                                   ignore=bool(rng.random() < 0.15)))
    sets = []
    for _ in range(rng.integers(0, 9)):
        if rng.random() < 0.8:
            g = gts[rng.integers(len(gts))].box
            dx, dy = rng.integers(-1, 2, 2)
            proposal = box(g.x1 + dx, g.y1 + dy, g.width, g.height)
        else:
            proposal = box(*rng.integers(0, 20, 2), *rng.integers(0, 11, 2))
        n_slots = k if rng.random() < 0.95 else max(1, k + rng.choice([-1, 1]))
        slots = []
        for _ in range(n_slots):
            if slots and rng.random() < 0.25:
                slots.append(slots[-1])
                continue
            v = rng.uniform(0.0, 1.0, rng.integers(2, 5))
            slots.append(SlotPrediction(class_scores=v / v.sum(),
                                        delta=BoxDelta(*rng.normal(0, 0.5, 4))))
        sets.append(PredictionSet(proposal=proposal, slots=tuple(slots)))
    cfg = EmdConfig(k=k)
    return sets, gts, cfg, draw(st.sampled_from([0.3, 0.5, 1.0])), draw(st.booleans())


def _bits(values):
    return [float(v).hex() for v in values]


class TestEngineOracle:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(emd_images())
    def test_match_batch_equals_per_proposal_loop(self, image):
        sets, gts, cfg, theta, truncate = image
        try:
            want = oracle.score_record(PredictionRecord(id="img", proposals=sets),
                                       gts, cfg, theta, truncate)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                match_batch(PredictionArrays.from_sets([("img", sets)]),
                            [gt_columns(gts)], cfg, theta, truncate)
            assert str(got.value) == str(e)
            return
        (got,) = match_batch(PredictionArrays.from_sets([("img", sets)]),
                             [gt_columns(gts)], cfg, theta, truncate)
        n_real = [oracle.build_gt_set(p.proposal, gts, theta).n_real for p in sets]
        assert got.n_real.tolist() == n_real
        assert np.minimum(got.n_real, cfg.k).tolist() == [n for n, _ in want]
        assert [tuple(p) for p in got.permutation.tolist()] == \
            [m.permutation for _, m in want]
        for costs, total, (_, m) in zip(got.per_slot_cost, got.total, want):
            assert _bits(costs) == _bits(m.per_slot_cost)
            assert float(total).hex() == m.total.hex()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(emd_images())
    def test_one_proposal_calls_equal_the_scalar_loops(self, image):
        sets, gts, cfg, theta, _ = image
        for pred in sets:
            if len(pred.slots) != cfg.k:
                continue
            gt_set = truncate_top_k(build_gt_set(pred.proposal, gts, theta), cfg.k)
            try:
                want = oracle.pair_cost_matrix(pred, gt_set, cfg)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    pair_cost_matrix(pred, gt_set, cfg)
                continue
            costs = pair_cost_matrix(pred, gt_set, cfg)
            assert _bits(costs.ravel()) == _bits(want.ravel())
            got, expected = emd_match(costs), oracle.emd_match(want)
            assert got.permutation == expected.permutation
            assert _bits(got.per_slot_cost) == _bits(expected.per_slot_cost)
            assert got.total.hex() == expected.total.hex()
            assert padded_match(pred, gt_set, cfg) == got

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_emd_match_ties_equal_the_permutation_loop(self, k, seed):
        # Costs on a coarse grid tie often; the first minimum in itertools
        # order must win.
        costs = np.random.default_rng(seed).integers(0, 3, (k, k)) * 0.5
        got, want = emd_match(costs), oracle.emd_match(costs)
        assert got.permutation == want.permutation
        assert got.total.hex() == want.total.hex()

    def test_empty_cost_matrix(self):
        assert emd_match(np.zeros((0, 0))) == oracle.emd_match(np.zeros((0, 0)))

    def test_image_without_proposals(self):
        (got,) = match_batch(PredictionArrays.from_sets([("img", [])]),
                             [gt_columns([GroundTruth(box=B(0, 0, 10, 10))])],
                             EmdConfig(k=2), 0.5)
        assert got.total.shape == (0,) and got.permutation.shape == (0, 2)
        assert got.n_real.shape == (0,)

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
    def test_image_without_proposals_checks_theta(self, theta):
        with pytest.raises(ValueError, match=r"theta must be in \(0, 1\]"):
            match_batch(PredictionArrays.from_sets([("img", [])]),
                        [gt_columns([GroundTruth(box=B(0, 0, 10, 10))])],
                        EmdConfig(k=2), theta)
