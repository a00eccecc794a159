import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_oracle as oracle
from crowdset.assignment import GroundTruth, gt_columns
from crowdset import metrics
from crowdset.cli import main
from crowdset.geometry import BBox, boxes_to_array, iou, overlaps
from crowdset.metrics import EvalConfig, Evaluation
from crowdset.scene_io import SceneArrays
from crowdset.suppression import (Detections, SuppressionConfig, nms, set_nms,
                                  suppress_many)
from crowdset.synth import (_BISECTION_STEPS, PROPOSALS_PER_GT,
                            DetectorSimParams, SceneGenerationError,
                            SceneParams, StudyRow, _Draw, _shift_to_iou,
                            _Scene, build_scenes, derive_seed, run_study,
                            simulate_detector)

# Crowded scenes with triples, so three-member assignment sets occur and
# k=3 emits slots that k=2 does not.
CROWDED = SceneParams(n_objects_mean=14.0, crowd_pairs_mean=2.0,
                      crowd_triples_mean=2.0)


def crowded_scenes(n=6):
    return [s.gts for s in build_scenes(CROWDED, n, seed=21)]


def edge_scenes():
    """Crowded scenes with ignored ground truths of three classes, then an
    empty scene and an all-ignored one."""
    mixed = [[GroundTruth(box=g.box, class_id=1 + i % 3, ignore=i % 4 == 1)
              for i, g in enumerate(gts)] for gts in crowded_scenes(3)]
    return mixed + [[], [replace(g, ignore=True) for g in mixed[0]]]


# sha256 of simulate_detector over edge_scenes() at k = 1, 2 and 3.
EDGE_SCENES_SHA256 = "27183d786003f98a5d55bf8e64b45e220d5254ddde1405967dd9b1e1f90b074d"

# sha256 of `crowdset synth --images 8 --seed 5` at (--pairs-mean,
# --triples-mean), as the scalar generator wrote it.
SYNTH_SHA256 = {
    ("0", "0"): "530abb6b34c5dd8e435a068b1425ae1b23f65fd8818bd0417fb8dbb6c439fd10",
    ("0", "0.8"): "a6ba3029a0d422768243fcb5cf533c30208d7cc15f1081b292f32eec6a442d47",
    ("0.6", "0"): "0a64716a765375a0d4b2081c39dc55881f0f7f1f380bd41253ce759b64c2bcaf",
    ("0.6", "0.8"): "7d2a6761d29d9ccec01025a6c44f2cecc102659be685187b9aa5476e46589e12",
    ("2.4", "0"): "3902198364acf955a41fe4a991c39bb2de3a0c9580a4c71de32de1a7353175b3",
    ("2.4", "0.8"): "ebda027172cb23868e5c64d70b718d4736474d02dee073e51fd12cf64550bace",
    ("6.0", "0"): "66570a8ad5e8902fb107ef805c1c6eae5231cb38a76005bc0d6a883ebf71b271",
    ("6.0", "0.8"): "c20cc4e96911e926cfdcfa4f79e62535e158789e442c970c715116f062aead0e",
}

# Too many clusters for the image: seed 4 cannot place them all.
TINY_CROWD = SceneParams(image_w=120, image_h=100, n_objects_mean=6.0,
                         crowd_pairs_mean=3.0, crowd_triples_mean=1.5,
                         pair_iou_range=(0.51, 0.52), seed=4)


@st.composite
def scene_params(draw):
    """Generator parameters from sparse to dense, on images down to ones
    too small for their boxes, with pair IoU ranges at both limits."""
    below_one = math.nextafter(1.0, 0.0)
    lo = draw(st.one_of(st.just(math.nextafter(0.5, 1.0)), st.just(below_one),
                        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)))
    hi = draw(st.one_of(st.just(lo), st.just(below_one),
                        st.floats(lo, 1.0, exclude_max=True)))
    w, h = draw(st.sampled_from([(1280, 800), (400, 300), (200, 150),
                                 (120, 100)]))
    return SceneParams(
        image_w=w, image_h=h,
        n_objects_mean=draw(st.floats(0.0, 80.0)),
        crowd_pairs_mean=draw(st.floats(0.0, 6.0)),
        crowd_triples_mean=draw(st.floats(0.0, 1.5)),
        pair_iou_range=(lo, hi), seed=draw(st.integers(0, 2**63 - 1)))


def outcome(generate, params):
    """The generated boxes' bytes, or the error message."""
    try:
        return generate(params).tobytes()
    except SceneGenerationError as e:
        return str(e)


class TestDeterminism:
    def test_synth_bytes_repeat_under_a_seed(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["synth", "--images", "5", "--seed", "9",
                         "--triples-mean", "1", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        other = tmp_path / "c.jsonl"
        assert main(["synth", "--images", "5", "--seed", "10",
                     "--triples-mean", "1", "--out", str(other)]) == 0
        assert other.read_bytes() != outs[0]

    def test_synth_manifest_counts_the_generator_work(self, tmp_path):
        # The three scenes of TestStudy's shared-work study, with its counts.
        out = tmp_path / "scenes.jsonl"
        assert main(["synth", "--images", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "scenes.jsonl.manifest.json").read_text())
        assert manifest["counters"] == {"placement_retries": 1,
                                        "bisection_cap_hits": 0}

    @pytest.mark.parametrize("pairs, triples", list(SYNTH_SHA256))
    def test_synth_bytes_are_pinned(self, tmp_path, pairs, triples):
        out = tmp_path / "scenes.jsonl"
        assert main(["synth", "--images", "8", "--seed", "5", "--pairs-mean",
                     pairs, "--triples-mean", triples, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == SYNTH_SHA256[pairs, triples]


class TestGenerator:
    @given(scene_params())
    @settings(max_examples=300, deadline=None)
    @example(TINY_CROWD)  # a 2-box cluster fails
    @example(replace(TINY_CROWD, crowd_triples_mean=3.0))  # a 3-box one
    def test_array_generator_equals_the_scalar_oracle(self, params):
        want = outcome(lambda p: boxes_to_array(
            [g.box for g in oracle.generate_scene(p)]), params)
        assert outcome(lambda p: _Scene(p).boxes, params) == want

    def test_generate_scene_gives_the_oracles_ground_truths(self):
        for seed in range(5):
            params = replace(CROWDED, seed=seed)
            want = boxes_to_array([g.box for g in oracle.generate_scene(params)])
            assert _Scene(params).boxes.tobytes() == want.tobytes()

    def test_a_partner_that_fails_every_try_abandons_its_anchor(self):
        params = SceneParams(image_w=300, image_h=300, n_objects_mean=30,
                             crowd_pairs_mean=6, crowd_triples_mean=1.5,
                             seed=285)
        failed = []

        class Spy(_Scene):
            def partner(self, anchor):
                box = super().partner(anchor)
                failed.append(box is None)
                return box

        scene = Spy(params)
        assert any(failed)
        assert len(scene.boxes) == 19
        want = boxes_to_array([g.box for g in oracle.generate_scene(params)])
        assert scene.boxes.tobytes() == want.tobytes()

    def test_rejections_are_counted_on_a_hand_made_stream(self):
        # A uniform row (0, 0, ux, uy) is a 40 x 64 box at
        # (1000 ux, 1000 uy) on this image. A box 10 px right of another
        # overlaps it at IoU 30/50 = 0.6, one 30 px right at 10/70.
        scene = _Scene(SceneParams(image_w=1040, image_h=1064,
                                   n_objects_mean=0.0, crowd_pairs_mean=0.0))
        assert scene.boxes.shape == (0, 4) and scene.retries == 0
        scene.placed.append((900.0, 900.0, 940.0, 964.0))
        rows = np.array([(0, 0, 0, 0),       # placed
                         (0, 0, 0, 0),       # rejected: equals the first
                         (0, 0, 0.01, 0),    # rejected: IoU 0.6 with it
                         (0, 0, 0.9, 0.9),   # rejected: equals the old box
                         (0, 0, 0.5, 0.5),   # placed
                         (0, 0, 0.03, 0)],   # placed: IoU 1/7 with the first
                        dtype=float)
        scene.rng = SimpleNamespace(random=lambda shape: np.resize(rows, shape))
        boxes = scene.isolated(3)
        assert scene.retries == 3
        assert boxes.tolist() == [[900, 900, 940, 964], [0, 0, 40, 64],
                                  [500, 500, 540, 564], [30, 0, 70, 64]]

    def test_bisection_reports_when_it_runs_out_of_steps(self):
        # Shifting a 40 x 64 box d px right gives IoU (40 - d) / (40 + d),
        # which is 0.6 at d = 10.
        box, capped = _shift_to_iou((0.0, 0.0, 40.0, 64.0), 1.0, 0.0, 0.6)
        assert not capped
        assert box[0] == pytest.approx(10.0, abs=0.01)
        assert box[1:] == (0.0, box[0] + 40.0, 64.0)
        # A zero-area anchor has IoU 0 with every shift: every step runs.
        assert _shift_to_iou((5.0, 5.0, 5.0, 5.0), 1.0, 0.0, 0.6) == (
            (5.0, 5.0, 5.0, 5.0), True)
        assert _BISECTION_STEPS == 80


class TestSimulator:
    def test_noise_does_not_depend_on_k(self):
        saw_third_slot = False
        for i, gts in enumerate(crowded_scenes()):
            seed = derive_seed(21, 1, i)
            mip2 = simulate_detector(gts, DetectorSimParams(k=2, seed=seed))
            mip3 = simulate_detector(gts, DetectorSimParams(k=3, seed=seed))
            assert ([d.box for d in mip2 if d.slot == 0]
                    == [d.box for d in mip3 if d.slot == 0])
            assert [d for d in mip3 if d.slot < 2] == mip2
            saw_third_slot |= any(d.slot == 2 for d in mip3)
        assert saw_third_slot

    def test_single_mode_is_k1(self):
        for i, gts in enumerate(crowded_scenes()):
            seed = derive_seed(21, 1, i)
            single = simulate_detector(
                gts, DetectorSimParams(mode="single", k=3, seed=seed))
            assert single == simulate_detector(
                gts, DetectorSimParams(k=1, seed=seed))
            assert all(d.slot == 0 for d in single)

    def test_slots_follow_descending_iou_with_the_proposal(self):
        # Zero jitter puts each proposal exactly on its ground truth, so the
        # slot-0 prediction is that ground truth and later slots overlap it
        # less.
        gts = crowded_scenes(1)[0]
        dets = simulate_detector(gts, DetectorSimParams(
            k=3, proposal_jitter=0.0, seed=1))
        for pid in {d.proposal_id for d in dets}:
            slots = sorted((d for d in dets if d.proposal_id == pid),
                           key=lambda d: d.slot)
            anchor = gts[pid // PROPOSALS_PER_GT].box
            assert slots[0].box == anchor
            overlaps = [iou(anchor, d.box) for d in slots]
            assert overlaps == sorted(overlaps, reverse=True)
            assert all(v >= 0.5 for v in overlaps)

    def test_k1_collapses_onto_the_dominant_member(self):
        # Zero jitter puts each proposal exactly on its own ground truth.
        # The last two boxes have equal areas and IoU 2/3, far from the
        # generated ones, so the larger corner tuple decides between them.
        tie = [GroundTruth(box=BBox(2000.0, 0.0, 2040.0, 80.0)),
               GroundTruth(box=BBox(2008.0, 0.0, 2048.0, 80.0))]
        gts = crowded_scenes(1)[0] + tie
        dets = simulate_detector(gts, DetectorSimParams(
            k=1, proposal_jitter=0.0, seed=1))
        assert [d.proposal_id for d in dets] == \
            list(range(PROPOSALS_PER_GT * len(gts)))
        owner = [gts[d.proposal_id // PROPOSALS_PER_GT] for d in dets]
        for d, g in zip(dets, owner):
            members = [m.box for m in gts if iou(g.box, m.box) >= 0.5]
            assert d.box == max(members, key=lambda b: (b.area, *b.as_tuple()))
            assert d.slot == 0
        # The smaller members of the generated pairs and triples move too.
        assert len({d.proposal_id // PROPOSALS_PER_GT
                    for d, g in zip(dets, owner) if d.box != g.box}) >= 4
        assert {d.box for d in dets[-2 * PROPOSALS_PER_GT:]} == {tie[1].box}

    def test_edge_scene_output_is_pinned(self):
        digest = hashlib.sha256()
        scenes = edge_scenes()
        for k in (1, 2, 3):
            for i, gts in enumerate(scenes):
                dets = simulate_detector(gts, DetectorSimParams(
                    k=k, seed=derive_seed(21, 1, i)))
                digest.update(repr([(d.box.as_tuple(), d.score, d.class_id,
                                     d.proposal_id, d.slot)
                                    for d in dets]).encode())
        assert digest.hexdigest() == EDGE_SCENES_SHA256

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_targets_are_real_and_give_their_class(self, k):
        # Zero jitter puts every proposal on its ground truth, which is then
        # a member, and every prediction exactly on its target box; no
        # ignored box equals a real one.
        for gts in edge_scenes():
            real = {g.box: g.class_id for g in gts if not g.ignore}
            dets = simulate_detector(gts, DetectorSimParams(
                k=k, proposal_jitter=0.0, seed=1))
            assert {d.proposal_id for d in dets} == \
                set(range(PROPOSALS_PER_GT * len(real)))
            assert all(real.get(d.box) == d.class_id for d in dets)

    @pytest.mark.parametrize("jitter", [0.0, 0.06])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_a_draw_over_many_images_equals_each_image_drawn_alone(
            self, jitter, order):
        # Ignored ground truths of three classes, triples, an empty image and
        # an all-ignored one, first and last.
        scenes = edge_scenes()
        if order == "reversed":
            scenes = scenes[::-1]
        seeds = [derive_seed(21, 1, i) for i in range(len(scenes))]
        columns = [gt_columns(gts) for gts in scenes]
        image = np.repeat(np.arange(len(scenes)), list(map(len, scenes)))
        sim = DetectorSimParams(proposal_jitter=jitter)
        draw = _Draw(*(np.concatenate(c) for c in zip(*columns)), image,
                     seeds, sim)
        for k in (1, 2, 3):
            rows = draw.select(k)
            assert (np.diff(rows) > 0).all()
            got = draw.dets.take(rows, draw.dets.scores[rows])
            got_image = draw.image[rows]
            want, want_image = Detections.concat([
                Detections.from_list(simulate_detector(
                    gts, replace(sim, k=k, seed=seed)))
                for gts, seed in zip(scenes, seeds)])
            assert got_image.tolist() == want_image.tolist()
            assert want.slots.max() == k - 1  # a triple fills every slot
            for field in ("boxes", "scores"):
                assert ([v.hex() for v in getattr(got, field).ravel().tolist()]
                        == [v.hex() for v in getattr(want, field).ravel().tolist()])
            assert got.classes.tolist() == want.classes.tolist()
            # A one-slot prediction is slot 0 whichever member it aims at.
            slots = got.slots if k > 1 else np.zeros_like(got.slots)
            assert slots.tolist() == want.slots.tolist()
            offset = got.proposal_ids - want.proposal_ids
            for i in range(len(scenes)):
                assert len(set(offset[want_image == i].tolist())) <= 1

    # Under seed 6 the jitter of 200 first overflows in the fourth image;
    # 1e308 overflows wherever a box is drawn.
    @pytest.mark.parametrize("jitter, seed", [(200.0, 6), (1e308, 21)])
    def test_an_overflowing_jitter_fails_as_one_image_does(self, jitter, seed):
        scenes = edge_scenes()[::-1]  # the empty and all-ignored images first
        seeds = [derive_seed(seed, 1, i) for i in range(len(scenes))]
        sim = DetectorSimParams(proposal_jitter=jitter)
        with pytest.raises(ValueError) as alone:
            for gts, s in zip(scenes, seeds):
                simulate_detector(gts, replace(sim, seed=s))
        columns = [gt_columns(gts) for gts in scenes]
        image = np.repeat(np.arange(len(scenes)), list(map(len, scenes)))
        with pytest.raises(ValueError) as batched:
            _Draw(*(np.concatenate(c) for c in zip(*columns)), image, seeds, sim)
        assert str(batched.value) == str(alone.value) == (
            f"proposal_jitter {jitter} overflows a box's area")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            DetectorSimParams(mode="double")
        with pytest.raises(ValueError):
            DetectorSimParams(k=0)
        with pytest.raises(ValueError, match="pair_iou_range must lie inside"):
            SceneParams(pair_iou_range=(0.4, 0.6))


class TestSizes:
    @pytest.mark.parametrize("argv, message", [
        (["--images", "1", "--image-w", "0"], "image_w must be >= 1, got 0"),
        (["--images", "1", "--image-h", "-1"], "image_h must be >= 1, got -1"),
        (["--images", "0"], "n_images must be >= 1, got 0"),
        (["--images", "-1"], "n_images must be >= 1, got -1"),
        (["--images", "1", "--objects-mean", "nan"],
         "n_objects_mean must be finite and >= 0, got nan"),
        (["--images", "1", "--pairs-mean", "inf"],
         "crowd_pairs_mean must be finite and >= 0, got inf"),
        (["--images", "1", "--triples-mean=-inf"],
         "crowd_triples_mean must be finite and >= 0, got -inf"),
        (["--images", "1", "--pairs-mean", "-0.5"],
         "crowd_pairs_mean must be finite and >= 0, got -0.5"),
    ])
    def test_synth_writes_nothing_it_cannot_draw(self, tmp_path, capsys, argv,
                                                 message):
        out = tmp_path / "scenes.jsonl"
        assert main(["synth", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_study_rejects_a_nan_density_mean(self, tmp_path, capsys):
        out = tmp_path / "study"
        assert main(["study", "--images", "1", "--objects-mean", "nan",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: n_objects_mean must be finite and >= 0, got nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("jitter", ["nan", "inf"])
    def test_study_rejects_a_non_finite_jitter(self, tmp_path, capsys, jitter):
        out = tmp_path / "study"
        assert main(["study", "--images", "2", "--jitter", jitter,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: proposal_jitter must be finite and >= 0, got {jitter}\n")
        assert not (out / "rows.csv").exists()

    @pytest.mark.parametrize("jitter", ["1e308", "200"])
    def test_study_rejects_a_jitter_that_overflows(self, tmp_path, capsys,
                                                   jitter):
        # Finite, but a jittered box's size overflows: the study used to
        # warn, then write rows scored on NaN boxes and exit 0.
        out = tmp_path / "study"
        assert main(["study", "--images", "1", "--jitter", jitter,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: proposal_jitter {float(jitter)} overflows a box's area\n")
        assert not out.exists()


class TestStudy:
    def test_set_nms_on_sets_beats_nms_beats_one_slot(self):
        nms = SuppressionConfig(method="nms")
        set_nms = SuppressionConfig(method="set_nms")
        rows = run_study(SceneParams(), [DetectorSimParams(k=1),
                                         DetectorSimParams(k=2)],
                         [nms, set_nms], EvalConfig(), n_images=24, seed=0)
        by = {(r.sim_label, r.method): r.report for r in rows}
        order = [by["mip2", "set_nms"], by["mip2", "nms"], by["mip1", "nms"]]
        for better, worse in zip(order, order[1:]):
            assert better.ap > worse.ap
            assert better.mr2 < worse.mr2
            assert better.ji > worse.ji

    def test_one_slot_set_nms_is_nms(self):
        # Why the study computes no Set NMS row for a one-slot model.
        for i, gts in enumerate(crowded_scenes()):
            dets = simulate_detector(
                gts, DetectorSimParams(k=1, seed=derive_seed(21, i)))
            for t in (0.3, 0.5, 0.7):
                cfg = SuppressionConfig(method="nms", iou_thresh=t)
                kept = nms(dets, cfg)
                assert len(kept) < len(dets)
                assert set_nms(dets, replace(cfg, method="set_nms")) == kept

    def test_shared_rows_equal_rows_built_one_at_a_time(self):
        # Two model families (the jitter differs) and every method, with
        # equal and distinct thresholds; triples make k=3 differ from k=2.
        sims = [DetectorSimParams(k=1), DetectorSimParams(k=3),
                DetectorSimParams(k=2), DetectorSimParams(k=2, proposal_jitter=0.1),
                DetectorSimParams(mode="single", k=3)]
        cfgs = [SuppressionConfig(method="nms"),
                SuppressionConfig(method="set_nms"),
                SuppressionConfig(method="nms", iou_thresh=0.3),
                SuppressionConfig(method="soft_gaussian", score_floor=0.05),
                SuppressionConfig(method="soft_linear", iou_thresh=0.4),
                SuppressionConfig(method="set_nms", iou_thresh=0.3)]
        eval_cfg, n, seed = EvalConfig(), 5, 21
        rows = run_study(CROWDED, sims, cfgs, eval_cfg, n, seed)

        scenes = build_scenes(CROWDED, n, seed)
        want = []
        for sim in sims:
            raw = [Detections.from_list(simulate_detector(
                       scene.gts, replace(sim, seed=derive_seed(seed, 1, i))))
                   for i, scene in enumerate(scenes)]
            for cfg in cfgs:
                if sim.effective_k == 1 and cfg.method == "set_nms":
                    continue
                images = [replace(SceneArrays.from_record(scene),
                                  dets=dets.take(*suppress_many(dets, [cfg])[0]))
                          for scene, dets in zip(scenes, raw)]
                want.append(StudyRow(sim.label, sim.effective_k, cfg.method,
                                     cfg.iou_thresh,
                                     Evaluation.of_arrays(images, eval_cfg).report()))
        assert [repr(r) for r in rows] == [repr(r) for r in want]
        # The k=3 model's rows are not its family's k=2 rows.
        k3 = [r.report for r in rows if r.k == 3]
        k2 = [r.report for r in rows if r.k == 2][:len(k3)]
        assert len(k3) == len(cfgs) and k3 != k2
        assert rows.counters() == {"images": n, "draws": 2 * n,
                                   "sweeps": 2,  # one per family
                                   "rows": len(want), "placement_retries": 0,
                                   "bisection_cap_hits": 0}

    def test_a_family_without_configs_is_neither_drawn_nor_swept(self):
        # The one-slot model's only config is Set NMS, which it never runs.
        rows = run_study(SceneParams(), [DetectorSimParams(k=1)],
                         [SuppressionConfig(method="set_nms")], EvalConfig(),
                         4, 1)
        assert len(rows) == 0
        counters = rows.counters()
        assert (counters["draws"], counters["sweeps"], counters["rows"]) == (0, 0, 0)

    def test_ground_truths_are_swept_once_per_study(self, monkeypatch):
        gt_sweeps = []

        def counting(a, keep, groups_a=None, b=None, groups_b=None):
            if b is None:  # the GT/GT sweep; the det/GT sweep passes b
                gt_sweeps.append(len(a))
            return overlaps(a, keep, groups_a, b, groups_b)

        monkeypatch.setattr(metrics, "overlaps", counting)
        rows = run_study(CROWDED, [DetectorSimParams(k=1), DetectorSimParams(k=2)],
                         [SuppressionConfig(method="nms"),
                          SuppressionConfig(method="set_nms")],
                         EvalConfig(), n_images=3, seed=21)
        assert len(rows) == 3
        assert gt_sweeps == [sum(len(s.gts) for s in build_scenes(CROWDED, 3, 21))]

    def test_counters_add_up_each_scenes_rejections(self):
        # Crowded scenes on a small image reject candidates.
        params, n, seed = replace(CROWDED, image_w=400, image_h=300), 4, 3
        rows = run_study(params, [DetectorSimParams()], [SuppressionConfig()],
                         EvalConfig(), n, seed)
        retries = [_Scene(replace(params, seed=derive_seed(seed, 0, i))).retries
                   for i in range(n)]
        counters = rows.counters()
        assert counters["placement_retries"] == sum(retries) > 0
        assert counters["bisection_cap_hits"] == 0
