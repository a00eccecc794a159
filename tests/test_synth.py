import hashlib
from dataclasses import replace

import pytest

from crowdset.assignment import GroundTruth
from crowdset.cli import main
from crowdset.geometry import BBox, iou
from crowdset.metrics import EvalConfig
from crowdset.suppression import SuppressionConfig, nms, set_nms
from crowdset.synth import (DetectorSimParams, SceneParams, build_scenes,
                            derive_seed, run_study, simulate_detector)

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
            k=3, proposal_jitter=0.0, proposals_per_gt=1, seed=1))
        for pid in {d.proposal_id for d in dets}:
            slots = sorted((d for d in dets if d.proposal_id == pid),
                           key=lambda d: d.slot)
            anchor = gts[pid].box
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
            k=1, proposal_jitter=0.0, proposals_per_gt=1, seed=1))
        assert [d.proposal_id for d in dets] == list(range(len(gts)))
        for d in dets:
            members = [g.box for g in gts
                       if iou(gts[d.proposal_id].box, g.box) >= 0.5]
            assert d.box == max(members, key=lambda b: (b.area, *b.as_tuple()))
            assert d.slot == 0
        # The smaller members of the generated pairs and triples move too.
        assert sum(d.box != gts[d.proposal_id].box for d in dets) >= 4
        assert dets[-2].box == dets[-1].box == tie[1].box

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
                k=k, proposal_jitter=0.0, proposals_per_gt=2, seed=1))
            assert {d.proposal_id for d in dets} == set(range(2 * len(real)))
            assert all(real.get(d.box) == d.class_id for d in dets)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            DetectorSimParams(mode="double")
        with pytest.raises(ValueError):
            DetectorSimParams(k=0)


class TestSizes:
    @pytest.mark.parametrize("argv, message", [
        (["--images", "1", "--image-w", "0"], "image_w must be >= 1, got 0"),
        (["--images", "1", "--image-h", "-1"], "image_h must be >= 1, got -1"),
        (["--images", "0"], "n_images must be >= 1, got 0"),
        (["--images", "-1"], "n_images must be >= 1, got -1"),
    ])
    def test_synth_writes_nothing_it_cannot_draw(self, tmp_path, capsys, argv,
                                                 message):
        out = tmp_path / "scenes.jsonl"
        assert main(["synth", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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
