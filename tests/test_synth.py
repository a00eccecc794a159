import hashlib

import pytest

from crowdset.cli import main
from crowdset.geometry import iou
from crowdset.synth import (DetectorSimParams, SceneParams, build_scenes,
                            derive_seed, simulate_detector)

# Crowded scenes with triples, so three-member assignment sets occur and
# k=3 emits slots that k=2 does not.
CROWDED = SceneParams(n_objects_mean=14.0, crowd_pairs_mean=2.0,
                      crowd_triples_mean=2.0)


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def crowded_scenes(n=6):
    return [s.gts for s in build_scenes(CROWDED, n, seed=21)]


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

    def test_study_output_does_not_depend_on_jobs(self, tmp_path):
        for jobs in ("1", "2"):
            assert main(["study", "--images", "4", "--k-sweep", "1,3",
                         "--nms-sweep", "0.4", "--jobs", jobs,
                         "--out", str(tmp_path / f"jobs{jobs}")]) == 0
        for name in ("rows.csv", "report.json"):
            assert (digest(tmp_path / "jobs1" / name)
                    == digest(tmp_path / "jobs2" / name))


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

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            DetectorSimParams(mode="double")
        with pytest.raises(ValueError):
            DetectorSimParams(k=0)
