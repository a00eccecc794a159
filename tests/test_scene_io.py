import io
import json

import emd_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdset.assignment import GroundTruth
from crowdset.emd import PredictionSet, SlotPrediction
from crowdset.geometry import BBox, BoxDelta
from crowdset.scene_io import (PredictionRecord, SceneFileError, SceneRecord,
                               _parse_prediction_arrays, iter_scene_file,
                               parse_prediction_arrays, parse_prediction_file,
                               parse_scene_file, write_prediction_file,
                               write_scene_file)
from crowdset.suppression import Detection

B = BBox


def random_record(rng, rid):
    gts = []
    for _ in range(int(rng.integers(0, 6))):
        x, y = rng.uniform(0, 500, 2)
        w, h = rng.uniform(1, 80, 2)
        gts.append(GroundTruth(box=B(x, y, x + w, y + h),
                               class_id=int(rng.integers(1, 4)),
                               ignore=bool(rng.random() < 0.2)))
    dets = []
    for j in range(int(rng.integers(0, 6))):
        x, y = rng.uniform(0, 500, 2)
        w, h = rng.uniform(1, 80, 2)
        dets.append(Detection(box=B(x, y, x + w, y + h),
                              score=float(rng.uniform(0, 1)),
                              class_id=int(rng.integers(1, 4)),
                              proposal_id=j if rng.random() < 0.5 else None,
                              slot=int(rng.integers(0, 3)) if rng.random() < 0.5 else 0))
    return SceneRecord(id=rid, width=640, height=480, gts=gts, dets=dets)


class TestParse:
    def test_empty_file(self):
        assert parse_scene_file(io.StringIO("")) == []

    def test_xywh_at_origin(self):
        line = json.dumps({"id": "a", "gts": [{"box_xywh": [0, 0, 10, 10],
                                               "class": 1}]})
        rec = parse_scene_file(io.StringIO(line))[0]
        assert rec.gts[0].box == B(0, 0, 10, 10)

    def test_xywh_conversion(self):
        line = json.dumps({"id": "a", "gts": [{"box_xywh": [5, 5, 10, 20],
                                               "class": 1}]})
        rec = parse_scene_file(io.StringIO(line))[0]
        assert rec.gts[0].box == B(5, 5, 15, 25)

    def test_negative_size_reports_record_id(self):
        line = json.dumps({"id": "img7", "gts": [{"box_xywh": [5, 5, -1, 20],
                                                  "class": 1}]})
        with pytest.raises(SceneFileError, match="img7"):
            parse_scene_file(io.StringIO(line))

    def test_negative_size_reports_line_number(self):
        text = (json.dumps({"id": "a"}) + "\n"
                + json.dumps({"id": "img7", "gts": [{"box_xywh": [5, 5, -1, 20]}]}))
        with pytest.raises(SceneFileError, match="line 2: record 'img7': negative"):
            parse_scene_file(io.StringIO(text))

    def test_box_without_coordinates_reports_line_number(self):
        text = (json.dumps({"id": "a"}) + "\n\n"
                + json.dumps({"id": "b", "dets": [{"box": [0, 0, 1, 1],
                                                   "score": 0.5}]}))
        with pytest.raises(SceneFileError,
                           match="line 3: record 'b': box needs a box_xyxy"):
            parse_scene_file(io.StringIO(text))

    def test_malformed_json_reports_line_number(self):
        text = json.dumps({"id": "a"}) + "\n{nope\n"
        with pytest.raises(SceneFileError, match="line 2"):
            parse_scene_file(io.StringIO(text))

    def test_duplicate_ids_rejected(self):
        text = "\n".join(json.dumps({"id": "x"}) for _ in range(2))
        with pytest.raises(SceneFileError, match="duplicate"):
            parse_scene_file(io.StringIO(text))

    def test_unknown_fields_ignored(self):
        line = json.dumps({"id": "a", "exotic": {"deep": [1, 2]},
                           "gts": [{"box_xyxy": [0, 0, 1, 1], "class": 2,
                                    "vendor_tag": "yes"}]})
        rec = parse_scene_file(io.StringIO(line))[0]
        assert rec.gts[0].class_id == 2

    def test_missing_proposal_id_stays_anonymous(self):
        line = json.dumps({"id": "a", "dets": [
            {"box_xyxy": [0, 0, 1, 1], "score": 0.5, "class": 1}]})
        rec = parse_scene_file(io.StringIO(line))[0]
        assert rec.dets[0].proposal_id is None
        assert rec.dets[0].slot == 0

    def test_streaming_order_preserved(self):
        text = "\n".join(json.dumps({"id": f"r{i}"}) for i in range(5))
        recs = list(iter_scene_file(io.StringIO(text)))
        assert [r.id for r in recs] == [f"r{i}" for i in range(5)]


class TestRoundTrip:
    def test_round_trip_random_records(self):
        rng = np.random.default_rng(99)
        records = [random_record(rng, f"img-{i:04d}") for i in range(1000)]
        buf = io.StringIO()
        write_scene_file(records, buf)
        back = parse_scene_file(io.StringIO(buf.getvalue()))
        assert back == records  # float round-trip is exact via repr

    def test_empty_record_list(self):
        buf = io.StringIO()
        write_scene_file([], buf)
        assert buf.getvalue() == ""

    def test_ignore_flag_preserved(self):
        rec = SceneRecord(id="a", gts=[GroundTruth(box=B(0, 0, 5, 5),
                                                   class_id=1, ignore=True)])
        buf = io.StringIO()
        write_scene_file([rec], buf)
        back = parse_scene_file(io.StringIO(buf.getvalue()))[0]
        assert back.gts[0].ignore is True

    def test_lf_line_endings_and_one_object_per_line(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        rng = np.random.default_rng(1)
        write_scene_file([random_record(rng, "a"), random_record(rng, "b")],
                         str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 2
        for line in raw.decode("utf-8").splitlines():
            json.loads(line)

    def test_anonymous_detection_omits_proposal_id(self):
        rec = SceneRecord(id="a", dets=[Detection(box=B(0, 0, 5, 5), score=0.5)])
        buf = io.StringIO()
        write_scene_file([rec], buf)
        obj = json.loads(buf.getvalue())
        assert "proposal_id" not in obj["dets"][0]


class TestPredictionFiles:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        records = []
        for i in range(20):
            proposals = []
            for _ in range(int(rng.integers(1, 4))):
                x, y = rng.uniform(0, 100, 2)
                slots = tuple(
                    SlotPrediction(
                        class_scores=(lambda v: v / v.sum())(rng.uniform(0.1, 1, 3)),
                        delta=BoxDelta(*rng.normal(0, 0.2, 4)))
                    for _ in range(2))
                proposals.append(PredictionSet(proposal=B(x, y, x + 20, y + 30),
                                               slots=slots))
            records.append(PredictionRecord(id=f"p{i}", proposals=proposals))
        buf = io.StringIO()
        write_prediction_file(records, buf)
        back = parse_prediction_file(io.StringIO(buf.getvalue()))
        assert len(back) == len(records)
        for got, want in zip(back, records):
            assert got.id == want.id
            for gp, wp in zip(got.proposals, want.proposals):
                assert gp.proposal == wp.proposal
                for gs, ws in zip(gp.slots, wp.slots):
                    assert np.array_equal(gs.class_scores, ws.class_scores)
                    assert gs.delta == ws.delta

    def test_malformed_line_reported(self):
        with pytest.raises(SceneFileError, match="line 1"):
            parse_prediction_file(io.StringIO("{broken"))

    def test_bad_record_reports_line_number(self):
        # The record on line 3 has a proposal without "slots".
        text = ('{"id": "a", "proposals": []}\n\n'
                '{"id": "b", "proposals": [{"box_xyxy": [0, 0, 1, 1]}]}\n')
        with pytest.raises(SceneFileError, match="line 3: bad record"):
            parse_prediction_file(io.StringIO(text))


# Ways a proposal's box, its slot list or one slot can be written; all but
# the first of each are rare, and some of them are valid.
_BOXES = {
    "xyxy": lambda b: {"box_xyxy": b},
    "xywh": lambda b: {"box_xywh": [b[0], b[1], b[2] - b[0], b[3] - b[1]]},
    "inverted": lambda b: {"box_xyxy": [b[2] + 1, b[1], b[0], b[3]]},
    "nan": lambda b: {"box_xyxy": [float("nan"), *b[1:]]},
    "inf": lambda b: {"box_xyxy": [*b[:3], float("inf")]},
    "negative_xywh": lambda b: {"box_xywh": [b[0], b[1], -1.0, 2.0]},
    "no_key": lambda b: {},
    "three_values": lambda b: {"box_xyxy": b[:3]},
    "string": lambda b: {"box_xyxy": ["a", *b[1:]]},
}
_SLOTS = {
    "ok": None,
    "sum": {"scores": [0.5, 0.6]},
    "negative": {"scores": [-0.1, 1.1]},
    "one_class": {"scores": [1.0]},
    "no_classes": {"scores": []},
    "nan_score": {"scores": [float("nan"), 1.0]},
    "inf_score": {"scores": [float("inf"), 0.0]},
    "just_over_one": {"scores": [1.0000005, 0.0]},
    "nine_classes": {"scores": [0.1] * 8 + [0.2]},
    "nan_delta": {"delta": [0.0, float("nan"), 0.0, 0.0]},
    "three_deltas": {"delta": [0.0, 0.0, 0.0]},
    "five_deltas": {"delta": [0.0] * 5},
    "no_delta": {"delta": None},
    "no_scores": {"scores": None},
    "string_score": {"scores": ["x", 1.0]},
    "nested_score": {"scores": [[0.5], 0.5]},
}


def _pick(rng, options):
    names = list(options)
    return names[0] if rng.random() < 0.8 else names[rng.integers(1, len(names))]


def raw_prediction_record(rng):
    proposals = []
    for _ in range(rng.integers(0, 6)):
        x, y = rng.uniform(0, 100, 2)
        p = _BOXES[_pick(rng, _BOXES)]([x, y, x + 20.0, y + 40.0])
        slots = []
        for _ in range(rng.integers(1, 4)):
            v = rng.uniform(0.05, 1.0, rng.integers(2, 5))
            slot = {"scores": (v / v.sum()).tolist(),
                    "delta": rng.normal(0, 0.2, 4).tolist()}
            slot.update(_SLOTS[_pick(rng, _SLOTS)] or {})
            slots.append({key: v for key, v in slot.items() if v is not None})
        kind = rng.integers(0, 40)
        if kind == 0:
            slots = []
        if kind != 1:
            p["slots"] = 5 if kind == 2 else slots
        proposals.append(p)
    return {"id": "r", "proposals": proposals}


def _outcome(parse, obj):
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError) as e:
        return type(e), str(e)


class TestPredictionArrays:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_records_and_errors_as_the_sequential_parser(self, seed):
        obj = raw_prediction_record(np.random.default_rng(seed))
        want = _outcome(oracle.parse_prediction_record, obj)
        got = _outcome(lambda o: [_parse_prediction_arrays(o).prediction_set(i)
                                  for i in range(len(o["proposals"]))], obj)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want.proposals)
        for g, w in zip(got, want.proposals):
            assert g.proposal == w.proposal
            assert len(g.slots) == len(w.slots)
            for gs, ws in zip(g.slots, w.slots):
                assert gs.class_scores.tobytes() == ws.class_scores.tobytes()
                assert gs.delta == ws.delta

    def test_arrays_are_zero_padded(self):
        text = json.dumps({"id": "a", "proposals": [
            {"box_xyxy": [0, 0, 2, 2], "slots": [
                {"scores": [0.5, 0.5], "delta": [0, 0, 0, 0]},
                {"scores": [0.2, 0.3, 0.5], "delta": [1, 2, 3, 4]}]},
            {"box_xyxy": [1, 1, 3, 3], "slots": [
                {"scores": [1.0, 0.0], "delta": [0, 0, 0, 0]}]}]}) + "\n"
        (a,) = parse_prediction_arrays(io.StringIO(text))
        assert a.id == "a" and len(a) == 2
        assert a.n_slots.tolist() == [2, 1]
        assert a.n_classes.tolist() == [[2, 3], [2, 0]]
        assert a.scores.tolist() == [[[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],
                                     [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
        assert a.deltas[0, 1].tolist() == [1, 2, 3, 4]
        assert a.deltas[1, 1].tolist() == [0, 0, 0, 0]

    def test_vector_sums_ignore_the_padding(self):
        # This 9-class vector sums to 1 + 1e-6 + 1 ulp, one ulp over the
        # tolerance; zero-padded to 16 classes, numpy's pairwise sum groups
        # it differently and lands on 1 + 1e-6, inside it.
        nine = [0.1016954675289198, 0.18072400393115975, 0.03545514865151257,
                0.18039713729586446, 0.06566397017635575, 0.08575161565329352,
                0.15860658545787312, 0.08320634945434692, 0.10850072185067405]
        record = {"id": "a", "proposals": [{"box_xyxy": [0, 0, 2, 2], "slots": [
            {"scores": [1 / 16] * 16, "delta": [0, 0, 0, 0]},
            {"scores": nine, "delta": [0, 0, 0, 0]}]}]}
        text = json.dumps(record) + "\n"
        for parse in (parse_prediction_arrays, parse_prediction_file):
            with pytest.raises(SceneFileError, match="line 1: bad record "
                               r"\(class_scores must be a probability vector"):
                parse(io.StringIO(text))
        assert _outcome(oracle.parse_prediction_record, record)[1] == \
            "class_scores must be a probability vector (sum 1)"

    def test_record_without_proposals(self):
        (a,) = parse_prediction_arrays(io.StringIO('{"id": "a"}\n'))
        assert len(a) == 0 and a.scores.shape[0] == 0


class _FailingStream(io.StringIO):
    name = "full-disk.jsonl"

    def write(self, text):
        raise OSError("no space left on device")


class TestWriteErrors:
    @pytest.mark.parametrize("write, record", [
        (write_scene_file, SceneRecord(id="a")),
        (write_prediction_file, PredictionRecord(id="a")),
    ])
    def test_os_error_names_the_file(self, write, record):
        with pytest.raises(OSError, match="full-disk.jsonl.*no space left"):
            write([record], _FailingStream())
