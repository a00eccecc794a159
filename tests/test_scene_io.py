import dataclasses
import io
import json
import math
import re
from itertools import chain, product

import emd_oracle as oracle
import numpy as np
import orjson
import scene_io_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdset import scene_io
from crowdset.assignment import GroundTruth
from crowdset.emd import PredictionArrays, PredictionSet, SlotPrediction
from crowdset.geometry import BBox, BoxDelta
from crowdset.scene_io import (PredictionRecord, SceneArrays, SceneFileError,
                               SceneRecord, _at_line, _parse_scene_arrays,
                               _prediction_batch, _prediction_sets,
                               _scene_columns,
                               parse_prediction_arrays,
                               parse_prediction_file, parse_scene_arrays,
                               parse_scene_file, write_prediction_file,
                               write_scene_arrays, write_scene_file)
from crowdset.suppression import Detection, Detections

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

    @pytest.mark.parametrize("bad_line", [b"[" * 100_000, b'{"id": "\xff"}'],
                             ids=["nested-too-deeply", "not-utf-8"])
    @pytest.mark.parametrize("parse, first", [
        (parse_scene_arrays, {"id": "a"}), (parse_scene_file, {"id": "a"}),
        (parse_prediction_arrays, {"id": "a", "proposals": []}),
        (parse_prediction_file, {"id": "a", "proposals": []})])
    def test_undecodable_line_reports_its_number(self, tmp_path, parse, first,
                                                 bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps(first).encode() + b"\n" + bad_line + b"\n")
        with pytest.raises(SceneFileError, match=r"^line 2: malformed JSON \("):
            parse(path)

    @pytest.mark.parametrize("parse", [parse_scene_arrays, parse_scene_file])
    @pytest.mark.parametrize("key", ["gts", "dets"])
    def test_box_whose_doubled_area_overflows_reports_its_line(self, parse,
                                                               key):
        box = {"box_xyxy": [0, 0, 1e154, 1e154], "score": 0.5}
        text = (json.dumps({"id": "a"}) + "\n"
                + json.dumps({"id": "b", key: [box]}) + "\n")
        with pytest.raises(SceneFileError,
                           match=r"^line 2: bad record \(box area overflows"):
            parse(io.StringIO(text))

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
        recs = parse_scene_arrays(io.StringIO(text))
        assert [r.id for r in recs] == [f"r{i}" for i in range(5)]


def _one_line(gt=None, det=None):
    record = {"id": "a", "gts": [], "dets": []}
    if gt is not None:
        record["gts"].append({"box_xyxy": [0, 0, 4, 4], **gt})
    if det is not None:
        record["dets"].append({"box_xyxy": [0, 0, 4, 4], "score": 0.5, **det})
    return io.StringIO(json.dumps({"id": "ok"}) + "\n" + json.dumps(record) + "\n")


class TestStrictFields:
    """Field types are checked, not coerced: each case used to parse to a
    different value (``bool("false")`` is True, ``int(2.7)`` is 2,
    ``float("0.5")`` is 0.5) or, out of int64 range, to fail later with an
    uncaught OverflowError."""

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_ignore_must_be_a_json_boolean(self, value):
        with pytest.raises(SceneFileError, match=r"line 2: record 'a': ignore "
                           r"must be true or false, got " + repr(value)):
            parse_scene_file(_one_line(gt={"ignore": value}))

    @pytest.mark.parametrize("element, key, value", [
        ("gt", "class", 1.9), ("gt", "class", True), ("det", "class", 1.9),
        ("det", "class", "1"),
        *(("det", "proposal_id", v) for v in (2.7, False, "3", None)),
        ("det", "slot", 1.0), ("det", "slot", True),
        ("gt", "class", 2**63), ("det", "class", -2**63 - 1),
        ("det", "proposal_id", 2**63), ("det", "slot", 2**64)])
    def test_integer_fields_must_be_64_bit_json_integers(self, element, key,
                                                         value):
        # Declared: orjson reads an integer outside [-2**63, 2**64) as a
        # float, and the message shows that float.
        read = orjson.loads(json.dumps(value))
        with pytest.raises(SceneFileError, match=re.escape(
                f"line 2: record 'a': {key} must be a 64-bit integer, "
                f"got {read!r}")):
            parse_scene_file(_one_line(**{element: {key: value}}))

    def test_slot_must_not_be_negative(self):
        with pytest.raises(SceneFileError, match=r"line 2: bad record \(slot "
                           r"must be non-negative, got -3\)"):
            parse_scene_file(_one_line(det={"slot": -3}))

    @pytest.mark.parametrize("field", [{"gt": {"box_xyxy": ["1", 0, 10, True]}},
                                       {"det": {"box_xyxy": [0, 0, None, 4]}},
                                       {"det": {"score": "0.5"}},
                                       {"det": {"score": True}}])
    def test_boxes_and_scores_must_be_json_numbers(self, field):
        ((key, value),) = next(iter(field.values())).items()
        rule = "a JSON number" if key == "score" else "a list of JSON numbers"
        with pytest.raises(SceneFileError, match=re.escape(
                f"line 2: record 'a': {key} must be {rule}, got {value!r}")):
            parse_scene_file(_one_line(**field))

    @pytest.mark.parametrize("key, value", [("width", 640.7), ("height", True),
                                            ("width", "640")])
    def test_width_and_height_must_be_json_integers(self, key, value):
        line = json.dumps({"id": "a", key: value})
        with pytest.raises(SceneFileError, match=re.escape(
                f"line 1: record 'a': {key} must be a 64-bit integer, got "
                f"{value!r}")):
            parse_scene_file(io.StringIO(line))

    @pytest.mark.parametrize("key, value", [("box_xyxy", ["0", 0, 2, 2]),
                                            ("scores", ["0.5", 0.5]),
                                            ("delta", [True, 0, 0, 0])])
    def test_prediction_numbers_must_be_json_numbers(self, key, value):
        slot = {"scores": [0.5, 0.5], "delta": [0, 0, 0, 0]}
        proposal = {"box_xyxy": [0, 0, 2, 2], "slots": [slot]}
        (proposal if key == "box_xyxy" else slot)[key] = value
        text = json.dumps({"id": "a", "proposals": [proposal]}) + "\n"
        for parse in (parse_prediction_arrays, parse_prediction_file):
            with pytest.raises(SceneFileError, match=re.escape(
                    f"line 1: record 'a': {key} must be a list of JSON "
                    f"numbers, got {value!r}")):
                parse(io.StringIO(text))

    @pytest.mark.parametrize("value", [None, 1, ["a"], {"id": "a"}])
    def test_id_must_be_a_json_string(self, value):
        # null used to read as the id "None", and 1 as "1".
        scene = json.dumps({"id": value}) + "\n"
        prediction = json.dumps({"id": value, "proposals": []}) + "\n"
        for parse, text in ((parse_scene_arrays, scene),
                            (parse_scene_file, scene),
                            (parse_prediction_arrays, prediction),
                            (parse_prediction_file, prediction)):
            with pytest.raises(SceneFileError, match=re.escape(
                    f"line 1: record {value!r}: id must be a JSON string, got "
                    f"{value!r}")):
                parse(io.StringIO(text))

    @pytest.mark.parametrize("key", ["gts", "dets"])
    @pytest.mark.parametrize("value", [
        {}, {"box_xyxy": [0, 0, 1, 1], "score": 0.5}, "", None, 3])
    def test_gts_and_dets_must_be_json_arrays(self, key, value):
        # An empty object used to parse as an empty list. A record's fields
        # are checked before its elements, so under dets the bad ground
        # truth does not fail first.
        record = {"id": "a", "gts": [{"box_xyxy": [0, 0, 1, 1], "class": 0.5}],
                  key: value}
        text = json.dumps(record) + "\n"
        for parse in (parse_scene_arrays, parse_scene_file):
            with pytest.raises(SceneFileError, match=re.escape(
                    f"line 1: record 'a': {key} must be a JSON array, got "
                    f"{value!r}")):
                parse(io.StringIO(text))

    @pytest.mark.parametrize("key", ["proposals", "slots"])
    @pytest.mark.parametrize("value", [
        {}, {"scores": [0.5, 0.5], "delta": [0, 0, 0, 0]}, "ab", None, 3])
    def test_proposals_and_slots_must_be_json_arrays(self, key, value):
        proposal = {"box_xyxy": [0, 0, 2, 2], "slots": value}
        record = {"id": "a", "proposals": value if key == "proposals"
                  else [proposal]}
        text = json.dumps(record) + "\n"
        for parse in (parse_prediction_arrays, parse_prediction_file):
            with pytest.raises(SceneFileError, match=re.escape(
                    f"line 1: record 'a': {key} must be a JSON array, got "
                    f"{value!r}")):
                parse(io.StringIO(text))

    @pytest.mark.parametrize("parse, line", [
        (parse_scene_file, '{"id": "a", "gts": [{"box_xyxy": [0, 0, 1%s, 4]}]}'),
        (parse_scene_arrays,
         '{"id": "a", "dets": [{"box_xyxy": [0, 0, 4, 4], "score": 1%s}]}'),
        (parse_prediction_file, '{"id": "a", "proposals": [{"box_xyxy": [0, '
         '0, 2, 2], "slots": [{"scores": [0.5, 0.5], "delta": [0, 1%s, 0, 0]}]}]}'),
        (parse_prediction_arrays, '{"id": "a", "proposals": [{"box_xyxy": [0, '
         '0, 2, 2], "slots": [{"scores": [0.5, -1%s], "delta": [0, 0, 0, 0]}]}]}')],
        ids=["scene-file", "scene-arrays", "prediction-file", "prediction-arrays"])
    @pytest.mark.parametrize("zeros", [400, 4300],
                             ids=["beyond-float-range", "past-the-digit-limit"])
    def test_integer_beyond_float_range_is_malformed_json(self, parse, line,
                                                          zeros):
        # 4,300 digits is Python's default int-string limit.
        line = line % ("0" * zeros) + "\n"
        with pytest.raises(SceneFileError, match=re.escape(_malformed(2, line))):
            parse(io.StringIO('{"id": "ok"}\n' + line))

    def test_int64_bounds_are_accepted(self):
        (rec,) = parse_scene_file(io.StringIO(json.dumps({"id": "a", "dets": [
            {"box_xyxy": [0, 0, 1, 1], "score": 0.5, "class": -2**63,
             "proposal_id": 2**63 - 1, "slot": 2**63 - 1}]})))
        assert rec.dets[0].class_id == -2**63
        assert rec.dets[0].proposal_id == rec.dets[0].slot == 2**63 - 1


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

    @pytest.mark.parametrize("parse", [parse_prediction_arrays,
                                       parse_prediction_file])
    def test_box_whose_doubled_area_overflows_reports_its_line(self, parse):
        slot = {"scores": [0.5, 0.5], "delta": [0, 0, 0, 0]}
        text = ('{"id": "a", "proposals": []}\n' + json.dumps(
            {"id": "b", "proposals": [{"box_xyxy": [0, 0, 1e154, 1e154],
                                       "slots": [slot]}]}) + "\n")
        with pytest.raises(SceneFileError,
                           match=r"^line 2: bad record \(box area overflows"):
            parse(io.StringIO(text))


# Ways a proposal's box, its slot list or one slot can be written; all but
# the first of each are rare, and some of them are valid.
_BOXES = {
    "xyxy": lambda b: {"box_xyxy": b},
    "xywh": lambda b: {"box_xywh": [b[0], b[1], b[2] - b[0], b[3] - b[1]]},
    "inverted": lambda b: {"box_xyxy": [b[2] + 1, b[1], b[0], b[3]]},
    "nan": lambda b: {"box_xyxy": [float("nan"), *b[1:]]},
    "inf": lambda b: {"box_xyxy": [*b[:3], float("inf")]},
    "huge": lambda b: {"box_xyxy": [b[0], b[1], b[0] + 1e154, b[1] + 1e154]},
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
        x, y = rng.uniform(0, 100, 2).tolist()
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


def _batch_of_one(obj):
    """``obj`` as the parser reads a batch of one record, without its line:
    the batch's columns or, where a check fails, the element-by-element
    rebuild."""
    (record,) = _scene_columns([obj]) or [_parse_scene_arrays(obj)]
    return record


def _strict_floats(values, key, record_id):
    """A list of numbers under the strict rule: JSON numbers only, so no
    strings, booleans, nulls or nested lists."""
    if type(values) is not list or not all(type(v) in (int, float)
                                           for v in values):
        raise SceneFileError(f"record {record_id!r}: {key} must be a list of "
                             f"JSON numbers, got {values!r}")
    return (float(v) for v in values)


class _NotAnArray:
    """A ``slots`` value that is not a JSON array: iterating it raises the
    strict rule's error, where the sequential parser iterates it."""

    def __init__(self, value):
        self.value = value

    def __iter__(self):
        raise SceneFileError(f"record 'r': slots must be a JSON array, "
                             f"got {self.value!r}")


def _strict_slots(obj):
    """``obj`` with each non-array ``slots`` wrapped in :class:`_NotAnArray`."""
    return {**obj, "proposals": [
        {**p, "slots": _NotAnArray(p["slots"])}
        if "slots" in p and type(p["slots"]) is not list else p
        for p in obj["proposals"]]}


class TestPredictionArrays:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_records_and_errors_as_the_sequential_parser(self, seed):
        obj = raw_prediction_record(np.random.default_rng(seed))
        # Both sides as the record on line 1 of a file: its errors name it.
        want = _outcome(lambda o: _at_line(1, lambda r: oracle.parse_prediction_record(
            _strict_slots(r), _strict_floats), o), obj)
        got = _outcome(lambda o: _prediction_batch([(1, o)]), obj)
        if isinstance(want, tuple):
            assert got == want
            return
        got = [got.prediction_set(i) for i in range(len(got))]
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
        assert a.ids == ("a",) and len(a) == 2
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

    @pytest.mark.parametrize("scores", [_SLOTS["nan_score"]["scores"],
                                        [0.5, 0.5, float("nan")]])
    def test_nan_score_is_not_a_probability_vector(self, scores):
        # A file cannot hold NaN, which is malformed JSON, but the batch's
        # columns are checked for it all the same.
        record = {"id": "a", "proposals": [{"box_xyxy": [0, 0, 2, 2], "slots": [
            {"scores": scores, "delta": [0, 0, 0, 0]}]}]}
        with pytest.raises(SceneFileError, match="line 1: bad record "
                           r"\(class_scores must be a probability vector"):
            _prediction_batch([(1, record)])
        assert _outcome(oracle.parse_prediction_record, record)[1] == \
            "class_scores must be a probability vector (sum 1)"

    def test_record_without_proposals(self):
        (a,) = parse_prediction_arrays(io.StringIO('{"id": "a"}\n'))
        assert len(a) == 0 and a.scores.shape[0] == 0

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_each_batch_is_padded_to_its_own_width(self, monkeypatch, size):
        # Records of differing slot counts and score lengths, so batches
        # differ in width. Each batch is padded to its own widest slot count
        # and score vector, and no wider; joined, the batches are the
        # one-batch read of the file, padded to the file's widest (2, 4).
        records = [{"id": f"r{i}", "proposals": [
            {"box_xyxy": [0, 0, 2 + j, 2], "slots": [
                {"scores": [1.0] + [0.0] * (i % 3 + 1), "delta": [i, j, s, 0]}
                for s in range(j % 2 + 1)]} for j in range(i % 4)]}
            for i in range(7)]
        text = "".join(json.dumps(r) + "\n" for r in records)
        (whole,) = parse_prediction_arrays(io.StringIO(text))
        assert whole.scores.shape == (9, 2, 4)
        monkeypatch.setattr(scene_io, "BATCH_PROPOSALS", size)
        got = parse_prediction_arrays(io.StringIO(text))
        assert len(got) > 1
        for batch in got:
            assert len(batch) >= size or batch is got[-1]
            own = [p["slots"] for r in records if r["id"] in batch.ids
                   for p in r["proposals"]]
            width = (max(map(len, own), default=0),
                     max((len(s["scores"]) for slots in own for s in slots),
                         default=0))
            assert batch.scores.shape == (len(batch), *width)
            assert batch.n_classes.shape == batch.deltas.shape[:2] == \
                (len(batch), width[0])
        joined = PredictionArrays.concat(got)
        assert joined.ids == whole.ids == tuple(r["id"] for r in records)
        for name in ("counts", "boxes", "n_slots", "scores", "n_classes",
                     "deltas"):
            x, y = getattr(joined, name), getattr(whole, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                       y.tobytes())


# Ways one ground truth or detection can be written: the fields it sets or
# drops (_DROP), and the strict-field error it raises where the sequential
# parser coerced the value instead. All but the first of each are rare, and
# some of them are valid. The box modes in _STRICT_BOXES hold values that
# are not JSON numbers.
_DROP = object()
_BELOW_1E_4, _BELOW_1E16 = (math.nextafter(v, 0) for v in (1e-4, 1e16))
_SCENE_BOXES = {
    **_BOXES,
    "integers": lambda b: {"box_xyxy": [int(v) for v in b]},
    "numeric_string": lambda b: {"box_xyxy": [str(b[0]), *b[1:]]},
    "none": lambda b: {"box_xyxy": [None, *b[1:]]},
    "bool": lambda b: {"box_xyxy": [False, *b[1:]]},
    "nested": lambda b: {"box_xyxy": [[v] for v in b]},
    "not_a_list": lambda b: {"box_xyxy": 7},
    # Floats whose spelling json takes from float.__repr__: a signed zero,
    # the least subnormal and both exponent forms.
    "edge_floats": lambda b: {"box_xyxy": [-0.0, 5e-324, 1e16, 1e-07]},
    # Both sides of both edges of the range where the writers take orjson's
    # spelling, [1e-4, 1e16).
    "orjson_edges": lambda b: {"box_xyxy": [-1e-05, _BELOW_1E_4, 1e-4,
                                            _BELOW_1E16]},
}
_STRICT_BOXES = {"string", "numeric_string", "none", "bool", "nested",
                 "not_a_list"}
_RULES = {"ignore": "true or false", "score": "a JSON number",
          "box_xyxy": "a list of JSON numbers", "dets": "a JSON array"}


def _strict(key, value):
    rule = _RULES.get(key, "a 64-bit integer")
    return {key: value}, f"record 'r': {key} must be {rule}, got {value!r}"


_GT_FIELDS = {
    "ok": ({}, None),
    "no_class": ({"class": _DROP}, None),
    "ignored": ({"ignore": True}, None),
    "no_ignore": ({"ignore": _DROP}, None),
    "class_zero": ({"class": 0}, None),
    "class_negative": ({"class": -1}, None),
    "class_float": _strict("class", 1.9),
    "class_bool": _strict("class", True),
    "class_string": _strict("class", "2"),
    "class_huge": _strict("class", 2**63),
    "ignore_string": _strict("ignore", "false"),
    "ignore_int": _strict("ignore", 0),
}
_DET_FIELDS = {
    "ok": ({}, None),
    "anonymous": ({"proposal_id": _DROP, "slot": _DROP}, None),
    "anonymous_slot": ({"proposal_id": _DROP, "slot": 2}, None),
    "no_slot": ({"slot": _DROP}, None),
    "no_score": ({"score": _DROP}, None),
    "score_high": ({"score": 1.5}, None),
    "score_negative": ({"score": -0.1}, None),
    "score_nan": ({"score": float("nan")}, None),
    "score_string": _strict("score", "0.25"),
    "score_none": _strict("score", None),
    "score_int": ({"score": 1}, None),
    "score_negative_zero": ({"score": -0.0}, None),
    "score_subnormal": ({"score": 5e-324}, None),
    "score_tiny": ({"score": 1e-07}, None),
    "score_below_1e-4": ({"score": _BELOW_1E_4}, None),
    "score_1e-4": ({"score": 1e-4}, None),
    "pid_max": ({"proposal_id": 2**63 - 1}, None),
    "class_zero": ({"class": 0}, None),
    "pid_negative": ({"proposal_id": -2}, None),
    "slot_negative": ({"slot": -3}, None),
    "class_float": _strict("class", 1.9),
    "class_bool": _strict("class", False),
    "pid_float": _strict("proposal_id", 2.7),
    "pid_null": _strict("proposal_id", None),
    "pid_string": _strict("proposal_id", "3"),
    "pid_huge": _strict("proposal_id", 2**63),
    "slot_float": _strict("slot", 1.0),
    # The largest integer orjson reads as an int. A file's integer below
    # -2**63 reads as a float, whose message
    # test_integer_fields_must_be_64_bit_json_integers pins.
    "slot_huge": _strict("slot", 2**64 - 1),
}


def _element(rng, base):
    """One element: a box mode or a field mode, never both, so that an
    element breaks at most one rule."""
    x, y, w, h = rng.uniform([0, 0, 1, 1], [100, 100, 40, 80]).tolist()
    b = [x, y, x + w, y + h]
    fields = _GT_FIELDS if "ignore" in base else _DET_FIELDS
    mode = _pick(rng, fields) if rng.random() < 0.5 else "ok"
    box = _pick(rng, _SCENE_BOXES) if mode == "ok" else "xyxy"
    update, strict = fields[mode]
    obj = {**_SCENE_BOXES[box](b), **base, **update}
    if box in _STRICT_BOXES:
        strict = _strict("box_xyxy", obj["box_xyxy"])[1]
    return {k: v for k, v in obj.items() if v is not _DROP}, strict


# Record ids; all but the first need JSON escapes: a quote, a backslash,
# non-ASCII and control characters.
_IDS = ["r", 'r"q', "r\\s", "r\u00e9\u4e2d", "r\x07\n"]


def raw_scene_record(rng):
    """A scene record and, per element in file order, its strict-field
    error or None."""
    gts = [_element(rng, {"class": int(rng.integers(1, 3)), "ignore": False})
           for _ in range(rng.integers(0, 5))]
    dets = [_element(rng, {"score": float(rng.uniform(0, 1)),
                           "class": int(rng.integers(1, 3)),
                           "proposal_id": int(rng.integers(0, 4)),
                           "slot": int(rng.integers(0, 3))})
            for _ in range(rng.integers(0, 7))]
    obj = {"id": "r", "width": 640, "height": 480,
           "gts": [g for g, _ in gts], "dets": [d for d, _ in dets]}
    kind = rng.integers(0, 30)
    if kind in (0, 1, 2):
        del obj[("width", "gts", "dets")[kind]]
    elif kind == 3:
        obj["height"] = "tall"
    elif kind == 4:
        obj["dets"] = None
    strict = [(key, j, e) for key, elements in (("gts", gts), ("dets", dets))
              if isinstance(obj.get(key), list)
              for j, (_, e) in enumerate(elements) if e]
    if kind == 3:  # read after every element
        strict.append(("height", None, _strict("height", "tall")[1]))
    if kind == 4:  # checked before any element
        strict.insert(0, ("record", None, _strict("dets", None)[1]))
    obj["id"] = _pick(rng, _IDS)
    strict = [(key, j, e.replace("record 'r'", f"record {obj['id']!r}", 1))
              for key, j, e in strict]
    return obj, strict


def _expected(obj, strict):
    """The sequential parser's outcome, with the first strict-field error in
    file order taking the place of every later outcome."""
    if not strict:
        return _outcome(scene_io_oracle.parse_record, obj)
    section, j, error = strict[0]
    if section == "record":
        return SceneFileError, error
    if section == "height":
        prefix = {k: v for k, v in obj.items() if k != "height"}
    else:
        prefix = {"id": obj["id"], "gts": obj["gts"][:j] if section == "gts"
                  else obj.get("gts", [])}
        if section == "dets":
            prefix["dets"] = obj["dets"][:j]
    before = _outcome(scene_io_oracle.parse_record, prefix)
    return before if isinstance(before, tuple) else (SceneFileError, error)


def _line_outcome(obj, strict):
    """:func:`_expected` of ``obj`` read from its json.dumps line, which
    orjson rejects if it holds a NaN or an infinity."""
    try:
        orjson.loads(json.dumps(obj))
    except orjson.JSONDecodeError as e:
        return SceneFileError, f"malformed JSON ({e.msg})"
    return _expected(obj, strict)


class TestSceneArrays:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_records_bytes_and_errors_as_the_sequential_parser(self, seed):
        obj, strict = raw_scene_record(np.random.default_rng(seed))
        want = _expected(obj, strict)
        got = _outcome(_batch_of_one, obj)
        # The rebuild that a batch failing a check takes, on its own.
        rebuilt = _outcome(_parse_scene_arrays, obj)
        if isinstance(want, tuple):
            assert got == rebuilt == want
            return
        assert got.record() == rebuilt.record() == want
        line = scene_io_oracle.record_line(want)
        for write, record in ((write_scene_arrays, got), (write_scene_file, want)):
            buf = io.StringIO()
            write([record], buf)
            assert buf.getvalue() == line

    # Files of valid records, one of which, at ``bad``, fails when ``bad``
    # is below ``n``: at batch sizes 1 to 3 and the default, the file parses
    # to the columns and bytes of each record parsed alone, by either
    # builder, or fails with the bad record's own error and line. A record
    # with a NaN or an infinity is malformed JSON.
    @pytest.mark.parametrize("size", [1, 2, 3, scene_io.BATCH_PROPOSALS])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 11))
    def test_many_records_same_records_bytes_and_errors_in_any_batch(
            self, size, seed, n, bad):
        rng = np.random.default_rng(seed)
        objs, first_error = [], None
        for i in range(n):
            while True:
                obj, strict = raw_scene_record(rng)
                # Unique ids, so only a record's own fields can fail it.
                rid, obj["id"] = obj["id"], f"{obj['id']}{i}"
                strict = [(key, j, e.replace(f"record {rid!r}",
                                             f"record {obj['id']!r}", 1))
                          for key, j, e in strict]
                want = _line_outcome(obj, strict)
                if isinstance(want, tuple) == (i == bad):
                    break
            objs.append(obj)
            if i == bad:
                kind, message = want
                first_error = (f"line {i + 1}: {message}"
                               if kind is SceneFileError
                               else f"line {i + 1}: bad record ({message})")
        text = "".join(json.dumps(obj) + "\n" for obj in objs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene_io, "BATCH_PROPOSALS", size)
            if first_error is not None:
                with pytest.raises(SceneFileError) as raised:
                    parse_scene_arrays(io.StringIO(text))
                assert str(raised.value) == first_error
                return
            got = parse_scene_arrays(io.StringIO(text))
        # Each record's columns are those of the record alone, dtype and all.
        assert len(got) == n
        for (a, obj), alone in product(zip(got, objs), (_batch_of_one,
                                                        _parse_scene_arrays)):
            b = alone(obj)
            assert (a.id, a.width, a.height) == (b.id, b.width, b.height)
            for x, y in zip((a.gt_boxes, a.gt_classes, a.gt_ignore,
                             *vars(a.dets).values()),
                            (b.gt_boxes, b.gt_classes, b.gt_ignore,
                             *vars(b.dets).values())):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                           y.tobytes())
        buf = io.StringIO()
        write_scene_arrays(got, buf)
        assert buf.getvalue() == "".join(
            scene_io_oracle.record_line(scene_io_oracle.parse_record(obj))
            for obj in objs)

    @pytest.mark.parametrize("size", [1, 2, 3, scene_io.BATCH_PROPOSALS])
    def test_anonymous_ids_are_numbered_per_record(self, monkeypatch, size):
        monkeypatch.setattr(scene_io, "BATCH_PROPOSALS", size)

        def det(**fields):
            return {"box_xyxy": [0, 0, 2, 2], "score": 0.5, **fields}

        lines = [{"id": "a", "dets": [det(), det(proposal_id=4), det()]},
                 {"id": "none", "gts": [{"box_xyxy": [1, 1, 3, 3]}]},
                 {"id": "b", "dets": [det(slot=1), det()]},
                 {"id": "empty", "dets": []},
                 {"id": "c", "dets": [det(proposal_id=0)]}]
        got = parse_scene_arrays(io.StringIO(
            "".join(json.dumps(obj) + "\n" for obj in lines)))
        assert [(r.id, r.dets.proposal_ids.tolist(), r.dets.slots.tolist())
                for r in got] == [("a", [-1, 4, -3], [0, 0, 0]),
                                  ("none", [], []), ("b", [-1, -2], [1, 0]),
                                  ("empty", [], []), ("c", [0], [0])]
        assert [len(r.gt_boxes) for r in got] == [0, 1, 0, 0, 0]
        assert got[1].dets.boxes.shape == (0, 4)

    @pytest.mark.parametrize("size", [1, 2, 3, scene_io.BATCH_PROPOSALS])
    def test_bad_record_inside_a_batch_fails_with_its_line(self, monkeypatch,
                                                           size):
        monkeypatch.setattr(scene_io, "BATCH_PROPOSALS", size)
        good = {"gts": [{"box_xyxy": [0, 0, 2, 2]}]}
        lines = [{"id": "a", **good}, {"id": "b", **good},
                 {"id": "c", "gts": [{"box_xyxy": [0, 0, 2, 2], "class": 0}]},
                 {"id": "d", "gts": [{"box_xyxy": [3, 0, 2, 2]}]}]
        with pytest.raises(SceneFileError, match=re.escape(
                "line 3: bad record (a real instance cannot carry the "
                "background class)")):
            parse_scene_arrays(io.StringIO(
                "".join(json.dumps(obj) + "\n" for obj in lines)))

    def test_generator_reaches_every_case(self):
        seen = set()
        for seed in range(400):
            obj, strict = raw_scene_record(np.random.default_rng(seed))
            want = _expected(obj, strict)
            seen.add("error" if isinstance(want, tuple) else "record")
            seen.update(e.split(":")[1].split()[0] for _, _, e in strict)
            for d in obj.get("dets") or []:
                if "proposal_id" not in d:
                    seen.add("anonymous-slot" if d.get("slot") else "anonymous")
                elif d["proposal_id"] == 2**63 - 1:
                    seen.add("pid-max")
                if "score" in d and d["score"] in (-0.0, 5e-324, 1e-07,
                                                   _BELOW_1E_4, 1e-4):
                    seen.add(f"score-{d['score']!r}")
            if obj["id"] != "r":
                seen.add("escaped-id")
            seen.update(k for k in ("width", "gts", "dets") if k not in obj)
            seen.update(f"empty-{k}" for k in ("gts", "dets") if obj.get(k) == [])
            for g in obj.get("gts", []):
                seen.update(k for k in ("box_xywh",) if k in g)
            for e in chain(obj.get("gts", []), obj.get("dets") or []):
                if e.get("box_xyxy") == [-0.0, 5e-324, 1e16, 1e-07]:
                    seen.add("edge-floats")
                if e.get("box_xyxy") == [-1e-05, _BELOW_1E_4, 1e-4, _BELOW_1E16]:
                    seen.add("orjson-edges")
        assert seen >= {"error", "record", "class", "ignore", "proposal_id",
                        "slot", "score", "box_xyxy", "height", "anonymous",
                        "anonymous-slot", "width", "gts", "dets", "empty-gts",
                        "empty-dets", "box_xywh", "pid-max", "score--0.0",
                        "score-5e-324", "score-1e-07", "escaped-id",
                        "edge-floats", "score-9.999999999999999e-05",
                        "score-0.0001", "orjson-edges"}

    @pytest.mark.parametrize("det", [
        {"score": [0.5]}, {"score": "0.5"}, {"score": True},
        {"box_xyxy": [[0], [0], [1], [1]]}, {"box_xyxy": [0, 0, 1, 1, 2, 3, 4, 5]},
        {"box_xyxy": ["0", 0, "1", 1]}])
    def test_a_lone_odd_field_parses_as_the_sequential_parser(self, det):
        # Every detection of the record has the odd field, so numpy sees
        # only it: a homogeneous column numpy would accept in another shape
        # or with another value. All but the eight-number box hold values
        # that are not JSON numbers, which the first detection rejects.
        obj = {"id": "r", "dets": [{"box_xyxy": [0, 0, 1, 1], "score": 0.5,
                                    **det}] * 2}
        ((key, value),) = det.items()
        strict = ([] if len(det.get("box_xyxy", ())) == 8
                  else [("dets", 0, _strict(key, value)[1])])
        want = _expected(obj, strict)
        got = _outcome(_batch_of_one, obj)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.record() == want

    @pytest.mark.parametrize("column, value", [
        ("scores", float("nan")), ("boxes", float("inf")),
        ("gt_boxes", -float("inf"))])
    def test_a_non_finite_value_raises_and_writes_no_text_of_its_record(
            self, column, value):
        good, bad = (SceneArrays.from_record(random_record(
            np.random.default_rng(5), rid)) for rid in ("good", "bad"))
        bad_column = getattr(bad if column == "gt_boxes" else bad.dets, column)
        bad_column.flat[-1] = value
        buf = io.StringIO()
        with pytest.raises(ValueError, match="record 'bad': .* not finite"):
            write_scene_arrays([good, bad, good], buf)
        assert buf.getvalue() == scene_io_oracle.record_line(good.record())

    @pytest.mark.parametrize("column", ["boxes", "gt_boxes"])
    @pytest.mark.parametrize("box", [[0.0, 0.0, 1e154, 1e154],  # area overflows
                                     [10.0, 0.0, 0.0, 10.0]])   # inverted
    def test_a_box_the_parser_rejects_is_not_written(self, column, box):
        good, bad = (SceneArrays.from_record(random_record(
            np.random.default_rng(5), rid)) for rid in ("good", "bad"))
        getattr(bad if column == "gt_boxes" else bad.dets, column)[-1] = box
        buf = io.StringIO()
        with pytest.raises(ValueError, match="record 'bad': a box is not "
                                             "finite, is inverted or its area "
                                             "overflows"):
            write_scene_arrays([good, bad, good], buf)
        assert buf.getvalue() == scene_io_oracle.record_line(good.record())
        # The parser rejects such a box, which is why the writer does.
        line = json.dumps({"id": "bad", "gts": [{"box_xyxy": box}]})
        with pytest.raises(SceneFileError, match="line 1: "):
            parse_scene_arrays(io.StringIO(line))

    @pytest.mark.parametrize("column, value, rule, obj", [
        ("gt_classes", 0, "a ground truth's class is not >= 1",
         {"gts": [{"box_xyxy": [0, 0, 1, 1], "class": 0}]}),
        ("scores", 1.5, "a score is not finite in",
         {"dets": [{"box_xyxy": [0, 0, 1, 1], "score": 1.5}]}),
        ("scores", -0.25, "a score is not finite in",
         {"dets": [{"box_xyxy": [0, 0, 1, 1], "score": -0.25}]}),
        ("slots", -1, "a slot is negative",
         {"dets": [{"box_xyxy": [0, 0, 1, 1], "score": 0.5, "slot": -1}]})])
    def test_a_value_the_parser_rejects_is_not_written(self, column, value,
                                                        rule, obj):
        good, bad = (SceneArrays.from_record(random_record(
            np.random.default_rng(5), rid)) for rid in ("good", "bad"))
        owner = bad if column == "gt_classes" else bad.dets
        getattr(owner, column)[-1] = value
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"record 'bad': {rule}"):
            write_scene_arrays([good, bad, good], buf)
        assert buf.getvalue() == scene_io_oracle.record_line(good.record())
        # The parser rejects such a value, which is why the writer does.
        with pytest.raises(SceneFileError, match="line 1: "):
            parse_scene_arrays(io.StringIO(json.dumps({"id": "bad", **obj})))

    def test_boxes_at_the_edge_of_the_box_rule_round_trip(self):
        # The largest square whose doubled area is finite, and boxes of zero
        # area, are valid: written, parsed and written again, byte for byte.
        rec = SceneRecord(id="edge", gts=[
            GroundTruth(box=B(0.0, 0.0, 9e153, 9e153)),
            GroundTruth(box=B(5.0, 5.0, 5.0, 5.0))], dets=[
            Detection(box=B(-9e153, 0.0, 0.0, 9e153), score=0.5),
            Detection(box=B(1.0, 2.0, 1.0, 7.0), score=1.0, proposal_id=3)])
        first = io.StringIO()
        write_scene_arrays([SceneArrays.from_record(rec)], first)
        assert first.getvalue() == scene_io_oracle.record_line(rec)
        again = io.StringIO()
        write_scene_arrays(parse_scene_arrays(io.StringIO(first.getvalue())),
                           again)
        assert again.getvalue() == first.getvalue()

    def test_columns(self):
        text = json.dumps({"id": "a", "width": 8, "gts": [
            {"box_xywh": [1, 2, 3, 4], "class": 2, "ignore": True}], "dets": [
            {"box_xyxy": [0, 0, 2, 2], "score": 0.5, "proposal_id": 7, "slot": 1},
            {"box_xyxy": [1, 1, 3, 3], "score": 0.25, "class": 3},
            {"box_xyxy": [1, 1, 3, 3], "score": 1, "slot": 2}]}) + "\n"
        (a,) = parse_scene_arrays(io.StringIO(text))
        assert (a.id, a.width, a.height) == ("a", 8, 0)
        assert a.gt_boxes.tolist() == [[1.0, 2.0, 4.0, 6.0]]
        assert a.gt_classes.tolist() == [2] and a.gt_ignore.tolist() == [True]
        d = a.dets
        assert d.boxes.dtype == d.scores.dtype == np.float64
        assert d.classes.dtype == d.proposal_ids.dtype == d.slots.dtype == np.int64
        assert d.scores.tolist() == [0.5, 0.25, 1.0]
        assert d.classes.tolist() == [1, 3, 1]
        assert d.proposal_ids.tolist() == [7, -2, -3]
        assert d.slots.tolist() == [1, 0, 2]

    def test_duplicate_ids_rejected(self):
        text = "\n".join(json.dumps({"id": "x"}) for _ in range(2))
        for parse in (parse_scene_arrays, parse_prediction_arrays):
            with pytest.raises(SceneFileError, match="duplicate record id 'x'"):
                parse(io.StringIO(text))


# One value per rule of a scene record that breaks it; the writer must
# refuse each. Integer columns hold int64, so a width or height is the only
# place a Python value outside int64, or a float, can reach the writer.
_BROKEN = {
    "gt_boxes": [[0.0, 0.0, 1e154, 1e154], [10.0, 0.0, 0.0, 10.0],
                 [0.0, float("nan"), 1.0, 1.0], [0.0, 0.0, float("inf"), 1.0]],
    "gt_classes": [0, -1, -2**63],
    "boxes": [[0.0, 0.0, 1e154, 1e154], [0.0, 10.0, 10.0, 0.0],
              [float("-inf"), 0.0, 1.0, 1.0]],
    "scores": [float("nan"), float("inf"), -0.5, 1.0000000000000002, 1e300],
    "slots": [-1, -2**63],
    "width": [1.5, 2**63, -2**63 - 1, True, None, "640"],
    "height": [2**64, 0.0, False],
}
_EDGE_SCORES = [0.0, -0.0, 5e-324, 1e-07, 1.0]


def scene_columns(rng):
    """A scene record as columns that the parser accepts, or the same with
    one value breaking one rule, and the name of the broken column (None
    when every rule holds)."""
    g, n = rng.integers(0, 5), rng.integers(0, 6)

    def boxes(m):
        # Corners and sides up to 1e9; about a tenth of the sides are 0.
        xy = rng.uniform(-1e9, 1e9, (m, 2))
        return np.hstack([xy, xy + rng.uniform(0, 1e9, (m, 2))
                          * (rng.random((m, 2)) < 0.9)])

    def ints(lo, hi, m):
        return rng.integers(lo, hi, m, dtype=np.int64, endpoint=True)

    scores = rng.uniform(0, 1, n)
    edge = rng.random(n) < 0.3
    scores[edge] = rng.choice(_EDGE_SCORES, edge.sum())
    # A negative proposal id is anonymous: written without a proposal_id.
    dets = Detections(boxes(n), scores, ints(-2**63, 2**63 - 1, n),
                      np.where(rng.random(n) < 0.3, -1,
                               ints(0, 2**63 - 1, n)),
                      np.where(rng.random(n) < 0.5, 0, ints(0, 2**63 - 1, n)))
    r = SceneArrays("r", *ints(-2**63, 2**63 - 1, 2).tolist(), boxes(g),
                    np.where(rng.random(g) < 0.5, 1, ints(1, 2**63 - 1, g)),
                    rng.random(g) < 0.2, dets)
    rules = ["width", "height", *(["gt_boxes", "gt_classes"] * bool(g)),
             *(["boxes", "scores", "slots"] * bool(n))]
    broken = rules[rng.integers(len(rules))] if rng.random() < 0.5 else None
    value = _BROKEN[broken][rng.integers(len(_BROKEN[broken]))] if broken else None
    if broken in ("width", "height"):
        setattr(r, broken, value)
    elif broken:
        column = getattr(r if broken.startswith("gt_") else dets, broken)
        column[rng.integers(len(column))] = value
    return r, broken


class TestSceneRules:
    """The writer and the parser share one rule for a scene record's
    columns, so the writer refuses exactly what the parser would."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_the_writer_refuses_what_the_parser_rejects(self, seed):
        r, broken = scene_columns(np.random.default_rng(seed))
        buf = io.StringIO()
        if broken:
            with pytest.raises(ValueError, match="^record 'r': "):
                write_scene_arrays([r], buf)
            assert buf.getvalue() == ""
            return
        write_scene_arrays([r], buf)
        (back,) = parse_scene_arrays(io.StringIO(buf.getvalue()))
        assert (back.id, back.width, back.height) == (r.id, r.width, r.height)
        for got, want, columns in (
                (back, r, ("gt_boxes", "gt_classes", "gt_ignore")),
                (back.dets, r.dets, ("boxes", "scores", "classes", "slots"))):
            for name in columns:
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
        # Anonymous detections parse back anonymous, with ids of their own.
        ids = r.dets.proposal_ids
        assert np.array_equal(back.dets.proposal_ids >= 0, ids >= 0)
        assert np.array_equal(back.dets.proposal_ids[ids >= 0], ids[ids >= 0])


# Floats at the edges of float64 and of the range [1e-4, 1e16) where the
# writers take orjson's spelling.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, np.finfo(np.float64).tiny, _BELOW_1E_4,
                1e-4, _BELOW_1E16, 1e16, -1e-05, np.finfo(np.float64).max]


def _reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


class TestFloatTexts:
    """The writers' float texts are json.dumps's, through the helper's own
    orjson call: an orjson build that spells a value otherwise fails here,
    rather than changing the bytes written."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_repr(self, seed):
        rng = np.random.default_rng(seed)
        bits = np.frombuffer(rng.bytes(8 * 400), dtype=np.float64)
        signs = rng.choice([-1.0, 1.0], 200)
        for values in (bits[np.isfinite(bits)], rng.uniform(0, 1, 200),
                       rng.uniform(-100, 2000, 200),  # pixel coordinates
                       signs * 10 ** rng.uniform(-7, 19, 200),
                       signs * 10 ** rng.uniform(-5, -3, 200)):
            assert scene_io._float_texts(values) == _reprs(values)

    def test_edges(self):
        values = np.array(_EDGE_FLOATS)
        for v in (values, -values, *values[:, None], *-values[:, None]):
            assert scene_io._float_texts(v) == _reprs(v)

    def test_empty(self):
        assert scene_io._float_texts(np.zeros(0)) == []
        assert scene_io._float_columns(np.zeros((0, 5))) == [[]] * 5

    def test_a_strided_column_and_a_table(self):
        boxes = np.random.default_rng(3).uniform(0, 500, (50, 4))
        assert scene_io._float_texts(boxes.T[0]) == _reprs(boxes[:, 0])
        assert scene_io._float_columns(boxes) == [_reprs(c) for c in boxes.T]


class _FailingStream(io.StringIO):
    name = "full-disk.jsonl"

    def write(self, text):
        raise OSError("no space left on device")


# Each writer, a record with a given id, and the parser of its files.
_WRITERS = pytest.mark.parametrize("write, record, parse", [
    (write_scene_arrays, lambda rid: SceneArrays.from_record(SceneRecord(id=rid)),
     parse_scene_arrays),
    (write_scene_file, lambda rid: SceneRecord(id=rid), parse_scene_file),
    (write_prediction_file, lambda rid: PredictionRecord(id=rid),
     parse_prediction_file),
], ids=["scene-arrays", "scene-file", "prediction-file"])


class TestWriteErrors:
    @pytest.mark.parametrize("write, record", [
        (write_scene_file, SceneRecord(id="a")),
        (write_prediction_file, PredictionRecord(id="a")),
    ])
    def test_os_error_names_the_file(self, write, record):
        with pytest.raises(OSError, match="full-disk.jsonl.*no space left"):
            write([record], _FailingStream())

    @_WRITERS
    def test_an_id_the_parser_rejects_is_not_written(self, write, record,
                                                     parse):
        for ids, error in ((["x", "x"], "duplicate record id 'x'"),
                           ([5], "record 5: id must be a JSON string, got 5")):
            buf = io.StringIO()
            with pytest.raises(SceneFileError, match=f"^{re.escape(error)}$"):
                write([record(rid) for rid in ids], buf)
            # The first "x" is written; the repeat is not.
            assert buf.getvalue().count("\n") == len(ids) - 1
            # The parser rejects such a file in the same words.
            text = "".join(json.dumps({"id": rid}) + "\n" for rid in ids)
            with pytest.raises(SceneFileError, match=re.escape(error)):
                parse(io.StringIO(text))

    @_WRITERS
    @settings(max_examples=200, deadline=None)
    @given(rid=st.text(st.one_of(st.characters(),
                                 st.characters(categories=["Cs"]))))
    def test_the_parser_reads_back_every_id_the_writer_writes(self, write,
                                                              record, parse,
                                                              rid):
        # An id with a surrogate, which json.dumps escapes and orjson
        # rejects, or reads as another character if paired, is refused.
        buf = io.StringIO()
        try:
            write([record(rid)], buf)
        except ValueError as e:
            assert str(e).startswith(f"record {rid!r}: id is not UTF-8 (")
            assert buf.getvalue() == ""
            with pytest.raises(UnicodeEncodeError):
                rid.encode()
            return
        (back,) = parse(io.StringIO(buf.getvalue()))
        assert back.id == rid


def _columns(value):
    """A parse result as comparable values, each array as its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            _columns(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(map(_columns, value))
    return value


def _parsed(parse, source):
    try:
        return _columns(parse(source))
    except Exception as e:  # compared by type and text
        return type(e), str(e)


def _element_by_element(kind: str, data: bytes):
    """What a file of ``data`` parses to: orjson's value of each line that
    is not ASCII whitespace, built record by record and element by element,
    or the first error in file order (a line orjson rejects, a bad record,
    a repeated id), naming its line."""
    build = _parse_scene_arrays if kind == "scene" else _prediction_sets
    built = []
    for n, line in enumerate(io.BytesIO(data), start=1):
        if line.isspace():
            continue
        try:
            built.append(build(orjson.loads(line)))
        except orjson.JSONDecodeError as e:
            return SceneFileError, f"line {n}: malformed JSON ({e.msg})"
        except SceneFileError as e:
            return SceneFileError, f"line {n}: {e}"
        except (LookupError, TypeError, ValueError, RecursionError) as e:
            return SceneFileError, f"line {n}: bad record ({e})"
    ids = [r.id for r in built] if kind == "scene" else [rid for rid, _ in built]
    for i, rid in enumerate(ids):
        if rid in ids[:i]:
            return SceneFileError, f"duplicate record id {rid!r}"
    # A prediction file of a few proposals parses to one batch.
    return _columns(built if kind == "scene"
                    else [PredictionArrays.from_sets(built)])


def _malformed(lineno: int, line) -> str:
    """The parser's error for a line orjson rejects, in the words of the
    installed orjson, which may differ between versions."""
    with pytest.raises(orjson.JSONDecodeError) as rejected:
        orjson.loads(line)
    return f"line {lineno}: malformed JSON ({rejected.value.msg})"


def _sources(data: bytes, tmp_dir):
    """``data`` as a file and, when it is UTF-8, as a text stream."""
    path = tmp_dir / "lines.jsonl"
    path.write_bytes(data)
    try:
        return [path, io.StringIO(data.decode("utf-8"))]
    except UnicodeDecodeError:
        return [path]


# One record per kind, each value a ``%(name)b`` slot; the _DEFAULTS dicts
# fill them with a valid record.
_SCENE_LINE = (
    b'{"id": %(id)b, "width": %(width)b, "height": %(height)b, "gts": '
    b'[{"box_xyxy": [%(gx1)b, %(gy1)b, %(gx2)b, %(gy2)b], "class": %(gclass)b,'
    b' "ignore": false}], "dets": [{"box_xyxy": [%(dx1)b, %(dy1)b, %(dx2)b, '
    b'%(dy2)b], "score": %(score)b, "class": %(dclass)b, "proposal_id": '
    b'%(pid)b, "slot": %(slot)b}], "extra": %(extra)b}')
_SCENE_DEFAULTS = {
    "id": b'"a"', "width": b"640", "height": b"480", "gx1": b"10.5",
    "gy1": b"20", "gx2": b"30.25", "gy2": b"60", "gclass": b"1",
    "dx1": b"12", "dy1": b"22.5", "dx2": b"31", "dy2": b"58",
    "score": b"0.75", "dclass": b"1", "pid": b"3", "slot": b"0",
    "extra": b"0"}
_PREDICTION_LINE = (
    b'{"id": %(id)b, "proposals": [{"box_xyxy": [%(x1)b, %(y1)b, %(x2)b, '
    b'%(y2)b], "slots": [{"scores": [%(s1)b, %(s2)b], "delta": [%(d1)b, '
    b'%(d2)b, %(d3)b, %(d4)b]}]}], "extra": %(extra)b}')
_PREDICTION_DEFAULTS = {
    "id": b'"a"', "x1": b"10", "y1": b"20", "x2": b"30.5", "y2": b"60",
    "s1": b"0.25", "s2": b"0.75", "d1": b"0.1", "d2": b"-0.2", "d3": b"0",
    "d4": b"1.5", "extra": b"0"}


def _render(line: bytes, values: dict) -> bytes:
    return line % {key.encode(): value for key, value in values.items()}


_KINDS = {"scene": (parse_scene_arrays, _SCENE_LINE, _SCENE_DEFAULTS),
          "prediction": (parse_prediction_arrays, _PREDICTION_LINE,
                         _PREDICTION_DEFAULTS)}

# orjson reads an integer outside [-2**63, 2**64) as a float, and rejects
# one beyond float range, NaN and Infinity. _DEEP nests past Python's
# recursion limit, which orjson reads.
_EDGE_LITERALS = [str(n).encode() for n in (
    2**63, -2**63, -2**63 - 1, 2**64, 10**25, 10**400)] + [
    b"1e400", b"NaN", b"Infinity", b"-Infinity"]
_DEEP = b"[" * 1010 + b"]" * 1010
_ID_LITERALS = [b'"\\ud800"', b'"x\\udfff"', b'"\xff"', b'"\xed\xa0\x80"',
                b'"\xc3\xa9\xe2\x80\xa8"']
_BLANK_LINES = [b"", b" \t", b"\x0b\x0c", "\u00a0".encode(),
                "\u2028".encode(), b"\x1c"]


_LITERALS = st.one_of(
    st.floats().map(lambda f: json.dumps(f).encode()),
    st.from_regex(rb"-?(0|[1-9][0-9]{0,24})\.[0-9]{17,60}([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.integers(-2**70, 2**70).map(lambda n: str(n).encode()),
    st.sampled_from(_EDGE_LITERALS + _ID_LITERALS + [_DEEP]))


@st.composite
def _jsonl(draw, line: bytes, defaults: dict) -> bytes:
    """1-3 records, each with up to three values swapped for a drawn
    literal, maybe a BOM, and blank lines between them."""
    lines = []
    for i in range(draw(st.integers(1, 3))):
        values = {**defaults, "id": b'"r%d"' % i}
        for key, literal in draw(st.lists(st.tuples(
                st.sampled_from(sorted(defaults)), _LITERALS), max_size=3)):
            values[key] = literal
        lines.append(draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
                     + _render(line, values))
        lines += draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=1))
    return b"\n".join(lines) + b"\n"


class TestStrictJson:
    """orjson alone decodes each line: input is strict JSON (RFC 8259)."""

    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_records_are_orjson_values_built_element_by_element(
            self, tmp_path_factory, kind, data):
        parse, line, defaults = _KINDS[kind]
        text = data.draw(_jsonl(line, defaults))
        want = _element_by_element(kind, text)
        for source in _sources(text, tmp_path_factory.mktemp("strict")):
            assert _parsed(parse, source) == want

    @pytest.mark.parametrize("kind", _KINDS)
    def test_edge_literals_in_every_field(self, tmp_path, kind):
        # After a valid record, so that both share a batch. _DEEP fails as a
        # bad record where a field's error shows it (its repr recurses too
        # deep), and parses under the ignored key "extra".
        parse, line, defaults = _KINDS[kind]
        valid = _render(line, {**defaults, "id": b'"v"'}) + b"\n"
        assert len(parse(io.BytesIO(valid))) == 1
        for key in defaults:
            for literal in _EDGE_LITERALS + _ID_LITERALS + [_DEEP]:
                data = valid + _render(line, {**defaults, key: literal}) + b"\n"
                want = _element_by_element(kind, data)
                for source in _sources(data, tmp_path):
                    assert _parsed(parse, source) == want, (key, literal)

    def test_an_int_field_beyond_64_bits_fails_as_the_float_orjson_reads(self):
        line = _render(_SCENE_LINE, {**_SCENE_DEFAULTS,
                                     "width": b"18446744073709551616"})
        with pytest.raises(SceneFileError, match=re.escape(
                "line 1: record 'a': width must be a 64-bit integer, "
                "got 1.8446744073709552e+19")):
            parse_scene_arrays(io.BytesIO(line))

    def test_a_real_field_beyond_64_bits_parses(self):
        line = _render(_SCENE_LINE, {**_SCENE_DEFAULTS,
                                     "gx2": b"10000000000000000000000000"})
        (r,) = parse_scene_arrays(io.BytesIO(line))
        assert r.gt_boxes[0, 2] == float(10**25)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_deep_nesting_in_an_ignored_key_parses(self, tmp_path, kind):
        parse, line, defaults = _KINDS[kind]
        data = _render(line, {**defaults, "extra": _DEEP}) + b"\n"
        plain = _parsed(parse, io.BytesIO(_render(line, defaults)))
        assert plain[0] != SceneFileError
        for source in _sources(data, tmp_path):
            assert _parsed(parse, source) == plain

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("nested_id", [True, False],
                             ids=["nested-id", "open-brackets"])
    @pytest.mark.parametrize("before", [None, "valid", "bad"],
                             ids=["alone", "after-a-valid-record",
                                  "after-a-bad-record"])
    def test_deep_nesting_keeps_its_line(self, tmp_path, kind, nested_id,
                                         before):
        # An id nested past the recursion limit fails as a bad record (its
        # repr in the error recurses too deep); a line orjson rejects as
        # too deep is malformed. After another record of the same batch it
        # keeps its line; after a bad record (an inverted box), the bad
        # record fails first.
        parse, line, defaults = _KINDS[kind]
        x1 = "gx1" if "gx1" in defaults else "x1"
        first = {None: b"", "valid": _render(line, {**defaults, "id": b'"v"'}),
                 "bad": _render(line, {**defaults, "id": b'"v"', x1: b"40"})}[before]
        deep = (_render(line, {**defaults, "id": _DEEP}) if nested_id
                else b"[" * 100_000)
        data = (first + b"\n" if first else b"") + deep + b"\n"
        lineno = 2 if first else 1
        for source in _sources(data, tmp_path):
            got = _parsed(parse, source)
            assert got[0] is SceneFileError
            if before == "bad":
                assert got[1].startswith("line 1: bad record (inverted box")
            elif nested_id:
                assert got[1].startswith(f"line {lineno}: bad record "
                                         "(maximum recursion depth exceeded")
            else:
                assert got[1] == _malformed(lineno, deep)

    @pytest.mark.parametrize("blank, skipped", [
        ("\u00a0", False), ("\u2028", False), ("\x1c", False), ("\x85", False),
        (" \t", True), ("\x0b\x0c", True)],
        ids=["nbsp", "line-separator", "file-separator", "next-line",
             "space-tab", "vt-ff"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_only_an_ascii_blank_line_is_skipped(self, tmp_path, kind, blank,
                                                 skipped):
        # Blank as bytes.isspace counts it, from a path and a text stream.
        parse, line, defaults = _KINDS[kind]
        a, b = (_render(line, {**defaults, "id": rid}) for rid in (b'"a"', b'"b"'))
        want = (_element_by_element(kind, a + b"\n" + b + b"\n") if skipped
                else (SceneFileError, _malformed(2, blank.encode())))
        for source in _sources(b"\n".join([a, blank.encode(), b, b""]), tmp_path):
            assert _parsed(parse, source) == want
