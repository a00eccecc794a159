import io
import json

import numpy as np
import pytest

from crowdset.assignment import GroundTruth
from crowdset.emd import PredictionSet, SlotPrediction
from crowdset.geometry import BBox, BoxDelta
from crowdset.scene_io import (PredictionRecord, SceneFileError, SceneRecord,
                               iter_scene_file, parse_prediction_file,
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
