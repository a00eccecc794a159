"""JSONL parsing and serialization for scene and prediction files.

One JSON object per line, UTF-8, LF endings. A scene record looks like::

    {"id": "img0", "width": 1280, "height": 800,
     "gts": [{"box_xyxy": [x1, y1, x2, y2], "class": 1, "ignore": false}, ...],
     "dets": [{"box_xyxy": [...], "score": 0.9, "class": 1,
               "proposal_id": 3, "slot": 0}, ...]}

Boxes are accepted in corner form (``box_xyxy``) or corner+size form
(``box_xywh``) and normalized to corner form internally and on output.
Boxes are never clipped to the image bounds: crowd annotations legitimately
extend past image borders, so clipping is a caller policy.

``proposal_id``/``slot`` are optional on detections; a missing proposal_id
leaves the detection anonymous (treated as unique by Set NMS) and is omitted
again on write, so files from single-prediction detectors round-trip without
fabricated identities.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .assignment import GroundTruth
from .emd import PredictionArrays, PredictionSet, SlotPrediction
from .geometry import BBox, BoxDelta
from .suppression import Detection

PathOrStream = Union[str, os.PathLike, IO[str]]


class SceneFileError(ValueError):
    """A scene or prediction file violates the line format."""


@dataclass
class SceneRecord:
    """One image's annotations and (optionally) detections."""

    id: str
    width: int = 0
    height: int = 0
    gts: list[GroundTruth] = field(default_factory=list)
    dets: list[Detection] = field(default_factory=list)


def _box_coords(obj: dict, record_id: str) -> tuple[float, float, float, float]:
    """Corner coordinates of a record's box, not yet checked as a BBox."""
    if "box_xyxy" in obj:
        x1, y1, x2, y2 = (float(v) for v in obj["box_xyxy"])
        return x1, y1, x2, y2
    if "box_xywh" in obj:
        x, y, w, h = (float(v) for v in obj["box_xywh"])
        if w < 0 or h < 0:
            raise SceneFileError(
                f"record {record_id!r}: negative width/height in box_xywh {[x, y, w, h]}"
            )
        return x, y, x + w, y + h
    raise SceneFileError(f"record {record_id!r}: box needs a box_xyxy or box_xywh key")


def _parse_box(obj: dict, record_id: str) -> BBox:
    return BBox(*_box_coords(obj, record_id))


def _parse_record(obj: dict) -> SceneRecord:
    rid = str(obj["id"])
    gts = [
        GroundTruth(
            box=_parse_box(g, rid),
            class_id=int(g.get("class", 1)),
            ignore=bool(g.get("ignore", False)),
        )
        for g in obj.get("gts", [])
    ]
    dets = [
        Detection(
            box=_parse_box(d, rid),
            score=float(d["score"]),
            class_id=int(d.get("class", 1)),
            proposal_id=(int(d["proposal_id"]) if "proposal_id" in d else None),
            slot=int(d.get("slot", 0)),
        )
        for d in obj.get("dets", [])
    ]
    return SceneRecord(
        id=rid,
        width=int(obj.get("width", 0)),
        height=int(obj.get("height", 0)),
        gts=gts,
        dets=dets,
    )


def _open_for(source: PathOrStream, mode: str):
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False
    return open(source, mode, encoding="utf-8", newline="\n"), True


def _iter_jsonl(source: PathOrStream, parse) -> Iterator:
    """Parse one record per non-blank line, naming the line on failure."""
    stream, owned = _open_for(source, "r")
    try:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SceneFileError(f"line {lineno}: malformed JSON ({e.msg})") from e
            try:
                yield parse(obj)
            except SceneFileError as e:
                raise SceneFileError(f"line {lineno}: {e}") from e
            except (KeyError, TypeError, ValueError) as e:
                raise SceneFileError(f"line {lineno}: bad record ({e})") from e
    finally:
        if owned:
            stream.close()


def _write_jsonl(objs: Iterable[dict], dest: PathOrStream, kind: str) -> None:
    """Write one JSON object per line; I/O errors name the destination."""
    stream, owned = _open_for(dest, "w")
    try:
        for obj in objs:
            stream.write(json.dumps(obj))
            stream.write("\n")
    except OSError as e:
        raise OSError(f"failed writing {kind} file {getattr(dest, 'name', dest)}: {e}") from e
    finally:
        if owned:
            stream.close()


def iter_scene_file(source: PathOrStream) -> Iterator[SceneRecord]:
    """Stream records one line at a time (constant memory per line)."""
    return _iter_jsonl(source, _parse_record)


def parse_scene_file(source: PathOrStream) -> list[SceneRecord]:
    """Read a whole scene file, enforcing unique record ids."""
    records = list(iter_scene_file(source))
    seen = set()
    for r in records:
        if r.id in seen:
            raise SceneFileError(f"duplicate record id {r.id!r}")
        seen.add(r.id)
    return records


def _gt_obj(g: GroundTruth) -> dict:
    return {
        "box_xyxy": list(g.box.as_tuple()),
        "class": g.class_id,
        "ignore": g.ignore,
    }


def _det_obj(d: Detection) -> dict:
    obj = {
        "box_xyxy": list(d.box.as_tuple()),
        "score": d.score,
        "class": d.class_id,
    }
    if d.proposal_id is not None:
        obj["proposal_id"] = d.proposal_id
        obj["slot"] = d.slot
    elif d.slot != 0:
        obj["slot"] = d.slot
    return obj


def write_scene_file(records: Iterable[SceneRecord], dest: PathOrStream) -> None:
    """Write records as one JSON object per line, corner-form boxes."""
    _write_jsonl(({"id": r.id, "width": r.width, "height": r.height,
                   "gts": [_gt_obj(g) for g in r.gts],
                   "dets": [_det_obj(d) for d in r.dets]} for r in records),
                 dest, "scene")


@dataclass
class PredictionRecord:
    """One image's per-proposal slot predictions (input to the matching-loss
    evaluator)."""

    id: str
    proposals: list[PredictionSet] = field(default_factory=list)


def _parse_prediction_arrays(obj: dict) -> PredictionArrays:
    """One prediction record as arrays, validated as a whole once parsed.

    Malformed structure (a missing key, a non-number, a delta without four
    values) raises as it is met. The dataclass checks run on the arrays
    afterwards, so on a structural error the elements parsed before it are
    checked first: their error is the one a sequential parser reports.
    """
    rid = str(obj["id"])
    boxes, n_slots, scores, deltas = [], [], [], []
    try:
        for p in obj.get("proposals", []):
            boxes.append(_box_coords(p, rid))
            n = 0
            for s in p["slots"]:
                vector = list(map(float, s["scores"]))
                delta = tuple(map(float, s["delta"]))
                if len(delta) != 4:
                    BoxDelta(*delta)  # raises the dataclass's arity TypeError
                scores.append(vector)
                deltas.append(delta)
                n += 1
            n_slots.append(n)
    except (KeyError, TypeError, ValueError):
        done, n_done = len(n_slots), sum(n_slots)
        PredictionArrays.stack(rid, boxes[:done], n_slots, scores[:n_done],
                               deltas[:n_done]).validate()
        if len(boxes) > done:  # the failing proposal, up to its failure
            BBox(*boxes[done])
            for vector, delta in zip(scores[n_done:], deltas[n_done:]):
                SlotPrediction(class_scores=vector, delta=BoxDelta(*delta))
        raise
    arrays = PredictionArrays.stack(rid, boxes, n_slots, scores, deltas)
    arrays.validate()
    return arrays


def parse_prediction_arrays(source: PathOrStream) -> list[PredictionArrays]:
    """Read a JSONL prediction file (see :func:`parse_prediction_file`) as
    one :class:`~crowdset.emd.PredictionArrays` per line."""
    return list(_iter_jsonl(source, _parse_prediction_arrays))


def parse_prediction_file(source: PathOrStream) -> list[PredictionRecord]:
    """Read a JSONL prediction file: per line ``{"id", "proposals": [
    {"box_xyxy", "slots": [{"scores": [...], "delta": [dx,dy,dw,dh]}]}]}``."""
    return [PredictionRecord(id=a.id, proposals=[a.prediction_set(i)
                                                 for i in range(len(a))])
            for a in parse_prediction_arrays(source)]


def _proposal_obj(p: PredictionSet) -> dict:
    return {
        "box_xyxy": list(p.proposal.as_tuple()),
        "slots": [{"scores": [float(v) for v in s.class_scores],
                   "delta": list(s.delta.as_tuple())} for s in p.slots],
    }


def write_prediction_file(records: Iterable[PredictionRecord],
                          dest: PathOrStream) -> None:
    """Write prediction records as one JSON object per line."""
    _write_jsonl(({"id": r.id, "proposals": [_proposal_obj(p) for p in r.proposals]}
                  for r in records), dest, "prediction")
