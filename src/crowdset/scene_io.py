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
from .emd import PredictionSet, SlotPrediction
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


def _parse_box(obj: dict, record_id: str) -> BBox:
    if "box_xyxy" in obj:
        x1, y1, x2, y2 = (float(v) for v in obj["box_xyxy"])
        return BBox(x1, y1, x2, y2)
    if "box_xywh" in obj:
        x, y, w, h = (float(v) for v in obj["box_xywh"])
        if w < 0 or h < 0:
            raise SceneFileError(
                f"record {record_id!r}: negative width/height in box_xywh {[x, y, w, h]}"
            )
        return BBox(x, y, x + w, y + h)
    raise SceneFileError(f"record {record_id!r}: box needs a box_xyxy or box_xywh key")


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


def _parse_prediction_record(obj: dict) -> PredictionRecord:
    rid = str(obj["id"])
    proposals = []
    for p in obj.get("proposals", []):
        box = _parse_box(p, rid)
        slots = tuple(
            SlotPrediction(
                class_scores=[float(v) for v in s["scores"]],
                delta=BoxDelta(*(float(v) for v in s["delta"])),
            )
            for s in p["slots"]
        )
        proposals.append(PredictionSet(proposal=box, slots=slots))
    return PredictionRecord(id=rid, proposals=proposals)


def parse_prediction_file(source: PathOrStream) -> list[PredictionRecord]:
    """Read a JSONL prediction file: per line ``{"id", "proposals": [
    {"box_xyxy", "slots": [{"scores": [...], "delta": [dx,dy,dw,dh]}]}]}``."""
    return list(_iter_jsonl(source, _parse_prediction_record))


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
