"""JSONL parsing and serialization for scene and prediction files.

One JSON object per line, UTF-8, LF endings. A scene record looks like::

    {"id": "img0", "width": 1280, "height": 800,
     "gts": [{"box_xyxy": [x1, y1, x2, y2], "class": 1, "ignore": false}, ...],
     "dets": [{"box_xyxy": [...], "score": 0.9, "class": 1,
               "proposal_id": 3, "slot": 0}, ...]}

Boxes are accepted in corner form (``box_xyxy``) or corner+size form
(``box_xywh``) and normalized to corner form internally and on output.
Boxes are never clipped to the image bounds: crowd annotations legitimately
extend past image borders, so clipping is a caller policy. ``ignore`` must
be a JSON boolean; ``class``, ``proposal_id`` and ``slot`` must be JSON
integers that fit in 64 bits, and ``slot`` must not be negative.

``proposal_id``/``slot`` are optional on detections; a missing proposal_id
leaves the detection anonymous (treated as unique by Set NMS) and is omitted
again on write, so files from single-prediction detectors round-trip without
fabricated identities.

Scene records parse into columns, :class:`SceneArrays`, and prediction
records into :class:`~crowdset.emd.PredictionArrays`. Each line is decoded
once, and the dataclasses' checks run on the arrays; only a record that
fails one is rebuilt element by element in file order, so that its error
is the file's first, in the dataclass's own words. One writer emits
columns through ``.tolist()``, whose floats keep their ``repr``.
:func:`parse_scene_file` and :func:`write_scene_file` convert to and from
the dataclasses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .assignment import GroundTruth, gt_columns
from .emd import PredictionArrays, PredictionSet, SlotPrediction
from .geometry import BBox, BoxDelta
from .suppression import Detection, Detections

PathOrStream = Union[str, os.PathLike, IO[str]]

_REAL, _INT = {float, int}, {int}
_ABSENT = object()  # a detection's missing proposal_id, while parsing


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


@dataclass
class SceneArrays:
    """One scene record as columns: ``gt_boxes`` (G, 4) float64,
    ``gt_classes`` int64 and ``gt_ignore`` bool, and the detections."""

    id: str
    width: int
    height: int
    gt_boxes: np.ndarray
    gt_classes: np.ndarray
    gt_ignore: np.ndarray
    dets: Detections

    @classmethod
    def from_record(cls, r: SceneRecord) -> "SceneArrays":
        return cls(r.id, r.width, r.height, *gt_columns(r.gts),
                   Detections.from_list(r.dets))

    def record(self) -> SceneRecord:
        return SceneRecord(
            id=self.id, width=self.width, height=self.height,
            gts=[GroundTruth(box=BBox(*box), class_id=cls, ignore=ignore)
                 for box, cls, ignore in zip(self.gt_boxes.tolist(),
                                             self.gt_classes.tolist(),
                                             self.gt_ignore.tolist())],
            dets=self.dets.to_list())


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


def _int_field(obj: dict, key: str, default, record_id: str) -> int:
    value = obj.get(key, default)
    if type(value) is not int or not -2**63 <= value < 2**63:
        raise SceneFileError(
            f"record {record_id!r}: {key} must be a 64-bit integer, got {value!r}")
    return value


def _gt(obj: dict, record_id: str) -> GroundTruth:
    """One ground truth, its fields checked in the order they are read."""
    box = BBox(*_box_coords(obj, record_id))
    class_id = _int_field(obj, "class", 1, record_id)
    ignore = obj.get("ignore", False)
    if type(ignore) is not bool:
        raise SceneFileError(
            f"record {record_id!r}: ignore must be true or false, got {ignore!r}")
    return GroundTruth(box=box, class_id=class_id, ignore=ignore)


def _det(obj: dict, record_id: str) -> Detection:
    """One detection, its fields checked in the order they are read."""
    return Detection(
        box=BBox(*_box_coords(obj, record_id)), score=float(obj["score"]),
        class_id=_int_field(obj, "class", 1, record_id),
        proposal_id=(_int_field(obj, "proposal_id", None, record_id)
                     if "proposal_id" in obj else None),
        slot=_int_field(obj, "slot", 0, record_id))


def _typed(values, kinds: set) -> bool:
    return set(map(type, values)) <= kinds


def _box_column(objs: list, record_id: str) -> np.ndarray | None:
    """(N, 4) corner boxes, or None when a value is not a JSON number or a
    box is not finite or inverted."""
    rows = [o["box_xyxy"] if "box_xyxy" in o else _box_coords(o, record_id)
            for o in objs]
    if not _typed(chain.from_iterable(rows), _REAL):
        return None
    boxes = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
    if (~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] < boxes[:, 0])
            | (boxes[:, 3] < boxes[:, 1])).any():
        return None
    return boxes


def _gt_columns(gts: list, record_id: str):
    """``(boxes, classes, ignore)``, or None when a check fails."""
    boxes = _box_column(gts, record_id)
    classes = [g.get("class", 1) for g in gts]
    ignore = [g.get("ignore", False) for g in gts]
    if boxes is None or not (_typed(classes, _INT) and _typed(ignore, {bool})):
        return None
    classes = np.array(classes, dtype=np.int64)
    if (classes <= 0).any():
        return None
    return boxes, classes, np.array(ignore, dtype=bool)


def _det_columns(dets: list, record_id: str) -> Detections | None:
    """The detections' columns, or None when a check fails."""
    boxes = _box_column(dets, record_id)
    scores = [d["score"] for d in dets]
    classes = [d.get("class", 1) for d in dets]
    pids = [d.get("proposal_id", _ABSENT) for d in dets]
    slots = [d.get("slot", 0) for d in dets]
    anonymous = [i for i, p in enumerate(pids) if p is _ABSENT]
    for i in anonymous:
        pids[i] = -i - 1
    if boxes is None or not (_typed(scores, _REAL)
                             and _typed(chain(classes, pids, slots), _INT)):
        return None
    columns = Detections(boxes=boxes, scores=np.array(scores, dtype=np.float64),
                         classes=np.array(classes, dtype=np.int64),
                         proposal_ids=np.array(pids, dtype=np.int64),
                         slots=np.array(slots, dtype=np.int64))
    s = columns.scores
    if ((~np.isfinite(s) | (s < 0.0) | (s > 1.0) | (columns.slots < 0)).any()
            or np.count_nonzero(columns.proposal_ids < 0) != len(anonymous)):
        return None
    return columns


def _parse_scene_arrays(obj: dict) -> SceneArrays:
    rid = str(obj["id"])
    gts, dets = obj.get("gts", []), obj.get("dets", [])
    try:
        gt_cols, det_cols = _gt_columns(gts, rid), _det_columns(dets, rid)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        gt_cols = det_cols = None
    if gt_cols is None or det_cols is None:
        # A check failed or a field is odd (a number written as a string, a
        # box in an unexpected form): build the dataclasses in file order.
        # The first invalid element raises its own error; otherwise the
        # record parses as float() and int() read it.
        gt_cols = gt_columns([_gt(g, rid) for g in gts])
        det_cols = Detections.from_list([_det(d, rid) for d in dets])
    return SceneArrays(rid, int(obj.get("width", 0)), int(obj.get("height", 0)),
                       *gt_cols, det_cols)


def _open_for(source: PathOrStream, mode: str):
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False
    return open(source, mode, encoding="utf-8", newline="\n"), True


def _iter_jsonl(source: PathOrStream, parse) -> Iterator:
    """Parse one record per non-blank line, naming the line on failure."""
    stream, owned = _open_for(source, "r")
    try:
        for lineno, line in enumerate(stream, start=1):
            if line.isspace():
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


def parse_scene_arrays(source: PathOrStream) -> list[SceneArrays]:
    """Read a whole scene file as columns, enforcing unique record ids."""
    records = list(_iter_jsonl(source, _parse_scene_arrays))
    seen = set()
    for r in records:
        if r.id in seen:
            raise SceneFileError(f"duplicate record id {r.id!r}")
        seen.add(r.id)
    return records


def iter_scene_file(source: PathOrStream) -> Iterator[SceneRecord]:
    """Stream records one line at a time (constant memory per line)."""
    return (a.record() for a in _iter_jsonl(source, _parse_scene_arrays))


def parse_scene_file(source: PathOrStream) -> list[SceneRecord]:
    """Read a whole scene file, enforcing unique record ids."""
    return [a.record() for a in parse_scene_arrays(source)]


def _scene_obj(r: SceneArrays) -> dict:
    d = r.dets
    dets = []
    for box, score, cls, pid, slot in zip(d.boxes.tolist(), d.scores.tolist(),
                                          d.classes.tolist(),
                                          d.proposal_ids.tolist(), d.slots.tolist()):
        obj = {"box_xyxy": box, "score": score, "class": cls}
        if pid >= 0:
            obj["proposal_id"] = pid
            obj["slot"] = slot
        elif slot:
            obj["slot"] = slot
        dets.append(obj)
    return {"id": r.id, "width": r.width, "height": r.height,
            "gts": [{"box_xyxy": box, "class": cls, "ignore": ignore}
                    for box, cls, ignore in zip(r.gt_boxes.tolist(),
                                                r.gt_classes.tolist(),
                                                r.gt_ignore.tolist())],
            "dets": dets}


def write_scene_arrays(records: Iterable[SceneArrays], dest: PathOrStream) -> None:
    """Write records as one JSON object per line, corner-form boxes."""
    _write_jsonl(map(_scene_obj, records), dest, "scene")


def write_scene_file(records: Iterable[SceneRecord], dest: PathOrStream) -> None:
    """Write records as one JSON object per line, corner-form boxes. Box
    coordinates and scores are written as floats."""
    write_scene_arrays(map(SceneArrays.from_record, records), dest)


@dataclass
class PredictionRecord:
    """One image's per-proposal slot predictions (input to the matching-loss
    evaluator)."""

    id: str
    proposals: list[PredictionSet] = field(default_factory=list)


def _prediction_set(p: dict, record_id: str) -> PredictionSet:
    """One proposal, its dataclasses built in the order they are read."""
    return PredictionSet(
        proposal=BBox(*_box_coords(p, record_id)),
        slots=tuple(SlotPrediction(class_scores=list(map(float, s["scores"])),
                                   delta=BoxDelta(*map(float, s["delta"])))
                    for s in p["slots"]))


def _prediction_columns(proposals: list, record_id: str) -> PredictionArrays | None:
    """The proposals as arrays, or None when a check fails."""
    slots = [p["slots"] for p in proposals]
    flat = list(chain.from_iterable(slots))
    deltas = [tuple(map(float, s["delta"])) for s in flat]
    # Checked before stacking: the flat delta column would absorb a short
    # delta into its neighbour.
    if any(len(d) != 4 for d in deltas):
        return None
    arrays = PredictionArrays.stack(
        record_id, [_box_coords(p, record_id) for p in proposals],
        list(map(len, slots)), [list(map(float, s["scores"])) for s in flat],
        deltas)
    return None if arrays.invalid().any() else arrays


def _parse_prediction_arrays(obj: dict) -> PredictionArrays:
    """One prediction record as arrays, failing as the scene parser does."""
    rid = str(obj["id"])
    proposals = obj.get("proposals", [])
    try:
        arrays = _prediction_columns(proposals, rid)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        arrays = None
    if arrays is None:
        # Build the dataclasses in file order: the first invalid element
        # raises its own error, as in _parse_scene_arrays.
        arrays = PredictionArrays.from_sets(
            rid, [_prediction_set(p, rid) for p in proposals])
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
