"""JSONL parsing and serialization for scene and prediction files.

One JSON object per line, UTF-8, LF endings. A scene record looks like::

    {"id": "img0", "width": 1280, "height": 800,
     "gts": [{"box_xyxy": [x1, y1, x2, y2], "class": 1, "ignore": false}, ...],
     "dets": [{"box_xyxy": [...], "score": 0.9, "class": 1,
               "proposal_id": 3, "slot": 0}, ...]}

Boxes are accepted in corner form (``box_xyxy``) or corner+size form
(``box_xywh``) and normalized to corner form internally and on output.
Boxes are never clipped to the image bounds: crowd annotations legitimately
extend past image borders, so clipping is a caller policy. Fields are
checked, not coerced: ``id`` must be a JSON string; ``gts``, ``dets``,
``proposals`` and ``slots`` must be JSON arrays; box coordinates,
detection scores, slot ``scores`` and ``delta`` must be JSON numbers (not
strings or booleans); ``ignore`` must be a JSON boolean; ``width``,
``height``, ``class``, ``proposal_id`` and ``slot`` must be JSON integers
that fit in 64 bits, and ``slot`` must not be negative. A box's
coordinates must be finite, it must not be inverted, and twice its area
must be finite (a square box's side stays below about 9.48e153), so that
the IoU of any two boxes is computed without overflow; a box that breaks
this rule (:func:`~crowdset.geometry.invalid_boxes`) fails its record.

``proposal_id``/``slot`` are optional on detections; a missing proposal_id
leaves the detection anonymous (treated as unique by Set NMS) and is omitted
again on write, so files from single-prediction detectors round-trip without
fabricated identities.

Both kinds of file are read in batches of consecutive records holding at
least ``BATCH_PROPOSALS`` elements (the last batch may hold fewer): ground
truths plus detections in a scene file, proposals in a prediction file.
A batch's columns are built in one pass, and only one batch's decoded JSON
is held at a time. A scene file parses into :class:`SceneArrays`, one per
record, each holding slices of its batch's columns; a prediction file
parses into one :class:`~crowdset.emd.PredictionArrays` per batch, each
zero-padded to its own widest slot count and score vector. Each line is
decoded once, by orjson, and the dataclasses' checks run on the arrays;
a batch that fails one is rebuilt record by record and element by element
in file order, so that its first bad record's error is the file's first,
in the dataclass's own words and with its record's line. Input must be
strict JSON (RFC 8259): a line orjson rejects (``NaN``, ``1e400``, a lone
surrogate, a BOM) fails as malformed, and an integer orjson reads as a
float (one outside [-2**63, 2**64)) fails its field's check. A line is
blank, and skipped, only if it holds nothing but ASCII whitespace as
``bytes.isspace`` counts it. A malformed line first checks the records
decoded before it, so an earlier bad record still fails first.

The scene writer streams one record at a time and fills fixed row
templates from each record's columns with json.dumps's bytes: separators,
``%d`` ints, ``true``/``false``, the id through ``json.dumps``, and floats
spelled by orjson, or by ``float.__repr__`` outside [1e-4, 1e16). It
writes no dict and no json encoder runs per detection. A record the parser
would reject (an id that is not a UTF-8 string or repeats an earlier one,
a width or height that is not a 64-bit integer, a box that breaks the box
rule, a ground truth of class <= 0, a score that is not finite in [0, 1] or
a negative slot) raises ``ValueError``, naming the record, before any of
its text is written; the prediction writer checks ids the same way.
:func:`parse_scene_file` and :func:`write_scene_file` convert to and from
the dataclasses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Iterable, Iterator, Union

import numpy as np
import orjson

from .assignment import GroundTruth, gt_columns
from .emd import PredictionArrays, PredictionSet, SlotPrediction
from .geometry import BBox, BoxDelta, invalid_boxes
from .suppression import Detection, Detections

PathOrStream = Union[str, os.PathLike, IO[str]]

_REAL, _INT = {float, int}, {int}
_ABSENT = object()  # a detection's missing proposal_id, while parsing
# What building records from odd JSON values raises. ArithmeticError: an
# integer beyond int64 in a column; RecursionError: a value nested past the
# recursion limit, whose repr in an error recurses too deep.
_ODD = (LookupError, TypeError, ValueError, ArithmeticError, RecursionError)

# Elements per batch of records: proposals in a prediction file, ground
# truths plus detections in a scene file. Batches amortise the fixed cost
# of building columns over many small records, while only one batch's
# decoded JSON is held at a time. ``crowdset emd`` joins consecutive
# prediction batches into engine chunks of ``emd.chunk_proposals`` each.
BATCH_PROPOSALS = 256


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


def _field_error(record_id: str, key: str, rule: str, value) -> SceneFileError:
    return SceneFileError(f"record {record_id!r}: {key} must be {rule}, got {value!r}")


def _array(values, key: str, record_id: str) -> list:
    if type(values) is not list:
        raise _field_error(record_id, key, "a JSON array", values)
    return values


def _record_fields(obj: dict, *arrays: str) -> tuple:
    """``id``, a JSON string, then ``arrays``, JSON arrays (default empty)."""
    rid = obj["id"]
    if type(rid) is not str:
        raise _field_error(rid, "id", "a JSON string", rid)
    return (rid, *(_array(obj.get(key, []), key, rid) for key in arrays))


def _numbers(obj: dict, key: str, record_id: str) -> Iterator[float]:
    """The list of JSON numbers at ``obj[key]``, as floats."""
    values = obj[key]
    if type(values) is not list or not _typed(values, _REAL):
        raise _field_error(record_id, key, "a list of JSON numbers", values)
    return map(float, values)


def _box_coords(obj: dict, record_id: str) -> tuple[float, float, float, float]:
    """Corner coordinates of a record's box, not yet checked as a BBox."""
    if "box_xyxy" in obj:
        x1, y1, x2, y2 = _numbers(obj, "box_xyxy", record_id)
        return x1, y1, x2, y2
    if "box_xywh" in obj:
        x, y, w, h = _numbers(obj, "box_xywh", record_id)
        if w < 0 or h < 0:
            raise SceneFileError(
                f"record {record_id!r}: negative width/height in box_xywh {[x, y, w, h]}"
            )
        return x, y, x + w, y + h
    raise SceneFileError(f"record {record_id!r}: box needs a box_xyxy or box_xywh key")


def _int_field(obj: dict, key: str, default, record_id: str) -> int:
    value = obj.get(key, default)
    if type(value) is not int or not -2**63 <= value < 2**63:
        raise _field_error(record_id, key, "a 64-bit integer", value)
    return value


def _number_field(obj: dict, key: str, record_id: str) -> float:
    value = obj[key]
    if type(value) not in _REAL:
        raise _field_error(record_id, key, "a JSON number", value)
    return float(value)


def _gt(obj: dict, record_id: str) -> GroundTruth:
    """One ground truth, its fields checked in the order they are read."""
    box = BBox(*_box_coords(obj, record_id))
    class_id = _int_field(obj, "class", 1, record_id)
    ignore = obj.get("ignore", False)
    if type(ignore) is not bool:
        raise _field_error(record_id, "ignore", "true or false", ignore)
    return GroundTruth(box=box, class_id=class_id, ignore=ignore)


def _det(obj: dict, record_id: str) -> Detection:
    """One detection, its fields checked in the order they are read."""
    return Detection(
        box=BBox(*_box_coords(obj, record_id)),
        score=_number_field(obj, "score", record_id),
        class_id=_int_field(obj, "class", 1, record_id),
        proposal_id=(_int_field(obj, "proposal_id", None, record_id)
                     if "proposal_id" in obj else None),
        slot=_int_field(obj, "slot", 0, record_id))


def _typed(values, kinds: set) -> bool:
    return set(map(type, values)) <= kinds


def _box_column(objs: list) -> np.ndarray | None:
    """(N, 4) corner boxes, or None when a value is not a JSON number. A
    box error raised here names no record: it only sends the batch to the
    element path, which raises it again with its record's id."""
    rows = [o["box_xyxy"] if "box_xyxy" in o else _box_coords(o, "")
            for o in objs]
    if not _typed(chain.from_iterable(rows), _REAL):
        return None
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def _gt_columns(gts: list):
    """``(boxes, classes, ignore)``, or None when a check fails."""
    boxes = _box_column(gts)
    classes = [g.get("class", 1) for g in gts]
    ignore = [g.get("ignore", False) for g in gts]
    if boxes is None or not (_typed(classes, _INT) and _typed(ignore, {bool})):
        return None
    return (boxes, np.array(classes, dtype=np.int64),
            np.array(ignore, dtype=bool))


def _det_columns(dets: list, counts: np.ndarray) -> Detections | None:
    """The detections of consecutive records as columns, or None when a
    check fails. ``counts`` gives each record's detections, so that
    anonymous ids are numbered per record."""
    if not dets:  # as in every record of a ground-truth file
        return Detections.from_list([])
    boxes = _box_column(dets)
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
    if np.count_nonzero(columns.proposal_ids < 0) != len(anonymous):
        return None
    if anonymous:
        first = np.repeat(np.cumsum(counts) - counts, counts)
        columns.proposal_ids[anonymous] += first[anonymous]
    return columns


def _broken_rule(gt_boxes: np.ndarray, gt_classes: np.ndarray,
                 dets: Detections) -> str | None:
    """The first rule of a scene record that its columns break, or None.
    The parser reads a record that breaks one element by element, for the
    element's own error; the writer refuses it."""
    if invalid_boxes(gt_boxes).any() or invalid_boxes(dets.boxes).any():
        return "a box is not finite, is inverted or its area overflows"
    if (gt_classes <= 0).any():
        return "a ground truth's class is not >= 1 (0 is the background)"
    if not ((dets.scores >= 0.0) & (dets.scores <= 1.0)).all():
        return "a score is not finite in [0, 1]"
    if (dets.slots < 0).any():
        return "a slot is negative"
    return None


def _scene_columns(objs: list) -> list[SceneArrays] | None:
    """Consecutive scene records as columns, built in one pass and sliced
    into records, or None when a check fails or a field is odd (a number
    written as a string, a box in an unexpected form)."""
    try:
        fields = [_record_fields(obj, "gts", "dets") for obj in objs]
        sizes = np.array([(len(g), len(d)) for _, g, d in fields],
                         dtype=np.intp)
        starts = np.cumsum(sizes, axis=0) - sizes  # each record's first gt, det
        gt_cols = _gt_columns(list(chain.from_iterable(g for _, g, _ in fields)))
        det_cols = _det_columns(list(chain.from_iterable(d for _, _, d in fields)),
                                sizes[:, 1])
        if (gt_cols is None or det_cols is None
                or _broken_rule(*gt_cols[:2], det_cols)):
            return None
        bounds = np.column_stack([starts, starts + sizes]).tolist()
        return [SceneArrays(rid, _int_field(obj, "width", 0, rid),
                            _int_field(obj, "height", 0, rid),
                            *(c[g0:g1] for c in gt_cols),
                            det_cols.take(slice(d0, d1), det_cols.scores[d0:d1]))
                for obj, (rid, _, _), (g0, d0, g1, d1)
                in zip(objs, fields, bounds)]
    except _ODD:
        return None


def _parse_scene_arrays(obj: dict) -> SceneArrays:
    """One scene record built element by element in file order, so that
    its first invalid element raises its own error."""
    rid, gts, dets = _record_fields(obj, "gts", "dets")
    gt_cols = gt_columns([_gt(g, rid) for g in gts])
    det_cols = Detections.from_list([_det(d, rid) for d in dets])
    return SceneArrays(rid, _int_field(obj, "width", 0, rid),
                       _int_field(obj, "height", 0, rid), *gt_cols, det_cols)


def _scene_batch(lines: list[tuple[int, object]]) -> list[SceneArrays]:
    """Decoded lines ``(line number, value)`` as scene records: the whole
    batch in one pass or, if a check fails, record by record, so that the
    first bad record raises its own error with its line."""
    return (_scene_columns([obj for _, obj in lines])
            or [_at_line(n, _parse_scene_arrays, obj) for n, obj in lines])


def _decoded(source: PathOrStream) -> Iterator[tuple[int, object]]:
    """``(line number, value)`` of each non-blank line; a line orjson
    rejects raises, naming the line. A path is read as bytes and each line
    decoded on its own, so a line that is not UTF-8 is named like any other."""
    owned = not hasattr(source, "read")
    stream = open(source, "rb") if owned else source
    try:
        for lineno, line in enumerate(stream, start=1):
            # Blank: ASCII whitespace only, as bytes.isspace counts it;
            # isspace stops at a record line's first character.
            if line.isspace() and (type(line) is bytes or line.encode().isspace()):
                continue
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError as e:
                # e.msg leaves out the "line 1 column C" that str(e) adds.
                raise SceneFileError(f"line {lineno}: malformed JSON ({e.msg})") from e
            yield lineno, obj
    finally:
        if owned:
            stream.close()


def _at_line(lineno: int, parse, obj):
    """``parse(obj)``, its errors naming the record's line."""
    try:
        return parse(obj)
    except SceneFileError as e:
        raise SceneFileError(f"line {lineno}: {e}") from e
    except _ODD as e:
        raise SceneFileError(f"line {lineno}: bad record ({e})") from e


def _write_jsonl(lines: Iterable[str], dest: PathOrStream, kind: str) -> None:
    """Write one JSON text per line; I/O errors name the destination."""
    owned = not hasattr(dest, "write")
    stream = open(dest, "w", encoding="utf-8", newline="\n") if owned else dest
    try:
        for line in lines:
            stream.write(line)
            stream.write("\n")
    except OSError as e:
        raise OSError(f"failed writing {kind} file {getattr(dest, 'name', dest)}: {e}") from e
    finally:
        if owned:
            stream.close()


def _check_unique(ids: Iterable[str], seen: set) -> None:
    """Add ``ids`` to ``seen``, raising on the first already there."""
    for rid in ids:
        if rid in seen:
            raise SceneFileError(f"duplicate record id {rid!r}")
        seen.add(rid)


def _unique(records: Iterable) -> Iterator:
    """``records`` in order, each id checked as the parsers check it: a
    string that encodes as UTF-8 (no lone surrogate) and is not repeated."""
    seen = set()
    for r in records:
        (rid,) = _record_fields(vars(r))
        try:
            rid.encode()
        except UnicodeEncodeError as e:
            raise ValueError(f"record {rid!r}: id is not UTF-8 ({e.reason})") from e
        _check_unique([rid], seen)
        yield r


def _element_count(decoded: tuple[int, object]) -> int:
    """A decoded scene line's ground truths plus detections."""
    obj = decoded[1]
    if type(obj) is not dict:
        return 0
    return sum(len(v) for v in (obj.get("gts"), obj.get("dets"))
               if type(v) is list)


def parse_scene_arrays(source: PathOrStream) -> list[SceneArrays]:
    """Read a whole scene file as columns, in batches of consecutive
    records holding at least ``BATCH_PROPOSALS`` ground truths and
    detections, enforcing unique record ids."""
    records = list(chain.from_iterable(map(_scene_batch, _batches(
        _decoded(source), _element_count, BATCH_PROPOSALS))))
    _check_unique((r.id for r in records), set())
    return records


def parse_scene_file(source: PathOrStream) -> list[SceneRecord]:
    """Read a whole scene file, enforcing unique record ids."""
    return [a.record() for a in parse_scene_arrays(source)]


def _float_texts(values: np.ndarray) -> list[str]:
    """json.dumps's text of each float in the float64 array ``values``: one
    orjson call's, but repr's where orjson's layout differs, 0 < |v| < 1e-4
    (``0.00001``, not ``1e-05``) and |v| >= 1e16 (``1e16``, not ``1e+16``).
    orjson writes each such value with ``e`` or ``0.0000``; a text with
    neither needs no pass over the values."""
    flat = np.ravel(values)  # C-contiguous, as orjson needs: copies a column
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    texts = text.split(",") if text else []
    if "e" in text or "0.0000" in text:
        mag = np.abs(flat)
        for i in np.flatnonzero(((mag < 1e-4) & (mag != 0)) | (mag >= 1e16)).tolist():
            texts[i] = repr(float(flat[i]))
    return texts


def _float_columns(table: np.ndarray) -> list[list[str]]:
    """The JSON texts of a float64 table (N, m), column by column."""
    texts, m = _float_texts(table), table.shape[1]
    return [texts[j::m] for j in range(m)]


# The ``%`` templates of a scene line, with json.dumps's bytes: its
# separators, ``%d`` for ints and ``%s`` for floats, spelled by orjson or,
# outside [1e-4, 1e16), by repr (:func:`_float_texts`). Every detection row
# takes the same eight values (box, score, class, proposal_id, slot);
# ``%.0s`` writes nothing, for the fields an anonymous detection omits.
_BOX_FIELD = '{"box_xyxy": [%s, %s, %s, %s], '
_GT_ROW = _BOX_FIELD + '"class": %d, "ignore": %s}'
_DET_ROWS = (
    _BOX_FIELD + '"score": %s, "class": %d, "proposal_id": %d, "slot": %d}',
    _BOX_FIELD + '"score": %s, "class": %d%.0s, "slot": %d}',  # anonymous
    _BOX_FIELD + '"score": %s, "class": %d%.0s%.0s}',  # anonymous, slot 0
)
_SCENE_LINE = '{"id": %s, "width": %d, "height": %d, "gts": [%s], "dets": [%s]}'


def _rows(templates: list, columns: list) -> str:
    """One row per template, filled from ``columns`` row by row."""
    return ", ".join(templates) % tuple(chain.from_iterable(zip(*columns)))


def _scene_line(r: SceneArrays) -> str:
    """The record's JSON text; a value the parser would reject raises
    ValueError."""
    d = r.dets
    rule = _broken_rule(r.gt_boxes, r.gt_classes, d)
    if rule:
        raise ValueError(f"record {r.id!r}: {rule}")
    width, height = (_int_field(vars(r), key, 0, r.id)
                     for key in ("width", "height"))
    kinds = np.where(d.proposal_ids >= 0, 0, np.where(d.slots != 0, 1, 2))
    dets = _rows([_DET_ROWS[k] for k in kinds.tolist()],
                 [*_float_columns(np.column_stack([d.boxes, d.scores])),
                  d.classes.tolist(), d.proposal_ids.tolist(), d.slots.tolist()])
    gts = _rows([_GT_ROW] * len(r.gt_boxes),
                [*_float_columns(r.gt_boxes), r.gt_classes.tolist(),
                 ["true" if v else "false" for v in r.gt_ignore.tolist()]])
    return _SCENE_LINE % (json.dumps(r.id), width, height, gts, dets)


def write_scene_arrays(records: Iterable[SceneArrays], dest: PathOrStream) -> None:
    """Write records as one JSON object per line, corner-form boxes, one
    record at a time. A record the parser would reject raises ValueError,
    naming the record, and no text of it is written."""
    _write_jsonl(map(_scene_line, _unique(records)), dest, "scene")


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
        slots=tuple(SlotPrediction(list(_numbers(s, "scores", record_id)),
                                   BoxDelta(*_numbers(s, "delta", record_id)))
                    for s in _array(p["slots"], "slots", record_id)))


def _prediction_sets(obj: dict) -> tuple[str, list[PredictionSet]]:
    """One record's id and proposals, its dataclasses built in file order."""
    rid, proposals = _record_fields(obj, "proposals")
    return rid, [_prediction_set(p, rid) for p in proposals]


def _prediction_columns(objs: list) -> PredictionArrays | None:
    """A batch of records as arrays, or None when a check fails."""
    fields = [_record_fields(obj, "proposals") for obj in objs]
    proposals = list(chain.from_iterable(p for _, p in fields))
    slots = [p["slots"] for p in proposals]
    flat = list(chain.from_iterable(slots))
    scores = [s["scores"] for s in flat]
    deltas = [s["delta"] for s in flat]
    # Checked before stacking: the flat delta column would absorb a short
    # delta into its neighbour.
    if (set(map(len, deltas)) - {4}
            or not _typed(chain.from_iterable(scores + deltas), _REAL)):
        return None
    boxes = _box_column(proposals)
    if boxes is None or invalid_boxes(boxes).any():
        return None
    arrays = PredictionArrays.stack([rid for rid, _ in fields],
                                    [len(p) for _, p in fields], boxes,
                                    list(map(len, slots)), scores, deltas)
    return None if arrays.invalid().any() else arrays


def _prediction_batch(lines: list[tuple[int, object]]) -> PredictionArrays:
    """Decoded lines ``(line number, value)`` as one batch of arrays."""
    try:
        arrays = _prediction_columns([obj for _, obj in lines])
    except _ODD:
        arrays = None
    if arrays is None:
        # Build the dataclasses record by record in file order: the first
        # invalid element raises its error.
        arrays = PredictionArrays.from_sets(
            [_at_line(n, _prediction_sets, obj) for n, obj in lines])
    return arrays


def _proposal_count(decoded: tuple[int, object]) -> int:
    obj = decoded[1]
    proposals = obj.get("proposals") if type(obj) is dict else None
    return len(proposals) if type(proposals) is list else 0


def _batches(items: Iterator, count, size: int) -> Iterator[list]:
    """Consecutive ``items`` in lists holding at least ``size`` elements,
    as ``count`` counts an item's; the last list may hold fewer. A
    malformed line raised by ``items`` first yields the items before it,
    so that an earlier bad record fails first."""
    pending, held = [], 0
    try:
        for item in items:
            pending.append(item)
            held += count(item)
            if held >= size:
                yield pending
                pending, held = [], 0
    except SceneFileError:
        if pending:
            yield pending
        raise
    if pending:
        yield pending


def parse_prediction_arrays(source: PathOrStream) -> list[PredictionArrays]:
    """Read a JSONL prediction file (see :func:`parse_prediction_file`) in
    batches of consecutive records holding at least ``BATCH_PROPOSALS``
    proposals (the last may hold fewer), one
    :class:`~crowdset.emd.PredictionArrays` each, zero-padded to its own
    widest slot count and score vector, enforcing unique record ids across
    the file."""
    # map keeps no reference to a batch's decoded lines once their arrays
    # are built, so at most one batch of decoded JSON is alive.
    batches = list(map(_prediction_batch, _batches(
        _decoded(source), _proposal_count, BATCH_PROPOSALS)))
    _check_unique((rid for b in batches for rid in b.ids), set())
    return batches


def parse_prediction_file(source: PathOrStream) -> list[PredictionRecord]:
    """Read a JSONL prediction file: per line ``{"id", "proposals": [
    {"box_xyxy", "slots": [{"scores": [...], "delta": [dx,dy,dw,dh]}]}]}``."""
    records = []
    for a in parse_prediction_arrays(source):
        sets = map(a.prediction_set, range(len(a)))
        records += [PredictionRecord(id=rid, proposals=list(islice(sets, n)))
                    for rid, n in zip(a.ids, a.counts.tolist())]
    return records


def _proposal_obj(p: PredictionSet) -> dict:
    return {
        "box_xyxy": list(p.proposal.as_tuple()),
        "slots": [{"scores": [float(v) for v in s.class_scores],
                   "delta": list(s.delta.as_tuple())} for s in p.slots],
    }


def write_prediction_file(records: Iterable[PredictionRecord],
                          dest: PathOrStream) -> None:
    """Write prediction records as one JSON object per line. An id the
    parser would reject raises ValueError, and no text of its record is
    written."""
    _write_jsonl((json.dumps({"id": r.id,
                              "proposals": [_proposal_obj(p) for p in r.proposals]})
                  for r in _unique(records)), dest, "prediction")
