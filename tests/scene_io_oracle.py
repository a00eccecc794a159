"""The scene-record parser and writer as they were before the columnar
path, kept verbatim as oracles: one dataclass at a time on read, one dict
per dataclass on write. The columnar parser must give the same records, the
same bytes and the same first error, except where the strict field rules
(``ignore`` a JSON boolean; box coordinates and ``score`` JSON numbers;
``width``, ``height``, ``class``, ``proposal_id`` and ``slot`` 64-bit JSON
integers) reject a value this parser coerces. The dataclasses are the
library's, so a rule they gained since (``slot`` non-negative) holds here
too.
"""

import json

from crowdset.assignment import GroundTruth
from crowdset.geometry import BBox
from crowdset.scene_io import SceneFileError, SceneRecord
from crowdset.suppression import Detection


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


def parse_record(obj: dict) -> SceneRecord:
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


def record_line(r: SceneRecord) -> str:
    """One record as the scene writer wrote it, with its line feed."""
    return json.dumps({"id": r.id, "width": r.width, "height": r.height,
                       "gts": [_gt_obj(g) for g in r.gts],
                       "dets": [_det_obj(d) for d in r.dets]}) + "\n"
