"""The scene generator as it was before the array generator, kept verbatim
as an oracle: one ``Generator.uniform`` call per number, one ``BBox`` per
box, the pair-IoU bisection on ``BBox.shifted`` and ``geometry.iou``, and
one IoU call per candidate box against the boxes placed so far. The array
generator must give the same boxes, bit for bit, and raise the same
``SceneGenerationError`` for the same parameters.
"""

from typing import Sequence

import numpy as np

from crowdset.assignment import GroundTruth
from crowdset.geometry import BBox, box_areas, boxes_to_array, iou, iou_arrays
from crowdset.synth import (_PAIR_IOU_TOL, _PLACEMENT_TRIES, ASPECT_RANGE,
                            BOX_SCALE_RANGE, SceneGenerationError, SceneParams)


def _sample_box(rng: np.random.Generator, params: SceneParams) -> BBox:
    w = rng.uniform(*BOX_SCALE_RANGE)
    h = w * rng.uniform(*ASPECT_RANGE)
    x = rng.uniform(0.0, max(1.0, params.image_w - w))
    y = rng.uniform(0.0, max(1.0, params.image_h - h))
    return BBox(x, y, x + w, y + h)


class _Placed:
    """The boxes placed so far, with their corner array and areas grown in
    step, so each candidate costs one IoU call against the whole set."""

    def __init__(self):
        self.boxes: list[BBox] = []
        self._array = np.zeros((0, 4))
        self._areas = np.zeros(0)

    def add(self, boxes: Sequence[BBox]) -> None:
        self.boxes.extend(boxes)
        array = boxes_to_array(boxes)
        self._array = np.concatenate([self._array, array])
        self._areas = np.concatenate([self._areas, box_areas(array)])

    def max_iou(self, box: BBox) -> float:
        if not self.boxes:
            return 0.0
        return float(iou_arrays(np.array(box.as_tuple()), box.area,
                                self._array, self._areas).max())


def _offset_for_target_iou(box: BBox, ux: float, uy: float, target: float) -> BBox:
    """Partner box: ``box`` shifted along (ux, uy) so the pair IoU hits
    ``target``; the offset magnitude is solved by bisection."""
    lo, hi = 0.0, box.width + box.height  # IoU(hi) == 0 < target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        shifted = box.shifted(mid * ux, mid * uy)
        v = iou(box, shifted)
        if abs(v - target) <= _PAIR_IOU_TOL:
            return shifted
        if v > target:
            lo = mid
        else:
            hi = mid
    return box.shifted(0.5 * (lo + hi) * ux, 0.5 * (lo + hi) * uy)


def _place_cluster(rng: np.random.Generator, params: SceneParams,
                   placed: _Placed, n_partners: int) -> list[BBox]:
    """An anchor box plus ``n_partners`` offset copies, each hitting a target
    IoU with the anchor, none overlapping outside boxes beyond 0.5."""
    for _ in range(_PLACEMENT_TRIES):
        anchor = _sample_box(rng, params)
        if placed.max_iou(anchor) > 0.5:
            continue
        cluster = [anchor]
        ok = True
        for _ in range(n_partners):
            partner = None
            for _ in range(_PLACEMENT_TRIES):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                target = rng.uniform(*params.pair_iou_range)
                cand = _offset_for_target_iou(anchor, np.cos(angle), np.sin(angle),
                                              target)
                if placed.max_iou(cand) > 0.5:
                    continue
                partner = cand
                break
            if partner is None:
                ok = False
                break
            cluster.append(partner)
        if ok:
            return cluster
    raise SceneGenerationError(
        f"could not place a {n_partners + 1}-box cluster without accidental "
        f"IoU > 0.5 against existing boxes after {_PLACEMENT_TRIES} attempts"
    )


def generate_scene(params: SceneParams, seed: int) -> list[GroundTruth]:
    """Generate one scene's ground truths, deterministic under seed."""
    rng = np.random.default_rng(seed)
    n_total = int(rng.poisson(params.n_objects_mean))
    n_pairs = int(rng.poisson(params.crowd_pairs_mean))
    n_triples = int(rng.poisson(params.crowd_triples_mean)) if params.crowd_triples_mean > 0 else 0
    n_isolated = max(0, n_total - 2 * n_pairs - 3 * n_triples)

    placed = _Placed()
    for _ in range(n_triples):
        placed.add(_place_cluster(rng, params, placed, n_partners=2))
    for _ in range(n_pairs):
        placed.add(_place_cluster(rng, params, placed, n_partners=1))
    for _ in range(n_isolated):
        box = None
        for _ in range(_PLACEMENT_TRIES):
            cand = _sample_box(rng, params)
            if placed.max_iou(cand) <= 0.5:
                box = cand
                break
        if box is None:
            raise SceneGenerationError(
                f"could not place an isolated box without accidental IoU > 0.5 "
                f"after {_PLACEMENT_TRIES} attempts"
            )
        placed.add([box])
    return [GroundTruth(box=b, class_id=1) for b in placed.boxes]
