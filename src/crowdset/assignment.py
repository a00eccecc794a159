"""Per-proposal ground-truth set construction and dummy padding.

A proposal's ground-truth set holds every annotated instance whose IoU with
the proposal reaches the membership threshold ``theta``. Before matching,
the set is padded to a fixed cardinality with background "dummy" slots that
carry no regression target.

The core takes ground truths as columns: boxes (G, 4), class ids and
ignore flags. :func:`gt_columns` is the one converter from
:class:`GroundTruth` lists to those columns. :func:`gt_set_members` is the
one membership rule, run as one overlap sweep
(:func:`~crowdset.geometry.overlaps`) of a batch of proposals against the
ground truths, keyed by image when the proposals of many images come at
once, and ranked by :func:`~crowdset.geometry.rank_pairs`. A batch's
ground truths are one :class:`~crowdset.metrics.Truth`, whose columns and
image ids go straight in: the detector simulator calls it once per study,
over all its images, the EMD engine once per parse batch of a
prediction file (``scene_io.BATCH_PROPOSALS``), and :func:`build_gt_set`
on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import BBox, boxes_to_array, iou, overlaps, rank_pairs

# Class id reserved for "no instance"; real annotations use ids >= 1.
BACKGROUND_CLASS = 0


@dataclass(frozen=True)
class GroundTruth:
    """An annotated instance box with class tag and ignore flag."""

    box: BBox
    class_id: int = 1
    ignore: bool = False

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if self.class_id == BACKGROUND_CLASS:
            raise ValueError("a real instance cannot carry the background class")


def check_theta(theta: float) -> None:
    """Raise unless the membership threshold ``theta`` is in (0, 1]."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")


def check_k(k: int) -> None:
    """Raise unless the slot budget ``k`` is at least 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


@dataclass(frozen=True)
class GtSet:
    """Ground truths assigned to one proposal, ordered by descending IoU.

    ``entries`` holds only real members; ``n_slots`` is the total slot count
    after padding, so the trailing ``n_slots - len(entries)`` slots are
    background dummies without a box target.
    """

    entries: tuple[GroundTruth, ...]
    source_proposal: BBox
    theta: float
    n_slots: int

    def __post_init__(self):
        check_theta(self.theta)
        if self.n_slots < len(self.entries):
            raise ValueError("n_slots cannot be smaller than the real member count")
        for g in self.entries:
            if g.ignore:
                raise ValueError("ignored ground truths cannot be set members")
            if iou(self.source_proposal, g.box) < self.theta:
                raise ValueError(
                    f"member {g.box} falls below theta={self.theta} for proposal "
                    f"{self.source_proposal}")

    @property
    def n_real(self) -> int:
        return len(self.entries)


def gt_columns(gts: Sequence[GroundTruth]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground truths as columns: boxes (G, 4) float64, class ids int64 and
    ignore flags bool."""
    return (boxes_to_array([g.box for g in gts]),
            np.array([g.class_id for g in gts], dtype=np.int64),
            np.array([g.ignore for g in gts], dtype=bool))


def gt_set_members(proposals: np.ndarray, gt_boxes: np.ndarray,
                   gt_ignore: np.ndarray, theta: float, groups=None,
                   gt_groups=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground-truth sets of the proposal boxes ``proposals`` (P, 4)
    among ``gt_boxes`` (G, 4): the ground truths not flagged in
    ``gt_ignore`` with IoU >= theta, as :func:`~crowdset.geometry.rank_pairs`
    triplets ``(proposal, member, rank)``, highest IoU first and ties to the
    lowest index. With ``groups`` (P,) and ``gt_groups`` (G,), integer image
    ids, each proposal's set holds only ground truths of its own image."""
    check_theta(theta)

    def keep(i, j, ious):
        return (ious >= theta) & ~gt_ignore[j]

    rows, cols, ious, _ = overlaps(proposals, keep, groups, gt_boxes, gt_groups)
    return rank_pairs(rows, cols, ious)


def build_gt_set(proposal: BBox, gts: Sequence[GroundTruth], theta: float) -> GtSet:
    """Collect the ground truths overlapping ``proposal`` with IoU >= theta.

    Ignored annotations never become members. The result is ordered by
    descending IoU with the proposal, ties broken by input index, and is
    unpadded (``n_slots == n_real``).
    """
    boxes, _, ignore = gt_columns(gts)
    _, members, _ = gt_set_members(boxes_to_array([proposal]), boxes, ignore,
                                   theta)
    entries = tuple(gts[i] for i in members.tolist())
    return GtSet(entries=entries, source_proposal=proposal, theta=theta,
                 n_slots=len(entries))


def pad_to_k(gt_set: GtSet, k: int) -> GtSet:
    """Pad (or re-pad) a set to exactly ``k`` slots with trailing dummies.

    Raises ``ValueError`` when the set holds more than ``k`` real members
    (:func:`truncate_top_k` is the opt-in policy); idempotent at size ``k``.
    """
    check_k(k)
    if gt_set.n_real > k:
        raise ValueError(
            f"ground-truth set has {gt_set.n_real} real members but only {k} "
            f"slots (excess {gt_set.n_real - k})")
    if gt_set.n_slots == k:
        return gt_set
    return replace(gt_set, n_slots=k)


def truncate_top_k(gt_set: GtSet, k: int) -> GtSet:
    """Keep the ``k`` highest-IoU members, then pad to ``k`` slots.

    This is the opt-in overflow policy; :func:`pad_to_k` refuses overflow.
    """
    check_k(k)
    return replace(gt_set, entries=gt_set.entries[:k], n_slots=k)

