"""Set-matching loss between a proposal's slot predictions and its padded
ground-truth set.

Each proposal emits ``k`` slot predictions. The loss pairs slots with the
padded ground-truth set one-to-one, scoring every pairing with one cost,
cross-entropy of the target class plus smooth-L1 of the box delta, and
keeps the permutation with the smallest total. At ``k == 1`` this reduces
exactly to the ordinary single-instance detection loss.

One batched engine computes the loss. :func:`match_batch` scores every
proposal of a batch of prediction records at once from
:class:`PredictionArrays` and each record's ground-truth columns: one
overlap sweep keyed by record (:func:`~crowdset.assignment.gt_set_members`)
gives every ground-truth set as ranked (proposal, member, rank) arrays, the
targets come from the members of rank below ``k``, one (P, k, k) tensor
holds the pair costs, and one argmin over the ``k!`` permutation totals per
proposal picks the matching; that search is the only matcher, so ``k`` is
at most ``ENUMERATION_LIMIT`` (6). The command-line tool matches one batch
of records at a time; a single record is a batch of one.
:func:`pair_cost_matrix` and :func:`emd_match` are one-proposal calls of
the same code, so the cost
formula and the tie rule live in one place. The scalar :func:`cls_loss`,
:func:`reg_loss` and :func:`smooth_l1` are the documented definitions; the
engine computes the same numbers bit for bit, with the logs taken by
``math.log`` (numpy's vectorised log can differ in the last bit) and every
sum in the scalar order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import GtSet, check_theta, gt_columns, gt_set_members
from .geometry import BBox, BoxDelta, boxes_to_array, encode_delta

# Probability floor inside log terms; a zero score is clamped, not an error.
SCORE_EPS = 1e-12

# The largest slot count the permutation search accepts (factorial guard).
ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class SlotPrediction:
    """One slot's output: a probability vector over classes (background at
    index 0) and a box-regression delta."""

    class_scores: np.ndarray
    delta: BoxDelta

    def __post_init__(self):
        scores = np.asarray(self.class_scores, dtype=np.float64)
        object.__setattr__(self, "class_scores", scores)
        if scores.ndim != 1 or scores.size < 2:
            raise ValueError("class_scores must be a 1-D vector with >= 2 classes")
        # Written so a NaN sum fails too; invalid() applies the same test.
        if np.any(scores < 0.0) or not abs(float(scores.sum()) - 1.0) <= 1e-6:
            raise ValueError("class_scores must be a probability vector (sum 1)")


@dataclass(frozen=True)
class PredictionSet:
    """The slot predictions attached to one proposal box."""

    proposal: BBox
    slots: tuple[SlotPrediction, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise ValueError("a prediction set needs at least one slot")


def _pad_ragged(values: np.ndarray, lengths: np.ndarray,
                width: int | None = None) -> np.ndarray:
    """Split ``values`` into consecutive rows of the given ``lengths`` and
    zero-pad each to ``width`` (default: the longest), so (sum(lengths), ...)
    becomes (len(lengths), width, ...)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    values = np.asarray(values)
    if width is None:
        width = int(lengths.max(initial=0))
    out = np.zeros((len(lengths), width) + values.shape[1:], dtype=values.dtype)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.arange(len(values)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out[rows, cols] = values
    return out


@dataclass(frozen=True)
class PredictionArrays:
    """A batch of prediction records' slot predictions as arrays,
    zero-padded where ragged.

    ``ids`` holds the records' ids and ``counts`` (R,) their proposal
    counts; the records' proposals follow each other in that order.
    ``boxes`` (P, 4) holds the proposal boxes and ``n_slots`` (P,) their
    slot counts. ``scores`` (P, S, C), ``n_classes`` (P, S) and ``deltas``
    (P, S, 4) hold the slots, S being the largest slot count and C the
    longest score vector; entries past a proposal's slot count or past a
    vector's length are 0. :meth:`invalid` applies the checks of
    :class:`BBox`, :class:`BoxDelta`, :class:`SlotPrediction` and
    :class:`PredictionSet` to all proposals at once.
    """

    ids: tuple[str, ...]
    counts: np.ndarray
    boxes: np.ndarray
    n_slots: np.ndarray
    scores: np.ndarray
    n_classes: np.ndarray
    deltas: np.ndarray

    @classmethod
    def stack(cls, ids, counts, boxes: np.ndarray, n_slots, scores,
              deltas) -> "PredictionArrays":
        """Arrays from the records' ids and proposal counts, the (P, 4)
        proposal boxes and their slot counts, and per-slot score vectors and
        deltas listed in proposal order."""
        def floats(rows, count):
            return np.fromiter(itertools.chain.from_iterable(rows),
                               dtype=np.float64, count=count)

        lengths = np.fromiter(map(len, scores), dtype=np.intp, count=len(scores))
        n_slots = np.asarray(n_slots, dtype=np.intp)
        return cls(ids=tuple(ids), counts=np.asarray(counts, dtype=np.intp),
                   boxes=boxes, n_slots=n_slots,
                   scores=_pad_ragged(_pad_ragged(floats(scores, int(lengths.sum())),
                                                  lengths), n_slots),
                   n_classes=_pad_ragged(lengths, n_slots),
                   deltas=_pad_ragged(floats(deltas, 4 * len(deltas)).reshape(-1, 4),
                                      n_slots))

    @classmethod
    def from_sets(cls, records: Sequence[tuple[str, Sequence[PredictionSet]]]
                  ) -> "PredictionArrays":
        """Arrays of already validated prediction sets, given as
        ``(id, sets)`` per record."""
        sets = [p for _, record in records for p in record]
        slots = [s for p in sets for s in p.slots]
        return cls.stack([rid for rid, _ in records],
                         [len(record) for _, record in records],
                         boxes_to_array([p.proposal for p in sets]),
                         [len(p.slots) for p in sets],
                         [s.class_scores for s in slots],
                         [s.delta.as_tuple() for s in slots])

    def __len__(self) -> int:
        return len(self.boxes)

    def prediction_set(self, i: int) -> PredictionSet:
        """Proposal ``i`` as a :class:`PredictionSet`, validated by the
        dataclasses in the order a sequential parser meets them."""
        return PredictionSet(
            proposal=BBox(*self.boxes[i].tolist()),
            slots=tuple(SlotPrediction(
                class_scores=self.scores[i, s, :self.n_classes[i, s]],
                delta=BoxDelta(*self.deltas[i, s].tolist()))
                for s in range(int(self.n_slots[i]))))

    def invalid(self) -> np.ndarray:
        """Per proposal: whether a check of the dataclasses fails."""
        b = self.boxes
        bad = (~np.isfinite(b).all(axis=1) | (b[:, 2] < b[:, 0])
               | (b[:, 3] < b[:, 1]) | (self.n_slots == 0))
        used = np.arange(self.scores.shape[1]) < self.n_slots[:, None]
        # Sum each vector over its own length only: zero padding would change
        # numpy's pairwise summation order on vectors of 8 or more.
        sums = np.zeros(used.shape)
        for n in np.unique(self.n_classes[used]):
            at = used & (self.n_classes == n)
            sums[at] = self.scores[at][:, :n].sum(axis=-1)
        slot_bad = (~np.isfinite(self.deltas).all(axis=-1) | (self.n_classes < 2)
                    | (self.scores < 0.0).any(axis=-1)
                    | ~(np.abs(sums - 1.0) <= 1e-6))
        return bad | (used & slot_bad).any(axis=1)


@dataclass(frozen=True)
class EmdConfig:
    """The matching loss's one setting: ``k`` slots per proposal, from 1 to
    ``ENUMERATION_LIMIT``."""

    k: int = 2

    def __post_init__(self):
        if not 1 <= self.k <= ENUMERATION_LIMIT:
            raise ValueError(f"k must be in [1, {ENUMERATION_LIMIT}], "
                             f"got {self.k}")


@dataclass(frozen=True)
class EmdMatch:
    """An optimal slot-to-target permutation with its cost breakdown."""

    permutation: tuple[int, ...]
    per_slot_cost: tuple[float, ...]
    total: float


def _vocabulary(target_class, n_classes) -> str:
    return f"target class {target_class} outside vocabulary of {n_classes} classes"


def cls_loss(scores: np.ndarray, target_class: int) -> float:
    """Cross-entropy of a probability vector against a target class:
    -log(p), p being the target-class score clamped to ``SCORE_EPS``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_class < scores.size:
        raise ValueError(_vocabulary(target_class, scores.size))
    return -math.log(max(float(scores[target_class]), SCORE_EPS))


def smooth_l1(x: float, beta: float = 1.0) -> float:
    """Huber-style penalty: quadratic inside ``beta``, linear outside."""
    ax = abs(x)
    if ax < beta:
        return 0.5 * x * x / beta
    return ax - 0.5 * beta


def reg_loss(pred: BoxDelta, proposal: BBox, target_box: BBox | None,
             beta: float = 1.0) -> float:
    """Smooth-L1 regression loss of a predicted delta against a target box.

    A dummy target (``None``) contributes exactly 0: background slots carry
    no regression supervision.
    """
    if target_box is None:
        return 0.0
    want = encode_delta(proposal, target_box)
    return (
        smooth_l1(pred.dx - want.dx, beta)
        + smooth_l1(pred.dy - want.dy, beta)
        + smooth_l1(pred.dw - want.dw, beta)
        + smooth_l1(pred.dh - want.dh, beta)
    )


def _targets(members, n: int, gt_boxes: np.ndarray, gt_classes: np.ndarray,
             k: int):
    """Padded slot targets of ``n`` proposals from their ranked members
    ``(proposal, member, rank)``, of which those of rank below ``k`` index
    ``gt_boxes`` and ``gt_classes``: class ids (n, k) with background for
    dummies, boxes (n, k, 4) and a real-member mask (n, k)."""
    rows, cols, rank = (a[members[2] < k] for a in members)
    classes = np.zeros((n, k), dtype=gt_classes.dtype)
    boxes, real = np.zeros((n, k, 4)), np.zeros((n, k), dtype=bool)
    classes[rows, rank], boxes[rows, rank] = gt_classes[cols], gt_boxes[cols]
    real[rows, rank] = True
    return classes, boxes, real


def _class_errors(classes: np.ndarray, n_classes: np.ndarray) -> np.ndarray:
    """(P, slot, target) mask of target classes outside a slot's vector."""
    return classes[:, None, :] >= n_classes[:, :, None]


def _cost_tensor(proposals: np.ndarray, scores: np.ndarray, deltas: np.ndarray,
                 classes: np.ndarray, boxes: np.ndarray,
                 real: np.ndarray) -> np.ndarray:
    """(P, k, k) pair costs: entry (p, i, j) scores slot i of proposal p
    against target j, as :func:`cls_loss` and :func:`reg_loss` do.

    ``scores`` (P, k, C) and ``deltas`` (P, k, 4) are the slots and
    ``classes``, ``boxes`` and ``real`` the targets of :func:`_targets`.
    Target classes outside a score vector are the caller's error to raise.
    """
    n, k = classes.shape
    if n == 0:
        return np.zeros((0, k, k))
    target = np.minimum(classes, scores.shape[2] - 1)
    p = scores[np.arange(n)[:, None, None], np.arange(k)[None, :, None],
               target[:, None, :]]
    # cls_loss of each clamped score, by math.log so it equals the scalar one.
    flat = np.maximum(p, SCORE_EPS).ravel().tolist()
    cls = -np.fromiter(map(math.log, flat), dtype=np.float64,
                       count=len(flat)).reshape(p.shape)

    # encode_delta of every real target against its proposal.
    pw = (proposals[:, 2] - proposals[:, 0])[:, None]
    ph = (proposals[:, 3] - proposals[:, 1])[:, None]
    px = proposals[:, 0][:, None] + 0.5 * pw
    py = proposals[:, 1][:, None] + 0.5 * ph
    tw = boxes[..., 2] - boxes[..., 0]
    th = boxes[..., 3] - boxes[..., 1]
    want = np.zeros((n, k, 4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want[..., 0] = (boxes[..., 0] + 0.5 * tw - px) / pw
        want[..., 1] = (boxes[..., 1] + 0.5 * th - py) / ph
        for axis, ratio in ((2, tw / pw), (3, th / ph)):
            want[..., axis][real] = list(map(math.log, ratio[real].tolist()))
        # Smooth-L1 one delta axis at a time, summed s0 + s1 + s2 + s3 as
        # reg_loss sums them, so no (P, k, k, 4) temporary is built.
        reg = None
        for axis in range(4):
            x = deltas[:, :, None, axis] - want[:, None, :, axis]
            ax = np.abs(x)
            sl1 = np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)
            reg = sl1 if reg is None else reg + sl1
        reg = np.where(real[:, None, :], reg, 0.0)
        return cls + reg


def _match(costs: np.ndarray):
    """Minimum-total permutation of each (k, k) matrix in ``costs``.

    Every permutation's total is summed from 0.0 in slot order and the
    first minimum in ``itertools`` order wins, so ties go to the
    lexicographically smallest permutation. Returns the permutations
    (P, k), the matched costs (P, k) and their totals (P,), summed the same
    way. A total beyond float range is inf, without a numpy warning; the
    report writer rejects it.
    """
    n, k, _ = costs.shape
    perms = np.array(list(itertools.permutations(range(k))),
                     dtype=np.intp).reshape(math.factorial(k), k)
    totals = np.zeros((n, len(perms)))
    with np.errstate(over="ignore"):
        for i in range(k):
            totals += costs[:, i, perms[:, i]]
    chosen = perms[np.argmin(totals, axis=1)]
    per_slot = np.take_along_axis(costs, chosen[:, :, None], axis=2)[:, :, 0]
    total = np.zeros(n)
    with np.errstate(over="ignore"):
        for i in range(k):
            total += per_slot[:, i]
    return chosen, per_slot, total


def pair_cost_matrix(pred: PredictionSet, gts: GtSet, cfg: EmdConfig) -> np.ndarray:
    """(k, k) cost matrix: entry (i, j) scores slot i against GT slot j."""
    if len(pred.slots) != cfg.k:
        raise ValueError(f"prediction set has {len(pred.slots)} slots, config "
                         f"expects {cfg.k}")
    if gts.n_slots != cfg.k:
        raise ValueError(f"ground-truth set has {gts.n_slots} slots, config "
                         f"expects {cfg.k}")
    arrays = PredictionArrays.from_sets([("", [pred])])
    gt_boxes, gt_classes, _ = gt_columns(gts.entries)
    members = np.arange(gts.n_real)
    classes, boxes, real = _targets((np.zeros_like(members), members, members),
                                    1, gt_boxes, gt_classes, cfg.k)
    bad = _class_errors(classes, arrays.n_classes)[0]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(_vocabulary(classes[0, j], arrays.n_classes[0, i]))
    if gts.entries and (pred.proposal.width <= 0.0 or pred.proposal.height <= 0.0):
        encode_delta(pred.proposal, gts.entries[0].box)  # raises GeometryError
    return _cost_tensor(arrays.boxes, arrays.scores, arrays.deltas, classes,
                        boxes, real)[0]


def emd_match(costs: np.ndarray) -> EmdMatch:
    """Minimum-total one-to-one matching of a square cost matrix of at most
    ``ENUMERATION_LIMIT`` rows: every permutation is tried and ties go to
    the lexicographically smallest permutation.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {costs.shape}")
    if len(costs) > ENUMERATION_LIMIT:
        raise ValueError(f"cost matrix has {len(costs)} rows, limit {ENUMERATION_LIMIT}")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix contains non-finite entries")
    perm, per_slot, total = _match(costs[None])
    return EmdMatch(permutation=tuple(perm[0].tolist()),
                    per_slot_cost=tuple(per_slot[0].tolist()),
                    total=float(total[0]))


@dataclass(frozen=True)
class ImageMatch:
    """Every proposal of one prediction record matched, in proposal order.

    ``n_real`` (P,) is each ground-truth set's size before truncation,
    ``permutation`` (P, k) maps each slot to its target, and
    ``per_slot_cost`` (P, k) and ``total`` (P,) are as in :class:`EmdMatch`.
    """

    n_real: np.ndarray
    permutation: np.ndarray
    per_slot_cost: np.ndarray
    total: np.ndarray


def match_batch(pred: PredictionArrays,
                gts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                cfg: EmdConfig, theta: float,
                truncate: bool = False) -> list[ImageMatch]:
    """Match every proposal of a batch of records, one :class:`ImageMatch`
    per record. ``gts`` holds each record's ground-truth columns (boxes
    (G, 4), class ids, ignore flags), aligned with ``pred.ids``.

    Each proposal's ground-truth set holds its record's ground truths with
    IoU >= ``theta``; the top ``cfg.k`` members are kept when ``truncate``
    is set, and the set is padded and matched.

    A bad ``theta`` is raised first, also for a batch without proposals.
    Otherwise the result equals a loop over the records and their
    proposals of :func:`~crowdset.assignment.build_gt_set`, then
    :func:`~crowdset.assignment.truncate_top_k` or
    :func:`~crowdset.assignment.pad_to_k`, :func:`pair_cost_matrix` and
    :func:`emd_match`, and so do the errors: a wrong slot count, an overflow
    without ``truncate``, a ground-truth class outside a slot's score vector
    and non-finite costs are raised for the first proposal in batch order
    that has one, in that order within a proposal, and name its record and
    its index there.
    """
    check_theta(theta)
    k = cfg.k
    bounds = np.concatenate(([0], np.cumsum(pred.counts)))
    record = np.repeat(np.arange(len(pred.ids)), pred.counts)

    def where(i):
        return f"record {pred.ids[record[i]]!r} proposal {i - bounds[record[i]]}"

    wrong = np.flatnonzero(pred.n_slots != k)
    n = int(wrong[0]) if wrong.size else len(pred)  # proposals with k slots
    gt_boxes, gt_classes, gt_ignore = (np.concatenate(c) for c in zip(*gts))
    members = gt_set_members(
        pred.boxes[:n], gt_boxes, gt_ignore, theta, record[:n],
        np.repeat(np.arange(len(gts)), [len(g[0]) for g in gts]))
    n_real = np.bincount(members[0], minlength=n)
    classes, boxes, real = _targets(members, n, gt_boxes, gt_classes, k)
    scores, n_classes = pred.scores[:n, :k], pred.n_classes[:n, :k]
    bad_class = _class_errors(classes, n_classes)
    costs = _cost_tensor(pred.boxes[:n], scores, pred.deltas[:n, :k], classes,
                         boxes, real)
    over = n_real > k
    failed = bad_class.any(axis=(1, 2)) | ~np.isfinite(costs).all(axis=(1, 2))
    if not truncate:
        failed |= over
    if failed.any():
        i = int(np.argmax(failed))
        if over[i] and not truncate:
            raise ValueError(
                f"{where(i)}: ground-truth set has {n_real[i]} members for "
                f"k={k} (excess {n_real[i] - k}); pass --truncate-topk to "
                f"keep the top-k by IoU")
        if bad_class[i].any():
            s, j = np.argwhere(bad_class[i])[0]
            raise ValueError(
                f"{where(i)}: {_vocabulary(classes[i, j], n_classes[i, s])}")
        raise ValueError(f"{where(i)}: cost matrix contains non-finite entries")
    if wrong.size:
        raise ValueError(f"{where(n)}: has {pred.n_slots[n]} slots, "
                         f"expected k={k}")
    perm, per_slot, total = _match(costs)
    cuts = bounds[1:-1]
    return [ImageMatch(*parts) for parts in zip(
        np.split(n_real, cuts), np.split(perm, cuts),
        np.split(per_slot, cuts), np.split(total, cuts))]
