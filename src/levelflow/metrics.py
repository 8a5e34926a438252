"""Confusion-count segmentation metrics: Dice, Jaccard, precision, recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, NON_NEGATIVE, InvalidInputError, Params, param, require
from .errors import require_floats, require_instance
from .field import as_fields


@dataclass(frozen=True)
class Confusion(Params):
    tp: int = param(rule=NON_NEGATIVE)
    fp: int = param(rule=NON_NEGATIVE)
    fn: int = param(rule=NON_NEGATIVE)
    tn: int = param(rule=NON_NEGATIVE)


@dataclass(frozen=True)
class Scores:
    dice: float
    jaccard: float
    precision: float
    recall: float


def confusion(pred: np.ndarray, gt: np.ndarray, threshold: float = 0.5) -> Confusion:
    """Pixel counts after binarizing pred at the threshold (ties -> foreground)."""
    require_floats(threshold=threshold)
    require(FINITE.test(threshold), "threshold", FINITE.text, threshold)
    pred, gt = as_fields(pred=pred, gt=gt)
    if not np.all((gt == 0.0) | (gt == 1.0)):
        raise InvalidInputError("ground truth must be binary (exactly 0 or 1)")
    p = pred >= threshold
    g = gt == 1.0
    return Confusion(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def scores(c: Confusion) -> Scores:
    """Overlap scores; conventions for empty masks:

    both masks empty (tp + fp + fn = 0) -> all four scores are 1 (perfect
    agreement on emptiness); exactly one mask empty -> the affected 0/0
    ratios are 0.
    """
    require_instance("c", c, Confusion)
    if c.tp + c.fp + c.fn == 0:
        return Scores(dice=1.0, jaccard=1.0, precision=1.0, recall=1.0)
    dice = 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn)
    jaccard = c.tp / (c.tp + c.fp + c.fn)
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    return Scores(dice=dice, jaccard=jaccard, precision=precision, recall=recall)


def dice_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """Convenience: Dice of pred vs gt, pred binarized at 0.5."""
    return scores(confusion(pred, gt)).dice
