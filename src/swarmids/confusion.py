"""Confusion counts and the rates derived from them.

A leaf module: both the wrapper fitness and cross-validation count through
here. TNR is TN/(TN+FP), so fpr + tnr = 1 holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest tallies for a single positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def tpr(c: ConfusionCounts) -> float:
    """TP / (TP + FN); 0 when no positives exist."""
    d = c.tp + c.fn
    return c.tp / d if d else 0.0


def fpr(c: ConfusionCounts) -> float:
    d = c.fp + c.tn
    return c.fp / d if d else 0.0


def tnr(c: ConfusionCounts) -> float:
    d = c.tn + c.fp
    return c.tn / d if d else 0.0


def fnr(c: ConfusionCounts) -> float:
    d = c.fn + c.tp
    return c.fn / d if d else 0.0


def accuracy(c: ConfusionCounts) -> float:
    return (c.tp + c.tn) / c.total if c.total else 0.0


def confusion_per_class(
    truth: Sequence[int], predicted: Sequence[int], target: int
) -> ConfusionCounts:
    """One-vs-rest counts treating ``target`` as the positive class."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.size == 0:
        raise DataError("truth and prediction lists must be equal-length and non-empty")
    pos_truth = truth == target
    pos_pred = predicted == target
    return ConfusionCounts(
        tp=int(np.sum(pos_truth & pos_pred)),
        fn=int(np.sum(pos_truth & ~pos_pred)),
        fp=int(np.sum(~pos_truth & pos_pred)),
        tn=int(np.sum(~pos_truth & ~pos_pred)),
    )


def binary_attack_confusion(truth: np.ndarray, predicted: np.ndarray) -> ConfusionCounts:
    """Pool all attack classes as positive, Normal (class 0) as negative."""
    return confusion_per_class(np.asarray(truth) != 0, np.asarray(predicted) != 0, True)
