"""Wrapper fitness bridging the optimizer and the classifier.

A candidate mask is scored by projecting the feature columns it selects,
training a one-vs-all SVM on a fixed stratified fit split, and scoring
predictions on the held-back validation split:

    fitness = r_tp + (1 - r_e) + (1 - n_f / n_total)

where r_tp and r_e come from the attack-pooled binary confusion
(every attack class counts as positive, Normal as negative).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .classifier import SvmConfig, predict, train_ova
from .confusion import ConfusionCounts, binary_attack_confusion, tpr
from .dataset import CLASS_NAMES, Dataset, stratified_sample_indices
from .errors import DataError
from .optimizer import mask_to_bitstring
from .seeds import derive_seed


@dataclass(frozen=True)
class FitnessBreakdown:
    """Fitness components for one mask evaluation. ``degenerate`` is set
    when the validation split held no attack rows (r_tp forced to 0)."""

    r_tp: float
    r_e: float
    n_f: int
    fitness: float
    degenerate: bool = False


def fitness_value(r_tp: float, r_e: float, n_f: int, n_total: int = 41) -> float:
    """Combine the three components; strictly decreasing in n_f."""
    return r_tp + (1.0 - r_e) + (1.0 - n_f / n_total)


def project_features(dataset: Dataset, mask: np.ndarray) -> Dataset:
    """Keep the columns where the mask bit is set, in original order."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (dataset.n_features,):
        raise DataError(
            f"mask length {mask.shape} does not match {dataset.n_features} features"
        )
    if not mask.any():
        raise DataError("cannot project an empty feature mask")
    return Dataset(dataset.rows[:, mask], dataset.labels)


def error_rate(counts: ConfusionCounts) -> float:
    """(FP + FN) / total."""
    if counts.total == 0:
        raise DataError("error rate undefined for an empty confusion table")
    return (counts.fp + counts.fn) / counts.total


def mask_fitness(
    masks: Sequence[np.ndarray],
    seeds: Sequence[int],
    fit_ds: Dataset,
    val_ds: Dataset,
    svm_config: SvmConfig,
) -> list[FitnessBreakdown]:
    """Train one model per mask on the fit view (``masks[j]`` under
    ``seeds[j]``, all in one ``train_ova`` call), score each on the
    validation view, combine."""
    masks = [np.asarray(mask, dtype=bool) for mask in masks]
    out = []
    for mask, model in zip(masks, train_ova(fit_ds, svm_config, masks, seeds)):
        predictions = predict(model, val_ds.rows)
        counts = binary_attack_confusion(val_ds.labels, predictions)
        r_tp = tpr(counts)
        r_e = error_rate(counts)
        n_f = int(mask.sum())
        out.append(FitnessBreakdown(
            r_tp=r_tp,
            r_e=r_e,
            n_f=n_f,
            fitness=fitness_value(r_tp, r_e, n_f, mask.size),
            degenerate=(counts.tp + counts.fn) == 0,
        ))
    return out


def fitness_split(labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed stratified 80/20 fit/validation split used for every mask in a run."""
    labels = np.asarray(labels)
    n_fit = max(1, min(labels.shape[0] - 1, round(labels.shape[0] * 0.8)))
    fit_idx = stratified_sample_indices(labels, n_fit, seed)
    val_idx = np.setdiff1d(np.arange(labels.shape[0], dtype=np.int64), fit_idx, assume_unique=True)
    return fit_idx, val_idx


class WrapperObjective:
    """Population objective mapping masks to wrapper fitness.

    The fit/validation split is fixed at construction so fitness values
    are comparable across masks; a fit split with fewer than two classes
    is a ``DataError``. Each distinct mask trains under a seed
    derived from (run_seed, bitstring), so results do not depend on
    evaluation order; repeat evaluations are served from a cache.
    ``objective(masks)`` trains the distinct uncached masks together (one
    ``mask_fitness`` call), then serves every mask through ``breakdown``
    in order.

    ``trace`` (any object with ``write``) receives one CSV line per mask
    scored, cache hits included: bitstring, r_tp, r_e, n_f, fitness.
    """

    TRACE_HEADER = "mask,r_tp,r_e,n_f,fitness\n"

    def __init__(
        self,
        train_ds: Dataset,
        run_seed: int,
        svm_config: SvmConfig,
        fitness_epochs: int = 5,
        trace: IO[str] | None = None,
    ):
        self.fit_idx, self.val_idx = fitness_split(
            train_ds.labels, derive_seed(run_seed, "fitness-split")
        )
        self.fit_ds = train_ds.take(self.fit_idx)
        present = np.unique(self.fit_ds.labels)
        if present.size < 2:
            raise DataError(
                "one-vs-all training needs at least two classes, but the fitness "
                f"fit split holds only {CLASS_NAMES[present[0]]} rows"
            )
        self.val_ds = train_ds.take(self.val_idx)
        self.run_seed = run_seed
        self.svm_config = replace(svm_config, epochs=fitness_epochs)
        self.trace = trace
        self.evaluations = 0
        self._cache: dict[str, FitnessBreakdown] = {}
        if trace is not None:
            trace.write(self.TRACE_HEADER)

    def _fill(self, masks: Sequence[np.ndarray]) -> None:
        """Train and cache the distinct masks not in the cache yet."""
        new: dict[str, np.ndarray] = {}
        for mask in masks:
            bits = mask_to_bitstring(mask)
            if bits not in self._cache:
                new.setdefault(bits, mask)
        if new:
            seeds = [derive_seed(self.run_seed, "mask", bits) for bits in new]
            scored = mask_fitness(
                list(new.values()), seeds, self.fit_ds, self.val_ds, self.svm_config
            )
            self._cache.update(zip(new, scored))
            self.evaluations += len(new)

    def breakdown(self, mask: np.ndarray) -> FitnessBreakdown:
        self._fill([mask])
        bits = mask_to_bitstring(mask)
        result = self._cache[bits]
        if self.trace is not None:
            self.trace.write(
                f"{bits},{result.r_tp!r},{result.r_e!r},{result.n_f},{result.fitness!r}\n"
            )
        return result

    def __call__(self, masks: Sequence[np.ndarray]) -> list[float]:
        self._fill(masks)
        return [self.breakdown(mask).fitness for mask in masks]
