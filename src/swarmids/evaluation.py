"""Per-class metrics with macro averaging, and k-fold cross-validation of
the full select-then-classify pipeline.

TNR is computed as TN/(TN+FP) so that fpr + tnr = 1 holds exactly; the
serialized reports carry a note recording this definition.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .classifier import SvmConfig, predict, train_ova
from .confusion import (
    ConfusionCounts,
    accuracy,
    binary_attack_confusion,
    confusion_per_class,
    fnr,
    fpr,
    tnr,
    tpr,
)
from .dataset import (
    CLASS_NAMES,
    Record,
    apply_normalize,
    check_labels,
    class_labels,
    encode,
    fit_encoding,
    fit_normalize,
    stratified_fold_indices,
)
from .errors import ConfigError, DataError
from .optimizer import GoaConfig, mask_to_bitstring, run
from .seeds import derive_seed
from .selection import WrapperObjective

# Each per-class rate, by the name the reports use for it.
METRICS = {"tpr": tpr, "fpr": fpr, "tnr": tnr, "fnr": fnr, "accuracy": accuracy}
METRIC_NAMES = tuple(METRICS)

TNR_NOTE = "tnr computed as tn/(tn+fp) so that fpr + tnr = 1"


def _degenerate_metrics(c: ConfusionCounts) -> tuple[str, ...]:
    out = []
    if c.tp + c.fn == 0:
        out.extend(["tpr", "fnr"])
    if c.fp + c.tn == 0:
        out.extend(["fpr", "tnr"])
    if c.total == 0:
        out.append("accuracy")
    return tuple(out)


@dataclass(frozen=True)
class MetricsReport:
    """Per-class one-vs-rest counts keyed by ``CLASS_NAMES`` in order (a
    ``DataError`` otherwise), plus unweighted macro averages of their rates
    over the classes present in truth (averages weighted by support,
    tp + fn, included for information)."""

    per_class: Mapping[str, ConfusionCounts]
    macro: Mapping[str, float]
    weighted: Mapping[str, float]

    def __post_init__(self):
        if tuple(self.per_class) != CLASS_NAMES:
            raise DataError(f"per_class keys {list(self.per_class)} are not CLASS_NAMES in order")

    def value(self, name: str, metric: str) -> float:
        """Rate ``metric`` (one of ``METRIC_NAMES``) of class ``name``."""
        return METRICS[metric](self.per_class[name])

    def to_dict(self) -> dict:
        return {
            "class_names": list(CLASS_NAMES),
            "per_class": {
                name: {
                    "counts": {"tp": c.tp, "fn": c.fn, "fp": c.fp, "tn": c.tn},
                    **{metric: self.value(name, metric) for metric in METRIC_NAMES},
                    "degenerate": list(_degenerate_metrics(c)),
                }
                for name, c in self.per_class.items()
            },
            "support": {name: c.tp + c.fn for name, c in self.per_class.items()},
            "macro": dict(self.macro),
            "weighted": dict(self.weighted),
        }


def macro_report(truth: Sequence[int], predicted: Sequence[int]) -> MetricsReport:
    """Per-class one-vs-rest counts and the macro average of their rates.
    Raises ``DataError`` for a label outside ``CLASS_NAMES``."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    check_labels(truth, "truth label")
    check_labels(predicted, "predicted label")
    per_class = {
        name: confusion_per_class(truth, predicted, index)
        for index, name in enumerate(CLASS_NAMES)
    }
    support = {name: c.tp + c.fn for name, c in per_class.items() if c.tp + c.fn}
    total_support = sum(support.values())
    macro, weighted = {}, {}
    for metric in METRIC_NAMES:
        values = [METRICS[metric](per_class[name]) for name in support]
        macro[metric] = float(np.mean(values))
        weighted[metric] = float(
            sum(value * count for value, count in zip(values, support.values())) / total_support
        )
    return MetricsReport(per_class, macro, weighted)


def _attack_dict(c: ConfusionCounts) -> dict:
    return {"tp": c.tp, "fn": c.fn, "fp": c.fp, "tn": c.tn, "tpr": tpr(c), "fpr": fpr(c)}


@dataclass(frozen=True)
class FoldReport:
    index: int
    train_size: int
    test_size: int
    mask_bits: str
    mask_popcount: int
    goa_iterations: int
    goa_best_fitness: float
    goa_stop_reason: str
    metrics: MetricsReport
    attack_confusion: ConfusionCounts
    seconds: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "mask": self.mask_bits,
            "mask_popcount": self.mask_popcount,
            "goa_iterations": self.goa_iterations,
            "goa_best_fitness": self.goa_best_fitness,
            "goa_stop_reason": self.goa_stop_reason,
            "metrics": self.metrics.to_dict(),
            "attack_vs_normal": _attack_dict(self.attack_confusion),
        }


@dataclass(frozen=True)
class CvReport:
    k: int
    seed: int
    folds: tuple[FoldReport, ...]
    macro_mean: Mapping[str, float]
    macro_std: Mapping[str, float]
    weighted_mean: Mapping[str, float]
    attack_overall: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "class_names": list(CLASS_NAMES),
            "folds": [f.to_dict() for f in self.folds],
            "macro_mean": dict(self.macro_mean),
            "macro_std": dict(self.macro_std),
            "weighted_mean": dict(self.weighted_mean),
            "attack_vs_normal_overall": _attack_dict(self.attack_overall),
            "notes": [TNR_NOTE],
        }


def report_to_json(report: CvReport, meta: Mapping[str, str] | None = None) -> str:
    """Canonical JSON (sorted keys). Fold timing is left out so the artifact
    is byte-identical across runs with the same config and seed."""
    payload = report.to_dict()
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


AuditHook = Callable[[str, int, np.ndarray], None]


def _run_fold(
    fold: int,
    records: Sequence[Record],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    goa_config: GoaConfig,
    svm_config: SvmConfig,
    seed: int,
    fitness_epochs: int,
    audit: AuditHook,
) -> FoldReport:
    started = time.perf_counter()
    fold_seed = derive_seed(seed, "fold", fold)
    train_rows = [records[i] for i in train_idx.tolist()]
    encoding = fit_encoding(train_rows, fitted_on=f"fold{fold}-train")
    audit("encoding_fit", fold, train_idx)
    train_raw = encode(train_rows, encoding)
    stats = fit_normalize(train_raw)
    audit("normalize_fit", fold, train_idx)
    train_ds = apply_normalize(train_raw, stats)
    test_ds = apply_normalize(encode([records[i] for i in test_idx.tolist()], encoding), stats)

    objective = WrapperObjective(
        train_ds,
        run_seed=derive_seed(fold_seed, "fitness"),
        svm_config=svm_config,
        fitness_epochs=fitness_epochs,
    )
    audit("fitness_train", fold, train_idx[objective.fit_idx])
    audit("fitness_val", fold, train_idx[objective.val_idx])

    goa = replace(goa_config, dim=train_ds.n_features, seed=derive_seed(fold_seed, "goa"))
    result = run(objective, goa)

    (model,) = train_ova(train_ds, svm_config, [result.best_mask], [derive_seed(fold_seed, "svm")])
    audit("final_train", fold, train_idx)
    predictions = predict(model, test_ds.rows)
    audit("test_predict", fold, test_idx)

    return FoldReport(
        index=fold,
        train_size=int(train_idx.shape[0]),
        test_size=int(test_idx.shape[0]),
        mask_bits=mask_to_bitstring(result.best_mask),
        mask_popcount=int(result.best_mask.sum()),
        goa_iterations=len(result.history),
        goa_best_fitness=result.best_fitness,
        goa_stop_reason=result.stop_reason,
        metrics=macro_report(test_ds.labels, predictions),
        attack_confusion=binary_attack_confusion(test_ds.labels, predictions),
        seconds=time.perf_counter() - started,
    )


# Only ``fork`` starts workers without helper processes (``spawn`` and
# ``forkserver`` leave a resource tracker or a server running after the
# pool) and lets them inherit the folds' inputs instead of unpickling them.
_FORK = hasattr(os, "fork")

# A worker's fold inputs, set by ``_start_worker`` when it starts.
_worker_inputs: tuple = ()


def _start_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fold_job(fold: int, inputs: tuple = ()) -> tuple[FoldReport, list]:
    """Run fold ``fold`` on ``inputs`` (a worker's own by default); return
    its report and its audit events in order."""
    records, folds, goa_config, svm_config, seed, fitness_epochs = inputs or _worker_inputs
    train_idx, test_idx = folds[fold]
    events: list = []
    report = _run_fold(
        fold, records, train_idx, test_idx, goa_config, svm_config, seed, fitness_epochs,
        lambda *event: events.append(event),
    )
    return report, events


def fold_workers(threads: int, k: int) -> int:
    """Processes that ``cross_validate`` runs ``k`` folds in at once:
    ``min(threads, k)`` forked workers, or 1 (the calling process, one
    fold after another) where the platform cannot fork."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return min(threads, k) if _FORK else 1


def cross_validate(
    records: Sequence[Record],
    k: int,
    goa_config: GoaConfig,
    svm_config: SvmConfig,
    seed: int,
    fitness_epochs: int = 5,
    threads: int = 1,
    audit: AuditHook | None = None,
) -> CvReport:
    """Stratified k-fold evaluation of the full pipeline.

    Per fold: encoding and normalization are fitted on the training rows
    only; feature selection runs on the training rows (with its internal
    fit/validation split); the final model trains with full epochs on all
    training rows under the selected mask; the held-out fold is scored.
    Folds run in ``fold_workers(threads, k)`` forked worker processes
    (in this one when that is 1) and use disjoint derived seeds, so
    results do not depend on the worker count. ``audit`` receives
    (stage, fold, absolute row indices) in the calling thread, each
    fold's events in the order the fold made them, after that fold ends
    and in fold order. Every worker has exited when this returns or
    raises.
    """
    workers = fold_workers(threads, k)
    labels = class_labels([r.label for r in records])
    folds = stratified_fold_indices(labels, k, derive_seed(seed, "folds"))
    inputs = (records, folds, goa_config, svm_config, seed, fitness_epochs)

    pool = None
    if workers == 1:
        results = map(partial(_fold_job, inputs=inputs), range(k))
    else:
        # Imported here: they add about 1 MB to every stage's import, and
        # only a pool of fold workers needs them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers inherit ``inputs``; a task carries only its fold.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=inputs)
        results = pool.map(_fold_job, range(k))
    try:
        fold_reports = []
        for report, events in results:
            fold_reports.append(report)
            if audit is not None:
                for event in events:
                    audit(*event)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    macro_values = {
        metric: np.array([f.metrics.macro[metric] for f in fold_reports])
        for metric in METRIC_NAMES
    }
    weighted_values = {
        metric: np.array([f.metrics.weighted[metric] for f in fold_reports])
        for metric in METRIC_NAMES
    }
    overall = ConfusionCounts(
        tp=sum(f.attack_confusion.tp for f in fold_reports),
        fn=sum(f.attack_confusion.fn for f in fold_reports),
        fp=sum(f.attack_confusion.fp for f in fold_reports),
        tn=sum(f.attack_confusion.tn for f in fold_reports),
    )
    return CvReport(
        k=k,
        seed=seed,
        folds=tuple(fold_reports),
        macro_mean={m: float(v.mean()) for m, v in macro_values.items()},
        macro_std={m: float(v.std()) for m, v in macro_values.items()},
        weighted_mean={m: float(v.mean()) for m, v in weighted_values.items()},
        attack_overall=overall,
    )
