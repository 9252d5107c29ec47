"""Soft-margin linear SVM with one-vs-all multiclass.

Training is primal stochastic subgradient descent on the hinge objective
lam/2*|w|^2 + mean hinge with lam = 1/(C*N), step 1/(lam*(t0+t)), shuffled
epochs under a seed. The epoch-end iterate with the lowest objective is
kept, which makes the final objective never worse than after epoch one.
The per-sample inner loop runs in the compiled kernel when available;
``train_ova_many`` trains the planes of several masks in one batched
kernel call per epoch, with the same numbers as ``train_ova``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._kernels import hinge_epoch, hinge_epoch_batch
from .dataset import Dataset
from .errors import ConfigError, TrainingError
from .seeds import derive_seed


@dataclass(frozen=True)
class SvmConfig:
    """Training knobs.

    ``step_offset`` shifts the learning-rate schedule (eta = 1/(lam*(t0+t)));
    None picks ceil(C*N) so the first steps are O(1) regardless of scale.
    """

    c: float = 1.0
    epochs: int = 20
    step_offset: float | None = None
    seed: int = 0

    def validate(self) -> None:
        if not self.c > 0:
            raise ConfigError("svm C must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.step_offset is not None and not self.step_offset >= 0:
            raise ConfigError(f"step_offset must not be negative, got {self.step_offset}")


@dataclass(frozen=True)
class Hyperplane:
    """Decision plane w.x - b."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        # Copy so freezing never aliases a caller's live buffer.
        w = np.array(self.w, dtype=np.float64, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class SvmModel:
    """One plane per class (None for classes absent at training time),
    plus the feature mask the planes were trained under."""

    class_names: tuple[str, ...]
    planes: tuple[Hyperplane | None, ...]
    mask: np.ndarray

    def __post_init__(self):
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        dims = {p.w.shape[0] for p in self.planes if p is not None}
        if len(dims) > 1:
            raise TrainingError("planes disagree on feature dimension")
        if dims and dims.pop() != int(mask.sum()):
            raise TrainingError("plane dimension must equal mask popcount")


def hinge_objective(x: np.ndarray, y: np.ndarray, plane: Hyperplane, c: float) -> float:
    """Regularizer plus mean hinge loss of a plane on (x, y in {-1,+1})."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lam = 1.0 / (c * x.shape[0])
    margins = y * (x @ plane.w - plane.b)
    return float(lam / 2.0 * plane.w @ plane.w + np.mean(np.maximum(0.0, 1.0 - margins)))


def _schedule(config: SvmConfig, n: int) -> tuple[float, float]:
    """(lam, t0) of the step size 1/(lam*(t0+t)) for ``n`` training rows."""
    lam = 1.0 / (config.c * n)
    t0 = float(math.ceil(config.c * n)) if config.step_offset is None else float(config.step_offset)
    return lam, t0


def train_binary(x: np.ndarray, y: Sequence[float], config: SvmConfig) -> Hyperplane:
    """Train one plane on rows ``x`` with labels in {-1, +1}.

    Deterministic under ``config.seed``. Raises if only one class is present.
    """
    config.validate()
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise TrainingError("x must be (n, d) and y must be (n,)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise TrainingError("labels must be -1 or +1")
    if not ((y > 0).any() and (y < 0).any()):
        raise TrainingError("need at least one row of each sign")

    n = x.shape[0]
    lam, t0 = _schedule(config, n)
    rng = np.random.default_rng(config.seed)

    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    t = 0
    best: tuple[float, np.ndarray, float] | None = None
    for _ in range(config.epochs):
        order = rng.permutation(n).astype(np.int64)
        b, t = hinge_epoch(x, y, order, w, b, lam, t0, t)
        objective = hinge_objective(x, y, Hyperplane(w, b), config.c)
        if best is None or objective < best[0]:
            best = (objective, w.copy(), b)
    assert best is not None
    return Hyperplane(best[1], best[2])


def margin(plane: Hyperplane) -> float:
    """Separation width 2/|w|."""
    norm = float(np.linalg.norm(plane.w))
    if norm == 0.0:
        raise TrainingError("margin undefined for a zero weight vector")
    return 2.0 / norm


def _present_classes(dataset: Dataset) -> np.ndarray:
    present = np.unique(dataset.labels)
    if present.shape[0] < 2:
        raise TrainingError("one-vs-all training needs at least two classes")
    return present


def train_ova(dataset: Dataset, config: SvmConfig, mask: np.ndarray | None = None) -> SvmModel:
    """Train one plane per class present in the data (target class +1,
    rest -1). Classes absent from the data get no plane and never win."""
    config.validate()
    if mask is None:
        mask = np.ones(dataset.n_features, dtype=bool)
    present = _present_classes(dataset)
    planes: list[Hyperplane | None] = []
    for index in range(len(dataset.class_names)):
        if index not in present:
            planes.append(None)
            continue
        labels = np.where(dataset.labels == index, 1.0, -1.0)
        per_class = replace(config, seed=derive_seed(config.seed, "ova", index))
        planes.append(train_binary(dataset.rows, labels, per_class))
    return SvmModel(tuple(dataset.class_names), tuple(planes), mask)


def train_ova_many(
    dataset: Dataset, masks: Sequence[np.ndarray], config: SvmConfig, seeds: Sequence[int]
) -> list[SvmModel]:
    """``train_ova`` for several feature masks over the same rows.

    Model j has the planes ``train_ova`` trains on the columns ``masks[j]``
    selects under ``seeds[j]``, bit for bit: each (mask, class) plane keeps
    its own seed, per-epoch permutation and best epoch, and all planes
    share the step counter. They train together, one ``hinge_epoch_batch``
    call per epoch. Each model carries its mask.
    """
    config.validate()
    masks = [np.asarray(mask, dtype=bool) for mask in masks]
    if len(seeds) != len(masks):
        raise TrainingError(f"{len(masks)} masks but {len(seeds)} seeds")
    if any(mask.shape != (dataset.n_features,) or not mask.any() for mask in masks):
        raise TrainingError(f"every mask must be a non-empty {dataset.n_features}-bit mask")
    present = [int(k) for k in _present_classes(dataset)]
    n = dataset.n_rows
    lam, t0 = _schedule(config, n)
    # Plane p = j * len(present) + i trains class present[i] under masks[j].
    plan = [(j, k) for j in range(len(masks)) for k in present]
    x = np.ascontiguousarray(dataset.rows.T)
    y = np.where(dataset.labels == np.array([k for _, k in plan])[:, None], 1.0, -1.0)
    selected = np.stack([masks[j] for j, _ in plan], axis=1)
    rngs = [np.random.default_rng(derive_seed(seeds[j], "ova", k)) for j, k in plan]
    order = np.empty((len(plan), n), dtype=np.int64)
    w = np.zeros(selected.shape)
    b = np.zeros(len(plan))
    t = 0
    best: list[tuple[float, Hyperplane] | None] = [None] * len(plan)
    for _ in range(config.epochs):
        for p, rng in enumerate(rngs):
            order[p] = rng.permutation(n)
        t = hinge_epoch_batch(x, y, order, selected, w, b, lam, t0, t)
        # The objective of each plane is train_binary's, on the same
        # projected rows; one mask's projection is held at a time.
        for j, mask in enumerate(masks):
            rows = dataset.rows[:, mask]
            for p in range(j * len(present), (j + 1) * len(present)):
                plane = Hyperplane(w[mask, p], b[p])
                objective = hinge_objective(rows, y[p], plane, config.c)
                if best[p] is None or objective < best[p][0]:
                    best[p] = (objective, plane)
    models = []
    for j, mask in enumerate(masks):
        planes: list[Hyperplane | None] = [None] * len(dataset.class_names)
        for i, k in enumerate(present):
            planes[k] = best[j * len(present) + i][1]
        models.append(SvmModel(tuple(dataset.class_names), tuple(planes), mask))
    return models


def decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """(n, n_classes) decision matrix; -inf columns for absent classes."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dim = int(model.mask.sum())
    if x.shape[1] != dim:
        raise TrainingError(
            f"dimension mismatch: rows have {x.shape[1]} features, model expects {dim}"
        )
    out = np.full((x.shape[0], len(model.planes)), -np.inf, dtype=np.float64)
    for k, plane in enumerate(model.planes):
        if plane is not None:
            out[:, k] = x @ plane.w - plane.b
    return out


def predict(model: SvmModel, x: np.ndarray) -> int | np.ndarray:
    """Argmax class index over decision values; ties go to the lowest
    class index. Scalar for a single vector, array for a matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    values = decision_values(model, x)
    labels = np.argmax(values, axis=1).astype(np.int64)
    return int(labels[0]) if single else labels
