"""Soft-margin linear SVM with one-vs-all multiclass.

Training is primal stochastic subgradient descent on the hinge objective
lam/2*|w|^2 + mean hinge with lam = 1/(C*N), step 1/(lam*(t0+t)), shuffled
epochs under a seed. The epoch-end iterate with the lowest objective is
kept, which makes the final objective never worse than after epoch one.
The per-sample inner loop runs in the compiled kernel when available.
``train_ova`` trains the planes of one or several feature masks through
one epoch loop, with one batched kernel call per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import hinge_epoch, hinge_epoch_batch  # noqa: F401 - hinge_epoch: traced by name
from .dataset import CLASS_NAMES, Dataset
from .errors import ConfigError, TrainingError
from .seeds import derive_seed


@dataclass(frozen=True)
class SvmConfig:
    """Training knobs, checked on construction (``replace`` included).

    ``step_offset`` shifts the learning-rate schedule (eta = 1/(lam*(t0+t)));
    None picks ceil(C*N) so the first steps are O(1) regardless of scale.
    """

    c: float = 1.0
    epochs: int = 20
    step_offset: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ConfigError(f"svm C must be positive and finite, got {self.c}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.step_offset is not None and not 0 <= self.step_offset < math.inf:
            raise ConfigError(
                f"step_offset must not be negative or infinite, got {self.step_offset}"
            )


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
    """One plane per class of ``CLASS_NAMES`` (None for classes absent at
    training time), plus the feature mask the planes were trained under."""

    planes: tuple[Hyperplane | None, ...]
    mask: np.ndarray

    def __post_init__(self):
        if len(self.planes) != len(CLASS_NAMES):
            raise TrainingError(f"need one plane per class, got {len(self.planes)}")
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


def _train_planes(
    rows: np.ndarray,
    y: np.ndarray,
    masks: Sequence[np.ndarray],
    plan: Sequence[int],
    seeds: Sequence[int],
    config: SvmConfig,
) -> list[Hyperplane]:
    """Train plane p on labels ``y[p]`` (in {-1, +1}) over the columns of
    ``rows`` that ``masks[plan[p]]`` selects, shuffled under ``seeds[p]``.

    All planes share the step counter; each draws its own permutation every
    epoch and keeps its epoch-end iterate with the lowest objective. The
    kernel trains every plane in one ``hinge_epoch_batch`` call per epoch,
    on the columns that some mask selects.
    """
    n = rows.shape[0]
    lam = 1.0 / (config.c * n)
    t0 = float(math.ceil(config.c * n)) if config.step_offset is None else float(config.step_offset)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    order = np.empty((len(rngs), n), dtype=np.int64)
    b = np.zeros(len(rngs))
    t = 0
    union = np.logical_or.reduce(masks)
    x = rows.compress(union, axis=1)
    selected = np.stack([masks[j][union] for j in plan], axis=1)
    w = np.zeros(selected.shape)
    best: list[tuple[float, Hyperplane] | None] = [None] * len(rngs)
    for _ in range(config.epochs):
        for p, rng in enumerate(rngs):
            order[p] = rng.permutation(n)
        t = hinge_epoch_batch(x, y, order, selected, w, b, lam, t0, t)
        # One mask's projection is held at a time; a mask that selects
        # every column of x (as one mask always does) reads x itself.
        for j, mask in enumerate(masks):
            columns = mask[union]
            projected = x if columns.all() else x.compress(columns, axis=1)
            for p in (p for p, k in enumerate(plan) if k == j):
                plane = Hyperplane(w[columns, p], b[p])
                objective = hinge_objective(projected, y[p], plane, config.c)
                if best[p] is None or objective < best[p][0]:
                    best[p] = (objective, plane)
    return [plane for _, plane in best]


def train_binary(x: np.ndarray, y: Sequence[float], config: SvmConfig) -> Hyperplane:
    """Train one plane on rows ``x`` with labels in {-1, +1}.

    Deterministic under ``config.seed``. Raises if only one class is present.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise TrainingError("x must be (n, d) and y must be (n,)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise TrainingError("labels must be -1 or +1")
    if not ((y > 0).any() and (y < 0).any()):
        raise TrainingError("need at least one row of each sign")
    all_columns = np.ones(x.shape[1], dtype=bool)
    (plane,) = _train_planes(x, y[None], [all_columns], [0], [config.seed], config)
    return plane


def margin(plane: Hyperplane) -> float:
    """Separation width 2/|w|."""
    norm = float(np.linalg.norm(plane.w))
    if norm == 0.0:
        raise TrainingError("margin undefined for a zero weight vector")
    return 2.0 / norm


def train_ova(
    dataset: Dataset, config: SvmConfig, masks: Sequence[np.ndarray], seeds: Sequence[int]
) -> list[SvmModel]:
    """One one-vs-all model per feature mask, all over the same rows.

    Model j has one plane per class present in the data (target class +1,
    rest -1), trained on the columns ``masks[j]`` selects; the plane of
    class k is shuffled under ``derive_seed(seeds[j], "ova", k)``. Classes
    absent from the data get no plane and never win. Each model carries
    its mask.
    """
    masks = [np.asarray(mask, dtype=bool) for mask in masks]
    if len(seeds) != len(masks):
        raise TrainingError(f"{len(masks)} masks but {len(seeds)} seeds")
    if not masks or any(mask.shape != (dataset.n_features,) or not mask.any() for mask in masks):
        raise TrainingError(f"need one or more non-empty {dataset.n_features}-bit masks")
    present = [int(k) for k in np.unique(dataset.labels)]
    if len(present) < 2:
        raise TrainingError("one-vs-all training needs at least two classes")
    plan = [(j, k) for j in range(len(masks)) for k in present]
    y = np.where(dataset.labels == np.array([k for _, k in plan])[:, None], 1.0, -1.0)
    planes = dict(zip(plan, _train_planes(
        dataset.rows, y, masks, [j for j, _ in plan],
        [derive_seed(seeds[j], "ova", k) for j, k in plan], config,
    )))
    return [
        SvmModel(tuple(planes.get((j, k)) for k in range(len(CLASS_NAMES))), mask)
        for j, mask in enumerate(masks)
    ]


def decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """(n, n_classes) decision matrix over the columns of the full-width
    rows ``x`` that the model's mask selects; -inf for absent classes."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.mask.size:
        raise TrainingError(
            f"dimension mismatch: rows have {x.shape[1]} features, model expects {model.mask.size}"
        )
    x = x.compress(model.mask, axis=1)
    out = np.full((x.shape[0], len(model.planes)), -np.inf, dtype=np.float64)
    for k, plane in enumerate(model.planes):
        if plane is not None:
            out[:, k] = x @ plane.w - plane.b
    return out


def predict(model: SvmModel, x: np.ndarray) -> int | np.ndarray:
    """Argmax class index over decision values of full-width rows; ties go
    to the lowest class index. Scalar for a single vector, array for a
    matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    values = decision_values(model, x)
    labels = np.argmax(values, axis=1).astype(np.int64)
    return int(labels[0]) if single else labels
