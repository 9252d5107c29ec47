"""Soft-margin linear SVM with one-vs-all multiclass.

Training is primal stochastic subgradient descent on the hinge objective
lam/2*|w|^2 + mean hinge with lam = 1/(C*N), step 1/(lam*(t0+t)), shuffled
epochs under a seed. The epoch-end iterate with the lowest objective is
kept, which makes the final objective never worse than after epoch one.
The per-sample inner loop runs in the compiled kernel when available.
``train_ova`` trains the planes of one or several feature masks through
one epoch loop, with one batched kernel call per epoch.

Margins w.x - b, for the objective and for predictions alike, are summed
in feature order by one helper, as the kernel sums them, and never through
BLAS, whose kernel (and so its rounding) is picked for the CPU at run
time: models and predictions do not depend on the BLAS build or the CPU.
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


def _margins(xt: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(planes, rows) matrix w.x - b of the planes ``w[:, p]``, ``b[p]`` over
    the feature-major rows ``xt`` (features, rows), summed in feature order."""
    out = np.zeros((w.shape[1], xt.shape[1]))
    for wf, xf in zip(w, xt):
        out += wf[:, None] * xf
    return out - b[:, None]


def hinge_objective(xt: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray,
                    lam: float) -> np.ndarray:
    """Regularizer lam/2*|w|^2 plus mean hinge loss of each plane ``w[:, p]``,
    ``b[p]`` on the feature-major rows ``xt`` with labels ``y[p]`` in
    {-1, +1}; one value per plane."""
    # |w|^2 in feature order too: numpy's sum pairs terms by the batch width.
    hinge = np.maximum(0.0, 1.0 - y * _margins(xt, w, b))
    return lam / 2.0 * np.add.accumulate(w * w)[-1] + np.mean(hinge, axis=1)


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
    on the columns that some mask selects; the objective then scores the
    planes of each mask together, on that mask's columns.
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
    xt = np.ascontiguousarray(x.T)
    columns = [mask[union] for mask in masks]
    groups = [np.flatnonzero(np.equal(plan, j)) for j in range(len(masks))]
    selected = np.stack([columns[j] for j in plan], axis=1)
    w = np.zeros(selected.shape)
    objective, best = np.empty(len(rngs)), np.full(len(rngs), np.inf)
    best_w, best_b = w.copy(), b.copy()
    for epoch in range(config.epochs):
        for p, rng in enumerate(rngs):
            order[p] = rng.permutation(n)
        t = hinge_epoch_batch(x, y, order, selected, w, b, lam, t0, t)
        for cols, planes in zip(columns, groups):
            objective[planes] = hinge_objective(xt[cols], y[planes], w[np.ix_(cols, planes)],
                                                b[planes], lam)
        keep = (objective < best) | (epoch == 0)
        best[keep] = objective[keep]
        best_w[:, keep] = w[:, keep]
        best_b[keep] = b[keep]
    return [Hyperplane(best_w[columns[j], p], best_b[p]) for p, j in enumerate(plan)]


def train_binary(x: np.ndarray, y: Sequence[float], config: SvmConfig) -> Hyperplane:
    """Train one plane on rows ``x`` with labels in {-1, +1}.

    Deterministic under ``config.seed``. Raises if only one class is present.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise TrainingError("x must be (n, d) and y must be (n,)")
    if not np.isfinite(x).all():
        raise TrainingError("rows must be finite")
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
    present = [k for k, plane in enumerate(model.planes) if plane is not None]
    out = np.full((x.shape[0], len(model.planes)), -np.inf, dtype=np.float64)
    if present:
        w = np.stack([model.planes[k].w for k in present], axis=1)
        b = np.array([model.planes[k].b for k in present])
        out[:, present] = _margins(x.T.compress(model.mask, axis=0), w, b).T
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
