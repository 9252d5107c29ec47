"""Soft-margin linear SVM with one-vs-all multiclass.

Training is primal stochastic subgradient descent on the hinge objective
lam/2*|w|^2 + mean hinge with lam = 1/(C*N), step 1/(lam*(t0+t)), shuffled
epochs under a seed. The epoch-end iterate with the lowest objective is
kept, which makes the final objective never worse than after epoch one.
The per-sample inner loop runs in the compiled kernel when available.
``train_ova`` trains the planes of one or several feature masks, every
epoch, in one kernel call per chunk of masks, and scores all their
epoch-end iterates afterwards.

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

from ._kernels import hinge_epoch, hinge_train  # noqa: F401 - hinge_epoch: traced by name
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
    term = np.empty_like(out)
    for wf, xf in zip(w, xt):
        out += np.multiply(wf[:, None], xf, out=term)
    out -= b[:, None]
    return out


def hinge_objective(xt: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray,
                    lam: float) -> np.ndarray:
    """Regularizer lam/2*|w|^2 plus mean hinge loss of each plane ``w[:, p]``,
    ``b[p]`` on the feature-major rows ``xt`` with labels ``y[p]`` in
    {-1, +1}; one value per plane."""
    hinge = _margins(xt, w, b)
    hinge *= y
    np.maximum(0.0, np.subtract(1.0, hinge, out=hinge), out=hinge)
    # |w|^2 in feature order too: numpy's sum pairs terms by the batch width.
    return lam / 2.0 * np.add.accumulate(w * w)[-1] + np.mean(hinge, axis=1)


# Bytes of row orders (epochs x planes x rows, int64) that one kernel call
# may take; a larger fill trains its masks in chunks.
ORDER_BYTES = 1 << 24
# Bytes of one (planes x rows) float64 array in an objective call; a mask
# whose iterates of all epochs would pass it is scored a few epochs at a time.
SCORE_BYTES = 1 << 18


def _best_epochs(objective: np.ndarray) -> np.ndarray:
    """Index of the kept epoch of each plane, from its objective at every
    epoch end (epochs, planes): epoch 0, unless a later epoch is strictly
    lower than every epoch before it; so ties keep the earliest, and a NaN
    wins only at epoch 0."""
    later = np.where(np.isnan(objective[1:]), np.inf, objective[1:])
    return np.argmin(np.concatenate([objective[:1], later]), axis=0)


def _epoch_objectives(xt: np.ndarray, y: np.ndarray, w_epochs: np.ndarray,
                      b_epochs: np.ndarray, lam: float) -> np.ndarray:
    """``hinge_objective`` of the planes ``y[p]`` at every epoch end, from
    ``w_epochs`` (epochs, features, planes) and ``b_epochs`` (epochs,
    planes): one value per epoch and plane. Each call scores several epochs
    as one batch, in which column e * planes + p is plane p after epoch e."""
    epochs, features, planes = w_epochs.shape
    span = max(1, SCORE_BYTES // (8 * planes * xt.shape[1]))
    out = np.empty((epochs, planes))
    for e in range(0, epochs, span):
        w, b = w_epochs[e:e + span], b_epochs[e:e + span]
        out[e:e + len(w)] = hinge_objective(
            xt, np.tile(y, (len(w), 1)), w.transpose(1, 0, 2).reshape(features, -1), b.ravel(), lam
        ).reshape(b.shape)
    return out


def _orders(seeds: Sequence[int], epochs: int, n: int) -> np.ndarray:
    """(epochs, planes, n) row orders: plane p's generator under
    ``seeds[p]`` draws one permutation per epoch, in epoch order."""
    orders = np.empty((epochs, len(seeds), n), dtype=np.int64)
    for p, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for epoch in range(epochs):
            orders[epoch, p] = rng.permutation(n)
    return orders


def _train_planes(
    rows: np.ndarray,
    y: np.ndarray,
    masks: Sequence[np.ndarray],
    plan: Sequence[int],
    seeds: Sequence[int],
    config: SvmConfig,
) -> list[Hyperplane]:
    """Train plane p on labels ``y[p]`` (in {-1, +1}) over the columns of
    ``rows`` that ``masks[plan[p]]`` selects, shuffled under ``seeds[p]``;
    ``plan`` lists the planes of each mask together, in mask order.

    All planes share the step counter; each draws its own permutation for
    every epoch and keeps its epoch-end iterate with the lowest objective.
    The kernel trains a chunk of masks' planes, all epochs, in one
    ``hinge_train`` call, on the columns that some mask selects; the
    objective then scores every epoch-end iterate of each mask's planes
    together, on that mask's columns. Chunks keep the orders of one call
    under ``ORDER_BYTES``.
    """
    n = rows.shape[0]
    epochs = config.epochs
    lam = 1.0 / (config.c * n)
    t0 = float(math.ceil(config.c * n)) if config.step_offset is None else float(config.step_offset)
    union = np.logical_or.reduce(masks)
    x = rows.compress(union, axis=1)
    columns = [mask[union] for mask in masks]
    plan = np.asarray(plan)
    chunk = max(1, ORDER_BYTES // (8 * epochs * n * int(np.bincount(plan).max())))
    out = []
    for first in range(0, len(masks), chunk):
        lo, hi = np.searchsorted(plan, [first, first + chunk])
        selected = np.stack([columns[j] for j in plan[lo:hi]], axis=1)
        w, b = np.zeros(selected.shape), np.zeros(hi - lo)
        w_epochs, b_epochs = np.empty((epochs,) + w.shape), np.empty((epochs, hi - lo))
        hinge_train(x, y[lo:hi], _orders(seeds[lo:hi], epochs, n), selected, w, b, w_epochs,
                    b_epochs, lam, t0, 0)
        objective = np.empty(b_epochs.shape)
        for j in range(first, min(first + chunk, len(masks))):
            a, z = np.searchsorted(plan[lo:hi], [j, j + 1])
            objective[:, a:z] = _epoch_objectives(x.T[columns[j]], y[lo + a:lo + z],
                                                  w_epochs[:, columns[j], a:z], b_epochs[:, a:z], lam)
        best = _best_epochs(objective)
        out += [Hyperplane(w_epochs[e, columns[plan[p]], p - lo], b_epochs[e, p - lo])
                for p, e in zip(range(lo, hi), best)]
    return out


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
