"""Binary grasshopper-style swarm optimization over feature masks.

Each agent's next position in the unit box is a socially weighted sum of
pairwise interactions plus attraction to the best position found so far,
under a linearly decaying coefficient. Positions are thresholded at 0.5
into masks, and SWAP / span-reversal diversity operators mutate them;
equal-fitness incumbent updates let the swarm drift across plateaus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ObjectiveError


@dataclass(frozen=True)
class GoaConfig:
    """Swarm parameters, checked on construction (``replace`` included).
    Positions live in the unit box [0, 1]^dim."""

    population_size: int = 30
    dim: int = 41
    max_iterations: int = 40
    fitness_delta_stop: float = 1e-3
    c_max: float = 1.0
    c_min: float = 1e-5
    s_f: float = 0.5
    s_l: float = 1.5
    swap_prob: float = 0.2
    reversion_prob: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("population_size must be at least 2")
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if not self.fitness_delta_stop >= 0:
            raise ConfigError(
                f"fitness_delta_stop must not be negative, got {self.fitness_delta_stop}"
            )
        for name in ("c_max", "c_min", "s_f", "s_l"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.s_l > 0:
            raise ConfigError(f"s_l must be positive, got {self.s_l}")
        # social_step scales by c twice; the GOA paper's c_max is 1.
        if not self.c_max <= 1.0:
            raise ConfigError(f"c_max must be at most 1, got {self.c_max}")
        if not self.c_min < self.c_max:
            raise ConfigError("c_min must be strictly below c_max")
        for name in ("swap_prob", "reversion_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")


class IterationRecord(NamedTuple):
    iteration: int
    c: float
    best_fitness: float
    best_popcount: int


@dataclass(frozen=True)
class GoaResult:
    best_mask: np.ndarray
    best_fitness: float
    history: tuple[IterationRecord, ...]
    stop_reason: str


def mask_to_bitstring(mask: np.ndarray) -> str:
    return "".join("1" if bit else "0" for bit in np.asarray(mask, dtype=bool))


def s_social(r, f: float = 0.5, l: float = 1.5):
    """Social interaction kernel f*exp(-r/l) - exp(-r): short-range
    repulsion, long-range attraction, s(0) = f - 1."""
    r = np.asarray(r, dtype=np.float64)
    out = f * np.exp(-r / l) - np.exp(-r)
    return float(out) if out.ndim == 0 else out


def update_c(t: int, config: GoaConfig) -> float:
    """Linear decay from c_max at t=0 to exactly c_min at t=max_iterations."""
    if not 0 <= t <= config.max_iterations:
        raise ConfigError(f"iteration {t} outside [0, {config.max_iterations}]")
    if t == config.max_iterations:
        return config.c_min
    return config.c_max - (t / config.max_iterations) * (config.c_max - config.c_min)


def _repair(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Set one uniformly random bit of an all-zero mask, in place; a
    non-empty mask draws nothing."""
    if not mask.any():
        mask[int(rng.integers(mask.size))] = True
    return mask


def binarize(position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Threshold at 0.5 (inclusive); an all-zero result is repaired by
    setting one uniformly random bit."""
    return _repair(np.asarray(position, dtype=np.float64) >= 0.5, rng)


def swap_mutation(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exchange the bits at two distinct uniformly chosen positions."""
    out = np.asarray(mask, dtype=bool).copy()
    i, j = rng.choice(out.size, size=2, replace=False)
    out[[i, j]] = out[[j, i]]
    return out


def flip_span(mask: np.ndarray, i: int, j: int) -> np.ndarray:
    """Invert every bit in positions [i, j] inclusive."""
    if not 0 <= i <= j < mask.size:
        raise ConfigError(f"span ({i}, {j}) out of range for {mask.size} bits")
    out = np.asarray(mask, dtype=bool).copy()
    out[i : j + 1] = ~out[i : j + 1]
    return out


def reversion_mutation(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Invert a random span: start uniform, end uniform from the start.

    Single-index spans flip one bit, so the operator doubles as a local
    refinement move alongside its long-range jumps.
    """
    mask = np.asarray(mask, dtype=bool)
    i = int(rng.integers(mask.size))
    j = int(rng.integers(i, mask.size))
    return flip_span(mask, i, j)


def init_swarm(config: GoaConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random positions in the unit box, and their binarized masks."""
    positions = rng.uniform(0.0, 1.0, (config.population_size, config.dim))
    return positions, np.stack([binarize(p, rng) for p in positions])


# Pairs of members closer than this exert no force on each other.
_MIN_DISTANCE = 1e-12


def social_step(
    positions: np.ndarray, best_position: np.ndarray, c: float, config: GoaConfig
) -> np.ndarray:
    """One synchronous position update:

        x_i <- c * sum_j c * (ub-lb)/2 * s(|x_j - x_i|) * (x_j - x_i)/d_ij
               + best

    with (ub-lb)/2 = 0.5 in the unit box and pairs closer than
    ``_MIN_DISTANCE`` skipped, then clamped to the box.
    """
    diff = positions[None, :, :] - positions[:, None, :]  # diff[i, j] = x_j - x_i
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    keep = dist >= _MIN_DISTANCE
    np.fill_diagonal(keep, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = 0.5 * s_social(dist, config.s_f, config.s_l)[:, :, None] * diff / dist[:, :, None]
    terms[~keep] = 0.0
    moved = c * (c * terms.sum(axis=1)) + best_position[None, :]
    return np.clip(moved, 0.0, 1.0)


def update_positions(
    positions: np.ndarray,
    best_position: np.ndarray,
    c: float,
    config: GoaConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """New positions and masks: the social step moves every member, whose
    position is then re-binarized and mutated.

    Mutated masks are written back into positions as 0.0/1.0 so the
    mutation survives the next binarization. RNG draws happen in member
    order: binarize repair, swap gate (+indices), reversion gate
    (+span), empty-mask repair.
    """
    positions = social_step(positions, best_position, c, config)
    masks = np.empty(positions.shape, dtype=bool)
    for i, position in enumerate(positions):
        mask = binarize(position, rng)
        mutated = False
        if rng.random() < config.swap_prob:
            mask = swap_mutation(mask, rng)
            mutated = True
        if rng.random() < config.reversion_prob:
            mask = reversion_mutation(mask, rng)
            mutated = True
        masks[i] = _repair(mask, rng)
        if mutated:
            positions[i] = masks[i]
    return positions, masks


Objective = Callable[[Sequence[np.ndarray]], Sequence[float]]


def _evaluate(objective: Objective, masks: np.ndarray) -> list[float]:
    """Fitness of every member, in member order, from one objective call."""
    try:
        values = [float(value) for value in objective([mask.copy() for mask in masks])]
    except Exception as exc:  # noqa: BLE001 - re-raised with context
        # Name the member that fails on its own.
        for mask in masks:
            try:
                objective([mask.copy()])
            except Exception as member_exc:  # noqa: BLE001 - re-raised with context
                raise ObjectiveError(mask_to_bitstring(mask), member_exc) from member_exc
        raise ObjectiveError(mask_to_bitstring(masks[0]), exc) from exc
    if len(values) != len(masks):
        raise ObjectiveError(None, f"{len(values)} values for {len(masks)} masks")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ObjectiveError(mask_to_bitstring(masks[i]), f"fitness {values[i]!r} is not finite")
    return values


def run(objective: Objective, config: GoaConfig) -> GoaResult:
    """Maximize ``objective`` over non-empty binary masks.

    ``objective(masks) -> values`` scores a population: it gets copies of
    the members' masks in member order and returns one fitness per mask,
    in that order. ``run`` calls it once per iteration. If the call
    raises, each member is scored alone so the ``ObjectiveError`` names a
    mask that fails; a result of the wrong length, or a value that is not
    finite (named by its first such mask), is an ``ObjectiveError`` too.

    Stops at ``max_iterations`` or when the best fitness improves by less
    than ``fitness_delta_stop`` between consecutive iterations (checked
    once two iterations exist). History records one row per iteration and
    is monotone non-decreasing in best fitness.
    """
    rng = np.random.default_rng(config.seed)
    positions, masks = init_swarm(config, rng)
    best_fitness, best_position, best_mask = -np.inf, None, None
    history: list[IterationRecord] = []
    stop_reason = "max_iterations"
    for t in range(1, config.max_iterations + 1):
        c = update_c(t - 1, config)
        previous = best_fitness
        for i, value in enumerate(_evaluate(objective, masks)):
            # >= lets the incumbent drift across equal-fitness plateaus.
            if value >= best_fitness:
                best_fitness = value
                best_position, best_mask = positions[i].copy(), masks[i].copy()
        history.append(IterationRecord(t, c, best_fitness, int(best_mask.sum())))
        if t > 1 and best_fitness - previous < config.fitness_delta_stop:
            stop_reason = "fitness_delta"
            break
        if t < config.max_iterations:
            positions, masks = update_positions(positions, best_position, c, config, rng)
    return GoaResult(best_mask, best_fitness, tuple(history), stop_reason)


def history_csv(history: Sequence[IterationRecord]) -> str:
    """Render history rows as CSV (iteration, c, best_fitness, best_popcount)."""
    lines = ["iteration,c,best_fitness,best_popcount"]
    for rec in history:
        lines.append(f"{rec.iteration},{float(rec.c)!r},{float(rec.best_fitness)!r},{rec.best_popcount}")
    return "\n".join(lines) + "\n"
