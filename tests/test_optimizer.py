"""Swarm optimizer: kernel function, decay schedule, binary adapter,
mutation operators, and the full run loop."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmids.classifier import SvmConfig
from swarmids.errors import ConfigError, ObjectiveError
from swarmids.optimizer import (
    GoaConfig,
    binarize,
    flip_span,
    history_csv,
    init_swarm,
    mask_to_bitstring,
    reversion_mutation,
    run,
    s_social,
    social_step,
    swap_mutation,
    update_c,
    update_positions,
)
from swarmids.selection import WrapperObjective


def _s_reference(r, f=0.5, l=1.5):
    return f * math.exp(-r / l) - math.exp(-r)


class TestSocialKernel:
    def test_at_zero(self):
        assert s_social(0.0) == pytest.approx(0.5 - 1.0, abs=0)

    def test_at_one_matches_independent_evaluation(self):
        assert s_social(1.0) == pytest.approx(_s_reference(1.0), abs=1e-15)
        assert s_social(1.0) == pytest.approx(-0.1112, abs=5e-5)

    def test_vanishes_at_infinity(self):
        assert abs(s_social(200.0)) < 1e-50

    def test_vectorized(self):
        r = np.array([0.0, 0.5, 1.0, 2.0])
        expected = [_s_reference(v) for v in r]
        assert np.allclose(s_social(r), expected, atol=1e-15)


class TestDecay:
    def test_endpoints_exact(self):
        config = GoaConfig(max_iterations=40, c_max=1.0, c_min=1e-5)
        assert update_c(0, config) == 1.0
        assert update_c(40, config) == 1e-5

    def test_midpoint(self):
        config = GoaConfig(max_iterations=40, c_max=1.0, c_min=1e-5)
        assert update_c(20, config) == pytest.approx(0.500005, abs=1e-12)

    def test_strictly_decreasing(self):
        config = GoaConfig(max_iterations=37, c_max=0.9, c_min=1e-4)
        values = [update_c(t, config) for t in range(38)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        config = GoaConfig(max_iterations=10)
        with pytest.raises(ConfigError):
            update_c(11, config)
        with pytest.raises(ConfigError):
            update_c(-1, config)


class TestBinarize:
    def test_threshold_inclusive(self):
        mask = binarize(np.array([0.9, 0.1, 0.5]), np.random.default_rng(0))
        assert mask.tolist() == [True, False, True]

    def test_all_zero_repaired_to_single_bit(self):
        for seed in range(5):
            position = np.zeros(8)
            mask = binarize(position, np.random.default_rng(seed))
            assert mask.sum() == 1
            assert not position.any()
        # The repaired bit is the rng's first draw.
        index = int(np.random.default_rng(3).integers(8))
        assert np.flatnonzero(binarize(np.zeros(8), np.random.default_rng(3))).tolist() == [index]

    def test_all_ones(self):
        assert binarize(np.ones(5), np.random.default_rng(0)).all()


class TestMutations:
    def test_swap_two_bit_example(self):
        out = swap_mutation(np.array([True, False]), np.random.default_rng(0))
        assert out.tolist() == [False, True]

    def test_swap_of_equal_bits_is_identity(self):
        mask = np.ones(6, dtype=bool)
        out = swap_mutation(mask, np.random.default_rng(1))
        assert np.array_equal(out, mask)

    @given(bits=st.lists(st.booleans(), min_size=2, max_size=41), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_swap_preserves_popcount(self, bits, seed):
        mask = np.array(bits, dtype=bool)
        out = swap_mutation(mask, np.random.default_rng(seed))
        assert out.sum() == mask.sum()

    def test_reversion_span_example(self):
        out = flip_span(np.array([True, False, False, True]), 1, 2)
        assert out.tolist() == [True, True, True, True]

    def test_reversion_full_span_is_involution(self):
        mask = np.array([True, False, True, True, False])
        twice = flip_span(flip_span(mask, 0, 4), 0, 4)
        assert np.array_equal(twice, mask)

    def test_single_index_span_flips_one_bit(self):
        mask = np.zeros(5, dtype=bool)
        out = flip_span(mask, 2, 2)
        assert out.tolist() == [False, False, True, False, False]

    def test_reversion_mutation_deterministic(self):
        mask = np.array([True] * 10 + [False] * 10)
        a = reversion_mutation(mask, np.random.default_rng(3))
        b = reversion_mutation(mask, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_span_bounds_checked(self):
        with pytest.raises(ConfigError):
            flip_span(np.zeros(4, dtype=bool), 2, 1)


class TestBitstrings:
    def test_mask_to_bitstring(self):
        assert mask_to_bitstring(np.array([True, False, True])) == "101"
        assert mask_to_bitstring(np.array([0, 1, 1, 0])) == "0110"


class TestInitSwarm:
    def test_shapes_and_bounds(self):
        config = GoaConfig(population_size=30, dim=41, seed=0)
        positions, masks = init_swarm(config, np.random.default_rng(0))
        assert positions.shape == (30, 41)
        assert positions.min() >= 0.0 and positions.max() <= 1.0
        assert masks.shape == (30, 41)

    def test_deterministic(self):
        config = GoaConfig(population_size=10, dim=7, seed=42)
        (a_positions, a_masks), (b_positions, b_masks) = (
            init_swarm(config, np.random.default_rng(42)) for _ in range(2)
        )
        assert np.array_equal(a_positions, b_positions)
        assert np.array_equal(a_masks, b_masks)

    def test_roughly_half_bits_set(self):
        config = GoaConfig(population_size=30, dim=41, seed=1)
        _, masks = init_swarm(config, np.random.default_rng(1))
        fraction = masks.mean()
        assert 0.4 <= fraction <= 0.6


class TestSocialStep:
    def test_collapsed_swarm_is_fixed_point(self):
        config = GoaConfig(population_size=4, dim=3)
        best = np.array([0.3, 0.6, 0.9])
        positions = np.tile(best, (4, 1))
        moved = social_step(positions, best, c=0.7, config=config)
        assert np.array_equal(moved, positions)

    def test_output_clamped_to_bounds(self):
        config = GoaConfig(population_size=6, dim=5)
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1, (6, 5))
        moved = social_step(positions, positions[0], c=5.0, config=config)
        assert moved.min() >= 0.0 and moved.max() <= 1.0

    def test_two_member_scalar_hand_evaluation(self):
        # Independent scalar evaluation of the update for dim 1:
        # x_i' = c * (c * ((ub-lb)/2) * s(|x_j - x_i|) * (x_j - x_i)/d_ij) + best
        config = GoaConfig(population_size=2, dim=1)
        x1, x2, best, c = 0.2, 0.7, 0.7, 0.5
        d = abs(x2 - x1)
        s = _s_reference(d)
        expected_1 = c * (c * 0.5 * s * (x2 - x1) / d) + best
        expected_2 = c * (c * 0.5 * s * (x1 - x2) / d) + best
        moved = social_step(np.array([[x1], [x2]]), np.array([best]), c, config)
        assert moved[0, 0] == pytest.approx(expected_1, abs=1e-9)
        assert moved[1, 0] == pytest.approx(expected_2, abs=1e-9)

    def test_update_positions_rebinarizes(self):
        config = GoaConfig(population_size=5, dim=6, seed=0, swap_prob=0.0, reversion_prob=0.0)
        rng = np.random.default_rng(0)
        positions, _ = init_swarm(config, rng)
        positions, masks = update_positions(positions, positions[0], 0.5, config, rng)
        for i in range(config.population_size):
            assert np.array_equal(masks[i], positions[i] >= 0.5)


def _per_mask(fn):
    """A population objective that scores each mask with ``fn``."""
    return lambda masks: [fn(mask) for mask in masks]


def _hash_objective(salt):
    def objective(mask):
        digest = hashlib.blake2b(
            (mask_to_bitstring(mask) + f"|{salt}").encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    return _per_mask(objective)


class TestRun:
    def test_popcount_converges_to_all_ones(self):
        config = GoaConfig(
            population_size=30, dim=41, max_iterations=300,
            fitness_delta_stop=0.0, seed=0,
        )
        result = run(_per_mask(lambda m: float(m.sum()) / m.size), config)
        assert result.best_fitness == 1.0
        assert result.best_mask.all()

    def test_single_iteration_history(self):
        config = GoaConfig(population_size=5, dim=8, max_iterations=1, seed=0)
        result = run(_hash_objective(0), config)
        assert len(result.history) == 1
        assert result.stop_reason == "max_iterations"

    def test_small_improvement_triggers_delta_stop(self):
        config = GoaConfig(population_size=4, dim=6, max_iterations=50, seed=0)
        calls = {"n": 0}

        def creeping(masks):
            iteration = calls["n"]
            calls["n"] += 1
            return [0.5 + 0.0005 * iteration] * len(masks)

        result = run(creeping, config)
        assert result.stop_reason == "fitness_delta"
        assert len(result.history) == 2
        assert result.history[1].best_fitness - result.history[0].best_fitness == pytest.approx(0.0005)

    def test_stagnation_triggers_delta_stop(self):
        config = GoaConfig(population_size=4, dim=6, max_iterations=50, seed=1)
        result = run(_per_mask(lambda m: 0.25), config)
        assert result.stop_reason == "fitness_delta"
        assert len(result.history) == 2

    def test_history_monotone_on_random_objectives(self):
        for salt in range(20):
            config = GoaConfig(
                population_size=6, dim=10, max_iterations=15,
                fitness_delta_stop=0.0, seed=salt,
            )
            result = run(_hash_objective(salt), config)
            best_values = [rec.best_fitness for rec in result.history]
            assert all(a <= b for a, b in zip(best_values, best_values[1:]))

    def test_mutation_free_runs_identical(self):
        config = GoaConfig(
            population_size=8, dim=12, max_iterations=10,
            fitness_delta_stop=0.0, swap_prob=0.0, reversion_prob=0.0, seed=77,
        )
        a = run(_hash_objective(1), config)
        b = run(_hash_objective(1), config)
        assert a.history == b.history
        assert np.array_equal(a.best_mask, b.best_mask)

    def test_masks_never_empty(self):
        config = GoaConfig(population_size=10, dim=5, max_iterations=20,
                           fitness_delta_stop=0.0, seed=3)
        seen = []

        def objective(masks):
            seen.extend(int(mask.sum()) for mask in masks)
            return [0.1] * len(masks)

        run(objective, config)
        assert min(seen) >= 1

    def test_objective_failure_carries_mask(self):
        config = GoaConfig(population_size=4, dim=6, seed=0)

        def broken(masks):
            raise ValueError("boom")

        with pytest.raises(ObjectiveError) as err:
            run(broken, config)
        assert set(err.value.mask_bits) <= {"0", "1"}
        assert len(err.value.mask_bits) == 6

    def test_objective_called_once_per_iteration(self):
        config = GoaConfig(population_size=5, dim=8, max_iterations=7,
                           fitness_delta_stop=0.0, seed=2)
        sizes = []

        def objective(masks):
            sizes.append(len(masks))
            return _hash_objective(3)(masks)

        result = run(objective, config)
        assert len(result.history) == 7
        assert sizes == [5] * 7

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_wrong_length_result_raises(self, extra):
        config = GoaConfig(population_size=4, dim=6, seed=0)
        with pytest.raises(ObjectiveError) as err:
            run(lambda masks: [0.5] * (len(masks) + extra), config)
        assert err.value.mask_bits is None
        assert f"{4 + extra} values for 4 masks" in str(err.value)

    def test_many_gives_the_same_result(self, synth_dataset):
        # Scoring a population in one WrapperObjective call (distinct masks
        # trained together) must not change the search against scoring one
        # breakdown per mask (each mask trained alone).
        config = GoaConfig(population_size=6, dim=41, max_iterations=6,
                           fitness_delta_stop=0.0, seed=5)
        objectives = [WrapperObjective(synth_dataset, run_seed=1, svm_config=SvmConfig(),
                                       fitness_epochs=2) for _ in range(2)]
        a = run(_per_mask(lambda m: objectives[0].breakdown(m).fitness), config)
        b = run(objectives[1], config)
        assert a.history == b.history and a.stop_reason == b.stop_reason
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_mask, b.best_mask)
        assert objectives[0].evaluations == objectives[1].evaluations

    def test_many_failure_names_the_failing_mask(self):
        config = GoaConfig(population_size=4, dim=6, seed=0)
        # run draws the first population from a generator seeded with config.seed.
        _, population = init_swarm(config, np.random.default_rng(config.seed))
        bad = mask_to_bitstring(population[2])

        def broken(masks):
            if any(mask_to_bitstring(mask) == bad for mask in masks):
                raise ValueError("boom")
            return [0.5] * len(masks)

        with pytest.raises(ObjectiveError) as err:
            run(broken, config)
        assert err.value.mask_bits == bad
        assert "boom" in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_fitness_raises(self, value):
        config = GoaConfig(population_size=4, dim=6, seed=0)
        _, population = init_swarm(config, np.random.default_rng(config.seed))
        bad = mask_to_bitstring(population[1])

        def objective(masks):
            return [value if mask_to_bitstring(m) == bad else 0.5 for m in masks]

        with pytest.raises(ObjectiveError) as err:
            run(objective, config)
        assert err.value.mask_bits == bad
        assert "not finite" in str(err.value)

    def test_pinned_run_with_both_mutations(self):
        # Pins the result of a run whose swap gate and reversion gate both
        # fire; one reversion empties a mask after iteration 3, so the
        # repair draw is pinned too. A reordered rng draw changes it.
        config = GoaConfig(population_size=6, dim=6, max_iterations=12, fitness_delta_stop=0.0,
                           swap_prob=0.5, reversion_prob=1.0, seed=26)
        result = run(_hash_objective(26), config)
        history = [(rec.iteration, rec.best_fitness, rec.best_popcount) for rec in result.history]
        assert history == [
            (1, 0.898836778738775, 3), (2, 0.898836778738775, 3),
            (3, 0.9179243426014746, 5), (4, 0.9179243426014746, 5),
            (5, 0.9577419179065307, 4),
            *((t, 0.9798129651302293, 2) for t in range(6, 13)),
        ]
        assert [rec.c for rec in result.history] == [update_c(t, config) for t in range(12)]
        assert mask_to_bitstring(result.best_mask) == "010001"
        assert result.best_fitness == 0.9798129651302293
        assert result.stop_reason == "max_iterations"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GoaConfig(population_size=1)
        with pytest.raises(ConfigError):
            GoaConfig(c_min=2.0, c_max=1.0)
        with pytest.raises(ConfigError):
            GoaConfig(swap_prob=1.5)

    def test_replace_is_checked(self):
        with pytest.raises(ConfigError, match="population_size"):
            replace(GoaConfig(), population_size=1)

    @pytest.mark.parametrize("c_max", [1.0 + 1e-9, 2.0, 1e200])
    def test_c_max_above_one_rejected(self, c_max):
        with pytest.raises(ConfigError, match="c_max must be at most 1"):
            GoaConfig(c_max=c_max)
        assert GoaConfig(c_max=1.0, c_min=0.5).c_max == 1.0


def test_history_csv_format():
    config = GoaConfig(population_size=4, dim=6, max_iterations=3,
                       fitness_delta_stop=0.0, seed=0)
    result = run(_hash_objective(5), config)
    text = history_csv(result.history)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,c,best_fitness,best_popcount"
    assert len(lines) == len(result.history) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 1.0  # c starts at c_max


class TestPinnedDefaults:
    def test_goa_defaults(self):
        config = GoaConfig()
        assert config.max_iterations == 40
        assert config.fitness_delta_stop == 1e-3
        assert config.c_max == 1.0
        assert config.c_min == 1e-5
        assert config.s_f == 0.5
        assert config.s_l == 1.5
        assert config.population_size == 30

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=41))
    @settings(max_examples=50, deadline=None)
    def test_binarize_of_written_back_mask_is_identity(self, bits):
        mask = np.array(bits, dtype=bool)
        if not mask.any():
            mask[0] = True
        written = mask.astype(np.float64)  # the 1.0/0.0 write-back
        assert np.array_equal(binarize(written, np.random.default_rng(0)), mask)
