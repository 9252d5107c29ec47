"""Wrapper fitness: projection, rates, the composite formula, and the
cached/traced objective."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmids import selection
from swarmids.classifier import Hyperplane, SvmConfig, SvmModel, train_ova
from swarmids.confusion import ConfusionCounts, binary_attack_confusion, tpr
from swarmids.dataset import Dataset
from swarmids.errors import ConfigError, DataError
from swarmids.selection import (
    WrapperObjective,
    error_rate,
    fitness_split,
    fitness_value,
    mask_fitness,
    project_features,
)


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, 1, (60, 41))
    labels = np.array([0, 1, 2, 3, 4] * 12)
    # Make attack classes separable from Normal on a few columns.
    rows[labels != 0, 0] += 2.0
    rows[labels == 1, 1] += 2.0
    rows[labels == 2, 2] += 2.0
    rows[labels == 3, 3] += 2.0
    rows[labels == 4, 4] += 2.0
    return Dataset(np.clip(rows / 3.0, 0, 1), labels)


class TestProjection:
    def test_all_ones_is_identity(self, small_dataset):
        mask = np.ones(41, dtype=bool)
        view = project_features(small_dataset, mask)
        assert np.array_equal(view.rows, small_dataset.rows)
        assert np.array_equal(view.labels, small_dataset.labels)

    def test_two_columns_preserve_order(self, small_dataset):
        mask = np.zeros(41, dtype=bool)
        mask[0] = mask[40] = True
        view = project_features(small_dataset, mask)
        assert view.rows.shape == (60, 2)
        assert np.array_equal(view.rows[:, 0], small_dataset.rows[:, 0])
        assert np.array_equal(view.rows[:, 1], small_dataset.rows[:, 40])

    def test_popcount_many(self, small_dataset):
        mask = np.zeros(41, dtype=bool)
        mask[:20] = True
        assert project_features(small_dataset, mask).n_features == 20

    def test_empty_mask_rejected(self, small_dataset):
        with pytest.raises(DataError):
            project_features(small_dataset, np.zeros(41, dtype=bool))


class TestRates:
    def test_rate_tp_examples(self):
        # r_tp in the fitness is the attack-pooled tpr.
        assert tpr(ConfusionCounts(tp=90, fn=10, fp=0, tn=0)) == 0.9
        assert tpr(ConfusionCounts(tp=5, fn=0, fp=0, tn=0)) == 1.0
        assert tpr(ConfusionCounts(tp=0, fn=5, fp=0, tn=0)) == 0.0
        assert tpr(ConfusionCounts(tp=0, fn=0, fp=3, tn=3)) == 0.0

    def test_error_rate_examples(self):
        assert error_rate(ConfusionCounts(tp=10, fn=0, fp=0, tn=10)) == 0.0
        assert error_rate(ConfusionCounts(tp=0, fn=5, fp=5, tn=0)) == 1.0
        assert error_rate(ConfusionCounts(tp=45, fn=5, fp=10, tn=40)) == 0.15

    def test_error_rate_empty_rejected(self):
        with pytest.raises(DataError):
            error_rate(ConfusionCounts(0, 0, 0, 0))

    @given(
        tp=st.integers(0, 500), fn=st.integers(0, 500),
        fp=st.integers(0, 500), tn=st.integers(0, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_rates_match_brute_force_recount(self, tp, fn, fp, tn):
        truth = [1] * (tp + fn) + [0] * (fp + tn)
        pred = [1] * tp + [0] * fn + [1] * fp + [0] * tn
        if not truth:
            with pytest.raises(DataError):  # nothing scored is an error, not all zeros
                binary_attack_confusion(np.array(truth), np.array(pred))
            return
        counts = binary_attack_confusion(np.array(truth), np.array(pred))
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (tp, fn, fp, tn)
        if tp + fn:
            assert tpr(counts) == tp / (tp + fn)
        assert error_rate(counts) == (fp + fn) / (tp + fn + fp + tn)


class TestFitnessFormula:
    def test_perfect_classifier_all_features(self):
        assert fitness_value(1.0, 0.0, 41, 41) == 2.0

    def test_worked_example(self):
        assert fitness_value(0.9, 0.05, 20, 41) == pytest.approx(2.3621951219512195, abs=1e-12)

    def test_worst_case(self):
        assert fitness_value(0.0, 1.0, 41, 41) == 0.0

    @given(
        r_tp=st.floats(0, 1), r_e=st.floats(0, 1),
        n_f=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_feature_count(self, r_tp, r_e, n_f):
        assert fitness_value(r_tp, r_e, n_f, 41) > fitness_value(r_tp, r_e, n_f + 1, 41)

    def test_breakdown_recombines_exactly(self, small_dataset):
        fit_idx, val_idx = fitness_split(small_dataset.labels, seed=0)
        mask = np.ones(41, dtype=bool)
        (breakdown,) = mask_fitness(
            [mask], [0], small_dataset.take(fit_idx), small_dataset.take(val_idx),
            SvmConfig(epochs=3),
        )
        expected = breakdown.r_tp + (1.0 - breakdown.r_e) + (1.0 - breakdown.n_f / 41)
        assert breakdown.fitness == expected


class TestBinaryPooling:
    def test_attack_family_confusion_counts_as_tp(self):
        # DoS predicted as Probe still counts as a detected attack.
        truth = np.array([1, 0, 2])
        pred = np.array([2, 0, 2])
        counts = binary_attack_confusion(truth, pred)
        assert counts.tp == 2 and counts.tn == 1 and counts.fp == 0 and counts.fn == 0


def _stub_trainer(decisions):
    def train(dataset, config, masks, seeds):
        return [
            SvmModel(
                tuple(Hyperplane(np.zeros(int(mask.sum())), -d) for d in decisions),
                mask,
            )
            for mask in masks
        ]

    return train


class TestMaskFitness:
    def test_stub_classifier_makes_fitness_pure_in_mask(self, small_dataset, monkeypatch):
        fit_idx, val_idx = fitness_split(small_dataset.labels, seed=1)
        fit_ds, val_ds = small_dataset.take(fit_idx), small_dataset.take(val_idx)
        # Always predicts class 1.
        monkeypatch.setattr(selection, "train_ova", _stub_trainer([0.0, 1.0, 0.0, 0.0, 0.0]))
        config = SvmConfig(epochs=1, seed=0)
        masks = []
        for popcount in (5, 20, 41):
            mask = np.zeros(41, dtype=bool)
            mask[:popcount] = True
            masks.append(mask)
        values = mask_fitness(masks, [0, 1, 2], fit_ds, val_ds, config)
        again = [mask_fitness([m], [0], fit_ds, val_ds, config)[0] for m in masks]
        assert values == again
        # With predictions frozen, only the feature-count term moves.
        assert values[0].r_tp == values[2].r_tp
        assert values[0].fitness > values[1].fitness > values[2].fitness

    def test_model_carries_the_full_mask(self, small_dataset, monkeypatch):
        # Each model mask_fitness scores carries the 41-bit mask it was
        # trained under.
        trained = []

        def spy(*args, **kwargs):
            trained.append(train_ova(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(selection, "train_ova", spy)
        masks = [np.zeros(41, dtype=bool) for _ in range(2)]
        masks[0][[0, 3, 17, 40]] = True
        masks[1][5:9] = True
        fit_idx, val_idx = fitness_split(small_dataset.labels, seed=2)
        mask_fitness(masks, [4, 5], small_dataset.take(fit_idx), small_dataset.take(val_idx),
                     SvmConfig(epochs=2))
        (models,) = trained
        assert [model.mask.tolist() for model in models] == [mask.tolist() for mask in masks]

    def test_degenerate_validation_sets_flag(self):
        rows = np.random.default_rng(0).uniform(0, 1, (40, 41))
        labels = np.array([0, 1] * 20)
        ds = Dataset(rows, labels)
        fit_ds = ds.take(np.arange(30))
        val_idx = np.flatnonzero(ds.labels == 0)[:5]  # Normal-only validation
        (breakdown,) = mask_fitness(
            [np.ones(41, dtype=bool)], [0], fit_ds, ds.take(val_idx), SvmConfig(epochs=2)
        )
        assert breakdown.degenerate
        assert breakdown.r_tp == 0.0


class TestFitnessSplit:
    def test_disjoint_and_stratified(self, small_dataset):
        fit_idx, val_idx = fitness_split(small_dataset.labels, seed=5)
        assert np.intersect1d(fit_idx, val_idx).size == 0
        union = np.sort(np.concatenate([fit_idx, val_idx]))
        assert np.array_equal(union, np.arange(small_dataset.n_rows))
        fit_fraction = fit_idx.size / small_dataset.n_rows
        assert 0.75 <= fit_fraction <= 0.85

    def test_deterministic(self, small_dataset):
        a = fitness_split(small_dataset.labels, seed=5)
        b = fitness_split(small_dataset.labels, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestWrapperObjective:
    def test_zero_fitness_epochs_rejected_on_construction(self, small_dataset):
        with pytest.raises(ConfigError, match="epochs"):
            WrapperObjective(small_dataset, run_seed=1, svm_config=SvmConfig(), fitness_epochs=0)

    def test_cache_serves_repeat_masks(self, small_dataset):
        objective = WrapperObjective(
            small_dataset, run_seed=3, svm_config=SvmConfig(seed=0), fitness_epochs=2
        )
        mask = np.ones(41, dtype=bool)
        first = objective([mask])
        second = objective([mask, mask])
        assert second == first * 2
        assert objective.evaluations == 1

    def test_same_mask_same_value_across_instances(self, small_dataset):
        config = SvmConfig(seed=0)
        mask = np.zeros(41, dtype=bool)
        mask[:7] = True
        a = WrapperObjective(small_dataset, run_seed=9, svm_config=config, fitness_epochs=2)
        b = WrapperObjective(small_dataset, run_seed=9, svm_config=config, fitness_epochs=2)
        assert a([mask]) == b([mask])

    def test_trace_lines_per_evaluation_call(self, small_dataset):
        trace = io.StringIO()
        objective = WrapperObjective(
            small_dataset, run_seed=3, svm_config=SvmConfig(seed=0),
            fitness_epochs=2, trace=trace,
        )
        mask = np.ones(41, dtype=bool)
        objective([mask])
        objective([mask])
        lines = trace.getvalue().strip().splitlines()
        assert lines[0] == "mask,r_tp,r_e,n_f,fitness"
        assert len(lines) == 3  # header + one line per call, cache hits included
        fields = lines[1].split(",")
        assert fields[0] == "1" * 41
        assert fields[3] == "41"


class TestMany:
    def _masks(self):
        rng = np.random.default_rng(6)
        masks = list(rng.random((6, 41)) < 0.4)
        masks[0][:] = True
        masks.append(masks[3].copy())  # duplicate inside the population
        masks.append(masks[0].copy())
        return masks

    def _objective(self, dataset, trace):
        return WrapperObjective(
            dataset, run_seed=4, svm_config=SvmConfig(c=2.0), fitness_epochs=3, trace=trace
        )

    def test_equals_breakdown_per_mask(self, small_dataset):
        masks = self._masks()
        one_trace, many_trace = io.StringIO(), io.StringIO()
        one = self._objective(small_dataset, one_trace)
        batched = self._objective(small_dataset, many_trace)
        # A cache hit before the batch, then the population twice.
        expected = [one.breakdown(masks[5])]
        expected += [one.breakdown(m) for m in masks] + [one.breakdown(m) for m in masks]
        batched.breakdown(masks[5])
        values = batched(masks) + batched(masks)
        assert values == [b.fitness for b in expected[1:]]
        assert many_trace.getvalue() == one_trace.getvalue()
        assert batched.evaluations == one.evaluations == 6
        assert [batched.breakdown(m) for m in masks] == expected[1 : len(masks) + 1]

    def test_empty_population(self, small_dataset):
        objective = self._objective(small_dataset, None)
        assert objective([]) == []
        assert objective.evaluations == 0
