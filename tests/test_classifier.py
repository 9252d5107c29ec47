"""Linear SVM training, decision geometry, and one-vs-all."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmids
from swarmids import classifier
from swarmids.classifier import (
    Hyperplane,
    SvmConfig,
    SvmModel,
    decision_values,
    hinge_objective,
    margin,
    predict,
    train_binary,
    train_ova,
)
from swarmids.dataset import CLASS_NAMES, Dataset
from swarmids.errors import ConfigError, TrainingError
from swarmids.seeds import derive_seed


def _two_point_toy():
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([-1.0, 1.0])
    return x, y


def _separable_twenty(seed=42, gap=2.5, spread=0.5):
    rng = np.random.default_rng(seed)
    pos = rng.normal([gap, 0.0], spread, (10, 2))
    neg = rng.normal([-gap, 0.0], spread, (10, 2))
    x = np.vstack([pos, neg])
    y = np.array([1.0] * 10 + [-1.0] * 10)
    return x, y


class TestTrainBinary:
    def test_symmetric_toy_recovers_unit_plane(self):
        x, y = _two_point_toy()
        plane = train_binary(x, y, SvmConfig(c=1.0, epochs=150, seed=0))
        assert abs(margin(plane) - 2.0) <= 0.2
        assert plane.w[0] > 0
        assert abs(plane.b) <= 0.2

    def test_label_negation_negates_plane_exactly(self):
        x, y = _separable_twenty()
        config = SvmConfig(c=2.0, epochs=30, seed=5)
        plane = train_binary(x, y, config)
        mirrored = train_binary(x, -y, config)
        assert np.array_equal(mirrored.w, -plane.w)
        assert mirrored.b == -plane.b

    def test_separable_set_reaches_perfect_accuracy(self):
        x, y = _separable_twenty()
        # Independent separability check: the x-axis direction splits the
        # classes with a strictly positive gap.
        assert x[y > 0, 0].min() > x[y < 0, 0].max()
        plane = train_binary(x, y, SvmConfig(c=10.0, epochs=300, seed=1))
        predictions = np.sign(x @ plane.w - plane.b)
        assert np.array_equal(predictions, y)

    def test_constraint_satisfaction_within_slack(self):
        x, y = _separable_twenty()
        plane = train_binary(x, y, SvmConfig(c=10.0, epochs=300, seed=1))
        values = x @ plane.w - plane.b
        assert values[y > 0].min() >= 1.0 - 0.05
        assert values[y < 0].max() <= -1.0 + 0.05

    def test_single_class_rejected(self):
        x = np.ones((4, 2))
        with pytest.raises(TrainingError):
            train_binary(x, np.ones(4), SvmConfig())

    def test_bad_labels_rejected(self):
        x = np.ones((2, 2))
        with pytest.raises(TrainingError):
            train_binary(x, np.array([0.0, 1.0]), SvmConfig())

    def test_deterministic_under_seed(self):
        x, y = _separable_twenty()
        config = SvmConfig(c=1.0, epochs=20, seed=9)
        a = train_binary(x, y, config)
        b = train_binary(x, y, config)
        assert np.array_equal(a.w, b.w)
        assert a.b == b.b

    def test_final_objective_never_worse_than_first_epoch(self):
        x, y = _separable_twenty(seed=3)
        first = train_binary(x, y, SvmConfig(c=1.0, epochs=1, seed=4))
        full = train_binary(x, y, SvmConfig(c=1.0, epochs=25, seed=4))
        assert _objective(x, y, full, 1.0) <= _objective(x, y, first, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, value):
        # A NaN margin compares false, so the row would count as satisfied.
        x, y = _separable_twenty()
        x[3, 1] = value
        with pytest.raises(TrainingError, match="finite"):
            train_binary(x, y, SvmConfig(epochs=2))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SvmConfig(c=0.0)
        with pytest.raises(ConfigError):
            SvmConfig(epochs=0)
        with pytest.raises(ConfigError):
            replace(SvmConfig(), c=math.inf)

    def test_negative_step_offset_rejected(self):
        # eta = 1/(lam*(t0+t)) divides by zero at t0 = -1.
        with pytest.raises(ConfigError, match="step_offset"):
            SvmConfig(step_offset=-1)
        SvmConfig(step_offset=0.0)


def _objective(x, y, plane, c):
    """The objective of one plane on rows ``x``, through the batched
    ``hinge_objective`` with lam = 1/(C*N)."""
    (value,) = hinge_objective(np.ascontiguousarray(x.T), y[None], plane.w[:, None],
                               np.array([plane.b]), 1.0 / (c * x.shape[0]))
    return value


class TestHingeObjective:
    @pytest.mark.parametrize("planes", [1, 2, 5])
    def test_batch_equals_each_plane_alone(self, planes):
        # 41 features and 257 rows are past numpy's 8-wide pairwise blocks,
        # so a sum whose order depends on the batch width shows here; lam = 1
        # keeps the regularizer's last bits in the objective.
        rng = np.random.default_rng(planes)
        xt = rng.normal(size=(41, 257))
        y = np.where(rng.random((planes, 257)) < 0.5, -1.0, 1.0)
        w, b = rng.normal(size=(41, planes)), rng.normal(size=planes)
        batch = hinge_objective(xt, y, w, b, 1.0)
        assert batch.shape == (planes,)
        for p in range(planes):
            (alone,) = hinge_objective(xt, y[p:p + 1], w[:, p:p + 1], b[p:p + 1], 1.0)
            assert batch[p].tobytes() == alone.tobytes()
        hinge = np.maximum(0.0, 1.0 - y * (w.T @ xt - b[:, None]))
        expected = 0.5 * (w ** 2).sum(axis=0) + hinge.mean(axis=1)
        np.testing.assert_allclose(batch, expected, rtol=1e-12)


BLAS_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from swarmids.classifier import Hyperplane, SvmModel, decision_values, hinge_objective
    rng = np.random.default_rng(0)
    x = rng.random((64, 9))
    w, b = rng.normal(size=(9, 5)), rng.normal(size=5)
    y = np.where(rng.random((5, 64)) < 0.5, -1.0, 1.0)
    model = SvmModel(tuple(Hyperplane(w[:, k], b[k]) for k in range(5)), np.ones(9, dtype=bool))
    for values in (x @ w, decision_values(model, x),
                   hinge_objective(np.ascontiguousarray(x.T), y, w, b, 0.01)):
        print(hashlib.sha256(values.tobytes()).hexdigest())
""")


def test_bytes_do_not_depend_on_blas_core_type():
    # OpenBLAS picks its kernel for the CPU at run time, and the kernels
    # round differently; OPENBLAS_CORETYPE forces one, in the child only.
    # The probe's own x @ w shows whether the variable took effect.
    src = str(Path(swarmids.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for core in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                              text=True, timeout=120, env={**env, **core})
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    (blas, *ours), (blas_prescott, *ours_prescott) = digests
    if blas == blas_prescott:
        pytest.skip("this numpy's BLAS rounds the same under every core type")
    assert ours == ours_prescott


def decision(plane, x):
    """w.x - b of one plane for one vector, through ``decision_values``."""
    planes = (plane,) + (None,) * (len(CLASS_NAMES) - 1)
    model = SvmModel(planes, np.ones(plane.w.shape[0], dtype=bool))
    return float(decision_values(model, x)[0, 0])


class TestDecisionGeometry:
    def test_dot_product(self):
        plane = Hyperplane(np.array([1.0, 0.0]), 0.0)
        assert decision(plane, np.array([3.0, 7.0])) == 3.0

    def test_point_on_positive_plane_is_exactly_one(self):
        plane = Hyperplane(np.array([2.0, 0.0]), 1.0)
        assert decision(plane, np.array([1.0, 5.0])) == 1.0

    def test_zero_plane(self):
        plane = Hyperplane(np.zeros(3), 0.0)
        assert decision(plane, np.array([4.0, 5.0, 6.0])) == 0.0

    def test_dimension_mismatch(self):
        plane = Hyperplane(np.ones(2), 0.0)
        with pytest.raises(TrainingError):
            decision(plane, np.ones(3))

    def test_linearity_of_decision(self):
        rng = np.random.default_rng(0)
        plane = Hyperplane(rng.normal(size=5), 0.7)
        x, y = rng.normal(size=5), rng.normal(size=5)
        alpha, beta = 1.7, -0.4
        combined = decision(plane, alpha * x + beta * y)
        expected = (
            alpha * decision(plane, x)
            + beta * decision(plane, y)
            + (alpha + beta - 1.0) * plane.b
        )
        assert combined == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "w,expected", [((2.0, 0.0), 1.0), ((1.0, 0.0), 2.0), ((3.0, 4.0), 0.4)]
    )
    def test_margin_values(self, w, expected):
        assert margin(Hyperplane(np.array(w), 0.0)) == pytest.approx(expected)

    def test_margin_zero_vector_rejected(self):
        with pytest.raises(TrainingError):
            margin(Hyperplane(np.zeros(2), 0.0))


def _five_class_dataset(seed=0, n_per_class=30):
    rng = np.random.default_rng(seed)
    centers = np.array(
        [[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8], [0.5, 0.5]]
    )
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(rng.normal(center, 0.06, (n_per_class, 2)))
        labels += [cls] * n_per_class
    return Dataset(np.vstack(rows), np.array(labels))


def _ova(dataset, config):
    """The one-vs-all model of all columns under ``config.seed``."""
    (model,) = train_ova(dataset, config, [np.ones(dataset.n_features, dtype=bool)], [config.seed])
    return model


class TestOneVsAll:
    def test_five_classes_five_planes(self):
        model = _ova(_five_class_dataset(), SvmConfig(epochs=10, seed=0))
        assert len(model.planes) == 5
        assert all(p is not None for p in model.planes)

    def test_two_class_reduces_to_binary_sign(self):
        ds = _five_class_dataset()
        keep = ds.labels < 2
        two = Dataset(ds.rows[keep], ds.labels[keep])
        model = _ova(two, SvmConfig(epochs=20, seed=1))
        values = decision_values(model, two.rows)
        predictions = predict(model, two.rows)
        assert np.array_equal(predictions, np.argmax(values, axis=1))
        assert set(np.unique(predictions)) <= {0, 1}

    def test_absent_class_never_predicted(self):
        ds = _five_class_dataset()
        keep = ds.labels != 2
        partial = Dataset(ds.rows[keep], ds.labels[keep])
        model = _ova(partial, SvmConfig(epochs=10, seed=2))
        assert model.planes[2] is None
        predictions = predict(model, ds.rows)
        assert not np.any(predictions == 2)

    def test_single_class_rejected(self):
        ds = _five_class_dataset()
        keep = ds.labels == 0
        with pytest.raises(TrainingError):
            _ova(Dataset(ds.rows[keep], ds.labels[keep]), SvmConfig())

    def test_training_accuracy_on_separated_clusters(self):
        # The middle cluster is not linearly separable one-vs-rest, so a
        # large C is needed to push past its hinge losses.
        ds = _five_class_dataset()
        model = _ova(ds, SvmConfig(c=50.0, epochs=100, seed=3))
        accuracy = np.mean(predict(model, ds.rows) == ds.labels)
        assert accuracy >= 0.97


def _signed_dataset(seed=0, features=6, absent=()):
    """Five-class rows with negative, zero and positive features."""
    rng = np.random.default_rng(seed)
    labels = np.arange(100) % 5
    rows = rng.normal(size=(100, features)) + labels[:, None] * 0.3
    rows[rng.random(rows.shape) < 0.1] = 0.0
    keep = ~np.isin(labels, absent)
    return Dataset(rows[keep], labels[keep])


class TestTrainOvaMany:
    """``train_ova`` over several masks (partial masks over the projected
    columns) against the same masks one at a time (every plane selects
    every projected column)."""

    @pytest.mark.parametrize("absent", [(), (3,)], ids=["all-classes", "class-absent"])
    @pytest.mark.parametrize("step_offset", [None, 0.0, 7.0])
    def test_equals_train_ova_per_mask(self, absent, step_offset):
        ds = _signed_dataset(absent=absent)
        masks = [np.array(bits, dtype=bool) for bits in
                 ([1, 1, 1, 1, 1, 1], [0, 1, 0, 0, 1, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 1])]
        seeds = [11, 12, 13, 14]
        config = SvmConfig(c=2.0, epochs=4, step_offset=step_offset)
        models = train_ova(ds, config, masks, seeds)
        assert len(models) == len(masks)
        for mask, seed, model in zip(masks, seeds, models):
            (expected,) = train_ova(ds, config, [mask], [seed])
            assert np.array_equal(model.mask, mask) and np.array_equal(expected.mask, mask)
            for got, want in zip(model.planes, expected.planes):
                if want is None:
                    assert got is None
                else:
                    assert got.w.tobytes() == want.w.tobytes() and got.b == want.b
        assert (models[2].planes[3] is None) == bool(absent)

    def test_one_mask(self):
        # One mask trains each class plane as train_binary does on the
        # projected columns, under the per-class seed.
        ds = _signed_dataset(seed=1)
        mask = np.array([0, 0, 1, 0, 1, 0], dtype=bool)
        (model,) = train_ova(ds, SvmConfig(epochs=3), [mask], [5])
        for k, plane in enumerate(model.planes):
            labels = np.where(ds.labels == k, 1.0, -1.0)
            expected = train_binary(ds.rows[:, mask], labels,
                                    SvmConfig(epochs=3, seed=derive_seed(5, "ova", k)))
            assert plane.w.tobytes() == expected.w.tobytes() and plane.b == expected.b

    @pytest.mark.parametrize("masks_per_chunk", [1, 2])
    def test_chunks_train_the_same_planes(self, monkeypatch, masks_per_chunk):
        # Orders past the byte budget split the masks into chunks, and
        # objective batches past theirs split the epochs; both train to the
        # same bytes as one call. One mask's orders take 8 bytes x 4 epochs
        # x 100 rows x 5 planes, and one epoch of its objective 8 x 100 x 5.
        ds = _signed_dataset(seed=2)
        masks = [np.array(bits, dtype=bool) for bits in
                 ([0, 1, 0, 0, 1, 1], [1, 1, 1, 1, 1, 1], [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 1],
                  [0, 0, 1, 0, 0, 0])]
        config = SvmConfig(epochs=4)
        whole = train_ova(ds, config, masks, range(5))
        monkeypatch.setattr(classifier, "ORDER_BYTES", masks_per_chunk * 8 * 4 * 100 * 5)
        monkeypatch.setattr(classifier, "SCORE_BYTES", masks_per_chunk * 8 * 100 * 5)
        chunked = train_ova(ds, config, masks, range(5))
        for a, b in zip(whole, chunked):
            assert [(p.w.tobytes(), p.b) for p in a.planes] == [(p.w.tobytes(), p.b) for p in b.planes]

    def test_best_epoch_rule_matches_loop(self, monkeypatch):
        # The kept epoch of each plane, picked from all epoch-end objectives
        # at once, is the one the former per-epoch loop kept: epoch 0 first,
        # then any later epoch strictly lower than the best so far. So ties
        # keep the earliest epoch, and a NaN wins only at epoch 0.
        nan = math.nan
        first = np.array([[2, 1, nan, 0, 3], [1, 1, 0, 1, nan], [1, 1, -1, nan, 2], [0.5, 1, -2, 0, 2]])
        rng = np.random.default_rng(0)
        second = rng.integers(0, 3, size=first.shape).astype(float)
        second[rng.random(second.shape) < 0.2] = nan
        planned, calls = [first, second], []

        def fake_objective(xt, y, w, b, lam):
            calls.append((w.copy(), b.copy()))
            return planned[len(calls) - 1].ravel().copy()

        monkeypatch.setattr(classifier, "hinge_objective", fake_objective)
        masks = [np.array([1, 0, 1, 1, 0, 1], dtype=bool), np.array([0, 1, 1, 0, 0, 1], dtype=bool)]
        models = train_ova(_signed_dataset(seed=4), SvmConfig(epochs=4), masks, [3, 4])
        assert len(calls) == 2
        for j, (model, objective, (w, b)) in enumerate(zip(models, planned, calls)):
            best, kept = np.full(5, np.inf), np.zeros(5, dtype=int)
            for epoch, values in enumerate(objective):
                keep = (values < best) | (epoch == 0)
                best[keep] = values[keep]
                kept[keep] = epoch
            if j == 0:
                assert kept.tolist() == [3, 0, 0, 0, 2]
            for q, plane in enumerate(model.planes):
                column = kept[q] * 5 + q  # column e * planes + q is plane q after epoch e
                assert plane.w.tobytes() == w[:, column].tobytes() and plane.b == b[column], (j, q)

    @pytest.mark.parametrize("masks, seeds", [
        ([np.ones(5, dtype=bool)], [1]),
        ([np.zeros(6, dtype=bool)], [1]),
        ([np.ones(6, dtype=bool)], [1, 2]),
        ([], []),
    ], ids=["wrong-length", "empty", "seed-count", "no-masks"])
    def test_bad_masks_rejected(self, masks, seeds):
        with pytest.raises(TrainingError):
            train_ova(_signed_dataset(), SvmConfig(epochs=1), masks, seeds)

    def test_single_class_rejected(self):
        ds = _signed_dataset(absent=(1, 2, 3, 4))
        for count in (1, 2):
            with pytest.raises(TrainingError):
                train_ova(ds, SvmConfig(epochs=1), [np.ones(6, dtype=bool)] * count, [0] * count)


class TestSvmModel:
    @pytest.mark.parametrize("count", [len(CLASS_NAMES) - 1, len(CLASS_NAMES) + 1])
    def test_one_plane_per_class_required(self, count):
        planes = (Hyperplane(np.ones(2), 0.0),) * count
        with pytest.raises(TrainingError, match="one plane per class"):
            SvmModel(planes, np.ones(2, dtype=bool))


class TestPredict:
    def _fixed_model(self, decisions):
        # Planes with w=0 produce constant decision -b, so any decision
        # vector can be staged exactly.
        planes = tuple(Hyperplane(np.zeros(2), -d) for d in decisions)
        return SvmModel(planes, np.array([True, True]))

    def test_argmax(self):
        model = self._fixed_model([0.2, -1.0, 3.1, 0.0, 0.1])
        assert predict(model, np.zeros(2)) == 2

    def test_tie_breaks_to_lowest_index(self):
        model = self._fixed_model([0.0, 1.5, 0.0, 1.5, -1.0])
        assert predict(model, np.zeros(2)) == 1

    def test_toy_plane_predicts_positive_side(self):
        x, y = _two_point_toy()
        labels = (y > 0).astype(np.int64)
        ds = Dataset(x, labels)
        model = _ova(ds, SvmConfig(epochs=120, seed=0))
        assert predict(model, np.array([5.0, 0.0])) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        planes = tuple(Hyperplane(rng.normal(size=3), float(rng.normal())) for _ in range(5))
        model = SvmModel(planes, np.ones(3, dtype=bool))
        scaled = SvmModel(
            tuple(Hyperplane(p.w * 7.5, p.b * 7.5) for p in model.planes),
            model.mask,
        )
        x = rng.normal(size=(50, 3))
        assert np.array_equal(predict(model, x), predict(scaled, x))

    def test_dimension_mismatch(self):
        model = self._fixed_model([0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(TrainingError):
            predict(model, np.zeros(5))

    def test_model_applies_its_own_mask(self):
        # Every plane present, some absent, and none: absent classes read -inf.
        rng = np.random.default_rng(6)
        mask = np.array([True, False, True, True, False, False, True])
        w, b = rng.normal(size=(4, len(CLASS_NAMES))), rng.normal(size=len(CLASS_NAMES))
        rows = rng.normal(size=(40, mask.size))
        for present in (range(len(CLASS_NAMES)), (0, 2, 4), ()):
            model = SvmModel(tuple(Hyperplane(w[:, k], b[k]) if k in present else None
                                   for k in range(len(CLASS_NAMES))), mask)
            expected = np.where(np.isin(np.arange(len(CLASS_NAMES)), present),
                                rows[:, mask] @ w - b, -np.inf)
            np.testing.assert_allclose(decision_values(model, rows), expected, rtol=1e-12)
            assert np.array_equal(predict(model, rows), np.argmax(expected, axis=1))

    def test_rows_of_popcount_width_rejected(self):
        mask = np.array([True, False, True, True, False])
        model = SvmModel((Hyperplane(np.ones(3), 0.0),) * len(CLASS_NAMES), mask)
        with pytest.raises(TrainingError, match="dimension mismatch"):
            predict(model, np.zeros((4, 3)))
