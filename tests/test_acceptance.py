"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s

Criterion 6 needs the real NSL-KDD train file (see conftest for discovery);
it is skipped when the file is absent and runs in full when present.
"""

import json
import math
import time
import warnings
from collections import defaultdict

import numpy as np
import pytest

from swarmids.classifier import SvmConfig, train_binary, margin
from swarmids.cli import main as cli_main
from swarmids.dataset import parse_kdd
from swarmids.errors import DataWarning
from swarmids.evaluation import (
    ConfusionCounts,
    accuracy,
    cross_validate,
    fnr,
    fpr,
    tnr,
    tpr,
)
from swarmids import optimizer, selection
from swarmids.optimizer import GoaConfig, social_step, update_c
from swarmids.selection import fitness_value
from swarmids.seeds import derive_seed

from _synth import make_kdd_csv
from conftest import nsl_kdd_train_path


# The criteria call objectives one mask at a time; the optimizer scores
# a whole population per call. These adapters keep the criteria as stated.
def run(objective, config):
    """``optimizer.run``: a WrapperObjective scores each population in one
    call, as in the pipeline; any other objective scores mask by mask."""
    if not isinstance(objective, selection.WrapperObjective):
        per_mask = objective
        objective = lambda masks: [per_mask(mask) for mask in masks]  # noqa: E731
    return optimizer.run(objective, config)


class WrapperObjective(selection.WrapperObjective):
    """Also takes a single mask and returns its fitness."""

    def __call__(self, masks):
        if isinstance(masks, np.ndarray) and masks.ndim == 1:
            return super().__call__([masks])[0]
        return super().__call__(masks)


def _report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_metric_identities():
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    ok = True
    for _ in range(10_000):
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 10**6, 4))
        tp = tp or 1  # keep both denominators positive
        fp = fp or 1
        counts = ConfusionCounts(tp, fn, fp, tn)
        ok &= tpr(counts) + fnr(counts) == 1.0
        ok &= fpr(counts) + tnr(counts) == 1.0
        ok &= accuracy(counts) == (tp + tn) / (tp + fn + fp + tn)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "tpr+fnr and fpr+tnr exactly 1 on 10,000 tables; accuracy matches recount",
        ok and elapsed < 5.0,
        f"{elapsed:.2f} s",
    )


def test_criterion_2_fitness_formula():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    ok = True
    for _ in range(1_000):
        r_tp = float(rng.random())
        r_e = float(rng.random())
        n_f = int(rng.integers(1, 42))
        independent = r_tp + (1.0 - r_e) + (1.0 - n_f / 41.0)
        ok &= abs(fitness_value(r_tp, r_e, n_f, 41) - independent) <= 1e-12
        if n_f < 41:
            ok &= fitness_value(r_tp, r_e, n_f, 41) > fitness_value(r_tp, r_e, n_f + 1, 41)
    elapsed = time.perf_counter() - started
    _report(
        2,
        "fitness matches independent arithmetic (1e-12) and decreases in N_F",
        ok and elapsed < 1.0,
        f"{elapsed:.2f} s",
    )


def test_criterion_3_goa_mechanics():
    config = GoaConfig(max_iterations=40, c_max=1.0, c_min=1e-5)
    endpoints = update_c(0, config) == 1.0 and update_c(40, config) == 1e-5

    monotone = True
    for salt in range(100):
        import hashlib

        def objective(mask, salt=salt):
            digest = hashlib.blake2b(
                mask.tobytes() + bytes([salt]), digest_size=8
            ).digest()
            return int.from_bytes(digest, "big") / 2**64

        result = run(
            objective,
            GoaConfig(population_size=5, dim=8, max_iterations=8,
                      fitness_delta_stop=0.0, seed=salt),
        )
        values = [rec.best_fitness for rec in result.history]
        monotone &= all(a <= b for a, b in zip(values, values[1:]))

    # Scalar hand evaluation for 2 members in one dimension.
    x1, x2, best, c = 0.2, 0.7, 0.7, 0.5
    s = 0.5 * math.exp(-abs(x2 - x1) / 1.5) - math.exp(-abs(x2 - x1))
    by_hand = c * (c * 0.5 * s * (x2 - x1) / abs(x2 - x1)) + best
    moved = social_step(
        np.array([[x1], [x2]]), np.array([best]), c, GoaConfig(population_size=2, dim=1)
    )
    hand_match = abs(moved[0, 0] - by_hand) <= 1e-9

    _report(
        3,
        "update_c endpoints exact; history monotone on 100 objectives; "
        "position update matches scalar hand evaluation at 1e-9",
        endpoints and monotone and hand_match,
    )


def test_criterion_4_goa_optimizer_sanity():
    started = time.perf_counter()
    passes = 0
    for seed in range(10):
        config = GoaConfig(
            population_size=30, dim=41, max_iterations=40,
            fitness_delta_stop=0.0,  # full 40-iteration budget
            seed=seed,
        )
        result = run(lambda m: float(m.sum()) / m.size, config)
        passes += result.best_fitness >= 0.9
    elapsed = time.perf_counter() - started
    _report(
        4,
        "popcount objective reaches fitness >= 0.9 in >= 9 of 10 seeds",
        passes >= 9 and elapsed < 10.0,
        f"{passes}/10 seeds, {elapsed:.2f} s",
    )


def test_criterion_5_svm_correctness():
    started = time.perf_counter()

    toy_x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    toy_y = np.array([-1.0, 1.0])
    plane = train_binary(toy_x, toy_y, SvmConfig(c=1.0, epochs=150, seed=0))
    margin_ok = abs(margin(plane) - 2.0) <= 0.2

    accuracy_ok = True
    constraints_ok = True
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        pos = rng.normal([2.0, 0.5], 0.45, (10, 2))
        neg = rng.normal([-2.0, -0.5], 0.45, (10, 2))
        x = np.vstack([pos, neg])
        y = np.array([1.0] * 10 + [-1.0] * 10)
        # Exhaustive separability check along the generating direction:
        # every positive projects strictly above every negative.
        direction = np.array([1.0, 0.25])
        projections = x @ direction
        assert projections[y > 0].min() > projections[y < 0].max()
        trained = train_binary(x, y, SvmConfig(c=10.0, epochs=300, seed=seed))
        values = x @ trained.w - trained.b
        accuracy_ok &= bool(np.array_equal(np.sign(values), y))
        constraints_ok &= bool(values[y > 0].min() >= 1.0 - 0.05)
        constraints_ok &= bool(values[y < 0].max() <= -1.0 + 0.05)

    elapsed = time.perf_counter() - started
    _report(
        5,
        "toy margin within 10%; separable sets reach accuracy 1.0; "
        "constraints within 0.05 slack",
        margin_ok and accuracy_ok and constraints_ok and elapsed < 5.0,
        f"{elapsed:.2f} s",
    )


@pytest.mark.skipif(
    nsl_kdd_train_path() is None,
    reason="real NSL-KDD train file not available (set NSL_KDD_TRAIN or place "
    "data/KDDTrain+.txt); criterion 6 runs in full when the file is present",
)
def test_criterion_6_nsl_kdd_end_to_end():
    from swarmids.dataset import map_label, stratified_sample_indices

    with nsl_kdd_train_path().open("r", encoding="utf-8") as stream:
        records = parse_kdd(stream)
    labels = np.array([map_label(r.label) for r in records])
    keep = stratified_sample_indices(labels, 20_000, seed=derive_seed(0, "acceptance6"))
    subsample = [records[int(i)] for i in keep]
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        report = cross_validate(
            subsample, k=10,
            goa_config=GoaConfig(), svm_config=SvmConfig(),
            seed=0, fitness_epochs=5, threads=4,
        )
    elapsed = time.perf_counter() - started
    macro_acc = report.macro_mean["accuracy"]
    pooled_tpr = tpr(report.attack_overall)
    pooled_fpr = fpr(report.attack_overall)
    popcounts = [f.mask_popcount for f in report.folds]
    ok = (
        macro_acc >= 0.90
        and pooled_tpr >= 0.90
        and pooled_fpr <= 0.08
        and max(popcounts) <= 35
    )
    _report(
        6,
        "20k NSL-KDD subsample, 10-fold CV: macro acc >= 0.90, pooled TPR >= 0.90, "
        "FPR <= 0.08, popcount <= 35 in every fold",
        ok,
        f"acc {macro_acc:.4f}, tpr {pooled_tpr:.4f}, fpr {pooled_fpr:.4f}, "
        f"max popcount {max(popcounts)}, {elapsed / 60:.1f} min",
    )


def test_criterion_7_selection_adds_value(synth_dataset):
    started = time.perf_counter()
    wins = 0
    all_ones = np.ones(synth_dataset.n_features, dtype=bool)
    for seed in range(10):
        objective = WrapperObjective(
            synth_dataset,
            run_seed=derive_seed(seed, "acceptance7"),
            svm_config=SvmConfig(seed=0),
            fitness_epochs=3,
        )
        config = GoaConfig(population_size=10, dim=41, max_iterations=6,
                           fitness_delta_stop=0.0, seed=seed)
        result = run(objective, config)
        wins += result.best_fitness >= objective(all_ones)
    elapsed = time.perf_counter() - started
    _report(
        7,
        "GOA-selected mask fitness >= all-ones fitness in >= 8 of 10 seeded runs",
        wins >= 8,
        f"{wins}/10 runs, {elapsed:.1f} s",
    )


def test_criterion_8_reproducibility(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(make_kdd_csv(500, seed=21), encoding="utf-8")
    args = [
        "--data", str(data), "--seed", "5", "--subsample", "300",
        "--folds", "3", "--pop", "6", "--iters", "4", "--epochs", "4",
        "--fitness-epochs", "2", "--threads", "1", "--no-plots",
    ]
    outs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["pipeline", "--out", str(out), *args])
            assert code == 0
            outs.append(out)
    report_a = (outs[0] / "evaluate_report.json").read_bytes()
    report_b = (outs[1] / "evaluate_report.json").read_bytes()
    identical = report_a == report_b
    json.loads(report_a)  # still valid JSON
    _report(
        8,
        "two pipeline runs with identical config and seed give byte-identical reports",
        identical,
    )


def test_criterion_9_leakage_guard(synth_records):
    events = defaultdict(list)

    def audit(stage, fold, indices):
        events[(stage, fold)].append(np.array(indices, copy=True))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        cross_validate(
            synth_records, k=3,
            goa_config=GoaConfig(population_size=6, dim=41, max_iterations=4,
                                 fitness_delta_stop=0.0, seed=0),
            svm_config=SvmConfig(epochs=3, seed=0),
            seed=9, fitness_epochs=2, audit=audit,
        )
    guarded_stages = ("encoding_fit", "normalize_fit", "fitness_train",
                      "fitness_val", "final_train")
    clean = True
    for fold in range(3):
        test_rows = set(np.concatenate(events[("test_predict", fold)]).tolist())
        for stage in guarded_stages:
            used = set(np.concatenate(events[(stage, fold)]).tolist())
            clean &= not (used & test_rows)
    _report(
        9,
        "no test-fold row reaches encoding, normalization, fitness, or final "
        "SVM training in its own fold",
        clean,
    )


def test_synthetic_end_to_end_sanity(synth_records):
    """Desk-scale twin of criterion 6 on the synthetic corpus: same
    thresholds, always runnable. Not a numbered criterion."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        report = cross_validate(
            synth_records, k=3,
            goa_config=GoaConfig(), svm_config=SvmConfig(),
            seed=42, fitness_epochs=5, threads=3,
        )
    assert report.macro_mean["accuracy"] >= 0.90
    assert tpr(report.attack_overall) >= 0.90
    assert fpr(report.attack_overall) <= 0.08
    assert max(f.mask_popcount for f in report.folds) <= 35
