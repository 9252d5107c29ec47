"""Confusion accounting, per-class rates, macro averaging, and the
cross-validation orchestrator (including the leakage audit)."""

import json
import multiprocessing
import os
import threading
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmids import classifier, evaluation
from swarmids._kernels import _hinge_sgd_py
from swarmids.classifier import SvmConfig
from swarmids.dataset import CLASS_NAMES
from swarmids.errors import ConfigError, DataError, DataWarning, ObjectiveError
from swarmids.evaluation import (
    ConfusionCounts,
    MetricsReport,
    accuracy,
    confusion_per_class,
    cross_validate,
    fnr,
    fold_workers,
    fpr,
    macro_report,
    report_to_json,
    tnr,
    tpr,
)
from swarmids.optimizer import GoaConfig


class TestConfusion:
    def test_hand_counted_example(self):
        counts = confusion_per_class(["A", "A", "B"], ["A", "B", "B"], "A")
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 0, 1)

    def test_perfect_predictions(self):
        truth = [0, 1, 2, 1, 0]
        for target in (0, 1, 2):
            counts = confusion_per_class(truth, truth, target)
            assert counts.fn == 0 and counts.fp == 0

    def test_absent_target_class(self):
        counts = confusion_per_class([0, 0, 1], [0, 1, 1], 7)
        assert counts.tp == 0 and counts.fn == 0
        assert counts.tn == 3 and counts.fp == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            confusion_per_class([0, 1], [0], 0)
        with pytest.raises(DataError):
            confusion_per_class([], [], 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=-1, fn=0, fp=0, tn=0)


class TestRates:
    def test_frozen_values(self):
        assert tpr(ConfusionCounts(tp=90, fn=10, fp=0, tn=0)) == 0.9
        counts = ConfusionCounts(tp=0, fn=0, fp=2, tn=98)
        assert fpr(counts) == 0.02
        assert tnr(counts) == 0.98
        assert accuracy(ConfusionCounts(tp=50, fn=0, fp=0, tn=50)) == 1.0

    def test_degenerate_denominators_yield_zero(self):
        empty_pos = ConfusionCounts(tp=0, fn=0, fp=3, tn=7)
        assert tpr(empty_pos) == 0.0 and fnr(empty_pos) == 0.0
        empty_neg = ConfusionCounts(tp=3, fn=7, fp=0, tn=0)
        assert fpr(empty_neg) == 0.0 and tnr(empty_neg) == 0.0

    @given(
        tp=st.integers(0, 10**6), fn=st.integers(0, 10**6),
        fp=st.integers(0, 10**6), tn=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_identities_exact(self, tp, fn, fp, tn):
        counts = ConfusionCounts(tp, fn, fp, tn)
        if tp + fn > 0:
            assert tpr(counts) + fnr(counts) == 1.0
        if fp + tn > 0:
            assert fpr(counts) + tnr(counts) == 1.0

    def test_accuracy_relabel_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 100, 4))
            if tp + fn + fp + tn == 0:
                continue
            a = accuracy(ConfusionCounts(tp, fn, fp, tn))
            b = accuracy(ConfusionCounts(tn, fp, fn, tp))
            assert a == b


def _brute_force_metrics(truth, predicted, target):
    tp = fn = fp = tn = 0
    for t, p in zip(truth, predicted):
        if t == target and p == target:
            tp += 1
        elif t == target:
            fn += 1
        elif p == target:
            fp += 1
        else:
            tn += 1
    return tp, fn, fp, tn


class TestMacroReport:
    @pytest.mark.parametrize("truth, pred, which", [
        ([0, 7, 7], [0, 0, 7], "truth"),
        ([0, 1, 1], [0, 7, -1], "predicted"),
    ], ids=["truth", "predicted"])
    def test_label_outside_class_list_rejected(self, truth, pred, which):
        with pytest.raises(DataError, match=f"{which} label (7|-1) is outside"):
            macro_report(truth, pred)

    def test_report_keys_must_be_class_list(self):
        with pytest.raises(DataError, match="CLASS_NAMES"):
            MetricsReport({"a": ConfusionCounts(1, 0, 0, 1)}, {}, {})

    def test_support_is_truth_rows_per_class(self):
        truth = [0, 0, 1, 3, 3, 3]
        pred = [0, 1, 1, 3, 0, 2]
        support = macro_report(truth, pred).to_dict()["support"]
        assert support == {"Normal": 2, "DoS": 1, "Probe": 0, "U2R": 3, "R2L": 0}

    def test_mean_of_two_classes(self):
        # class 0: tpr 1.0 (2/2); class 1: tpr 0.8 (4/5)
        truth = [0, 0, 1, 1, 1, 1, 1]
        pred = [0, 0, 1, 1, 1, 1, 0]
        report = macro_report(truth, pred)
        assert tpr(report.per_class[CLASS_NAMES[0]]) == 1.0
        assert tpr(report.per_class[CLASS_NAMES[1]]) == 0.8
        assert report.macro["tpr"] == pytest.approx(0.9)

    def test_single_class_truth_equals_its_metrics(self):
        truth = [1, 1, 1]
        pred = [1, 0, 1]
        report = macro_report(truth, pred)
        assert report.macro["tpr"] == tpr(report.per_class[CLASS_NAMES[1]])

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 5, 1000)
        pred = rng.integers(0, 5, 1000)
        report = macro_report(truth, pred)
        for index, name in enumerate(CLASS_NAMES):
            tp, fn, fp, tn = _brute_force_metrics(truth, pred, index)
            counts = report.per_class[name]
            assert (counts.tp, counts.fn, counts.fp, counts.tn) == (tp, fn, fp, tn)
            if tp + fn:
                assert tpr(report.per_class[name]) == tp / (tp + fn)
                assert report.value(name, "tpr") == tp / (tp + fn)

    def test_per_class_tp_sums_to_total_correct(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 5, 500)
        pred = rng.integers(0, 5, 500)
        report = macro_report(truth, pred)
        total_tp = sum(c.tp for c in report.per_class.values())
        assert total_tp == int(np.sum(truth == pred))

    def test_weighted_average_emitted(self):
        truth = [0] * 9 + [1]
        pred = [0] * 9 + [0]
        report = macro_report(truth, pred)
        assert report.weighted["tpr"] == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)


def _fast_configs():
    goa = GoaConfig(population_size=8, dim=41, max_iterations=6,
                    fitness_delta_stop=0.0, seed=0)
    svm = SvmConfig(c=1.0, epochs=4, seed=0)
    return goa, svm


@pytest.fixture(scope="module")
def cv_report(synth_records):
    goa, svm = _fast_configs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        return cross_validate(
            synth_records, k=3, goa_config=goa, svm_config=svm,
            seed=123, fitness_epochs=2,
        )


class TestCrossValidate:
    def test_fold_count_and_masks(self, cv_report):
        assert cv_report.k == 3
        assert len(cv_report.folds) == 3
        for fold in cv_report.folds:
            assert len(fold.mask_bits) == 41
            assert fold.mask_popcount >= 1

    def test_deterministic(self, synth_records, cv_report):
        goa, svm = _fast_configs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            again = cross_validate(
                synth_records, k=3, goa_config=goa, svm_config=svm,
                seed=123, fitness_epochs=2,
            )
        assert report_to_json(again) == report_to_json(cv_report)

    def test_threads_do_not_change_results(self, synth_records, cv_report):
        # Three forked workers against the calling process alone.
        goa, svm = _fast_configs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            threaded = cross_validate(
                synth_records, k=3, goa_config=goa, svm_config=svm,
                seed=123, fitness_epochs=2, threads=3,
            )
        assert report_to_json(threaded) == report_to_json(cv_report)

    def test_canonical_json_excludes_timing(self, cv_report):
        payload = json.loads(report_to_json(cv_report))
        assert "seconds" not in payload["folds"][0]

    def test_report_carries_tnr_note(self, cv_report):
        payload = json.loads(report_to_json(cv_report))
        assert any("tn/(tn+fp)" in note for note in payload["notes"])

    def test_k_below_two_rejected(self, synth_records):
        goa, svm = _fast_configs()
        with pytest.raises(DataError):
            cross_validate(synth_records, k=1, goa_config=goa, svm_config=svm, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, synth_records, threads):
        goa, svm = _fast_configs()
        with pytest.raises(ConfigError):
            cross_validate(synth_records, k=3, goa_config=goa, svm_config=svm, seed=0,
                           threads=threads)


_RUN_FOLD = evaluation._run_fold


class TestFoldWorkers:
    """Folds run in min(threads, k) forked worker processes on either
    backend, or in the calling process when that is 1 or the platform
    cannot fork; audit events come back to the calling thread."""

    @pytest.mark.parametrize("threads, k, workers", [(2, 4, 2), (8, 3, 3), (1, 4, 1)])
    def test_pool_width(self, threads, k, workers):
        assert fold_workers(threads, k) == workers

    @staticmethod
    def _fold_pids(monkeypatch, records, threads, before=lambda fold: None):
        """Run a 3-fold evaluation with ``_run_fold`` wrapped to call
        ``before(fold)`` first and to report its process id as an audit
        event; return the events in the order the audit hook got them,
        each with the hook's thread ident, and the report."""
        def wrapped(fold, *args):
            args[-1]("pid", fold, np.array([os.getpid()]))
            before(fold)
            return _RUN_FOLD(fold, *args)

        monkeypatch.setattr(evaluation, "_run_fold", wrapped)
        events = []

        def audit(stage, fold, indices):
            events.append((stage, fold, indices, threading.get_ident()))

        goa = GoaConfig(population_size=4, max_iterations=2, fitness_delta_stop=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            report = cross_validate(records, k=3, goa_config=goa, svm_config=SvmConfig(epochs=2),
                                    seed=7, fitness_epochs=1, threads=threads, audit=audit)
        return events, report

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_two_folds_run_at_once_in_worker_processes(self, build, synth_records,
                                                       monkeypatch, backend):
        train = _hinge_sgd_py.hinge_train if backend == "python" else build[0]
        if train is None:
            pytest.skip("compiled backend not built")
        monkeypatch.setattr(classifier, "hinge_train", train)
        # Made before the pool forks, so the workers share it: folds 0 and 1
        # both wait at it before they start, so they must run at the same time.
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=30)
        events, report = self._fold_pids(
            monkeypatch, synth_records, threads=2,
            before=lambda fold: fold < 2 and barrier.wait(),
        )
        pids = {fold: int(indices[0]) for stage, fold, indices, _ in events if stage == "pid"}
        assert sorted(pids) == [0, 1, 2]
        assert pids[0] != pids[1] and os.getpid() not in pids.values()
        assert {ident for *_, ident in events} == {threading.get_ident()}
        assert multiprocessing.active_children() == []
        _, alone = self._fold_pids(monkeypatch, synth_records, threads=1)
        assert report_to_json(report) == report_to_json(alone)

    def test_audit_events_arrive_in_fold_order_in_the_calling_thread(self, synth_records, monkeypatch):
        events, _ = self._fold_pids(monkeypatch, synth_records, threads=3)
        stages = ["pid", "encoding_fit", "normalize_fit", "fitness_train", "fitness_val",
                  "final_train", "test_predict"]
        assert [(stage, fold) for stage, fold, *_ in events] == [
            (stage, fold) for fold in range(3) for stage in stages
        ]
        assert {ident for *_, ident in events} == {threading.get_ident()}

    @pytest.mark.parametrize("fork", [True, False])
    def test_one_worker_runs_in_the_calling_process(self, synth_records, monkeypatch, fork):
        # One thread, or a platform without fork, maps the folds here.
        monkeypatch.setattr(evaluation, "_FORK", fork)
        assert fold_workers(3, 3) == (3 if fork else 1)
        events, _ = self._fold_pids(monkeypatch, synth_records, threads=1 if fork else 3)
        assert {int(indices[0]) for stage, _, indices, _ in events if stage == "pid"} == {os.getpid()}

    def test_no_worker_outlives_the_call(self, synth_records, monkeypatch):
        self._fold_pids(monkeypatch, synth_records, threads=2)
        assert multiprocessing.active_children() == []

        def fail(fold):
            if fold == 1:
                raise ObjectiveError("0101", "fold 1 failed")

        with pytest.raises(ObjectiveError) as raised:
            self._fold_pids(monkeypatch, synth_records, threads=2, before=fail)
        assert (str(raised.value), raised.value.mask_bits) == (
            "objective failed for mask 0101: fold 1 failed", "0101")
        assert multiprocessing.active_children() == []


class TestLeakageAudit:
    def test_no_test_rows_in_any_training_stage(self, synth_records):
        goa, svm = _fast_configs()
        events = defaultdict(list)

        def audit(stage, fold, indices):
            events[(stage, fold)].append(np.array(indices, copy=True))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            cross_validate(
                synth_records, k=3, goa_config=goa, svm_config=svm,
                seed=5, fitness_epochs=2, audit=audit,
            )
        stages = {
            "encoding_fit", "normalize_fit", "fitness_train",
            "fitness_val", "final_train", "test_predict",
        }
        seen_stages = {stage for stage, _ in events}
        assert seen_stages == stages
        for fold in range(3):
            test_rows = set(np.concatenate(events[("test_predict", fold)]).tolist())
            for stage in stages - {"test_predict"}:
                used = set(np.concatenate(events[(stage, fold)]).tolist())
                assert not (used & test_rows), f"{stage} saw fold-{fold} test rows"
            # fitness split partitions the training rows
            fit = set(np.concatenate(events[("fitness_train", fold)]).tolist())
            val = set(np.concatenate(events[("fitness_val", fold)]).tolist())
            train = set(np.concatenate(events[("final_train", fold)]).tolist())
            assert fit | val == train
            assert not (fit & val)
