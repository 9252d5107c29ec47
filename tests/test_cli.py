"""CLI: subcommands, artifacts, exit codes, config round-trip, SVG output."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import swarmids
from swarmids import classifier, selection
from swarmids._kernels import _hinge_sgd_py
from swarmids.cli import RunConfig, config_digest, config_from_text, config_to_text, main
from swarmids.errors import ConfigError, DataWarning

from _synth import make_kdd_csv


def _args(synth_file, out, *extra):
    return [
        "--data", str(synth_file), "--out", str(out),
        "--seed", "11", "--subsample", "400", "--folds", "3",
        "--pop", "6", "--iters", "4", "--epochs", "4",
        "--fitness-epochs", "2", "--threads", "1",
        *extra,
    ]


@pytest.fixture()
def run_cli():
    def invoke(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            return main(argv)

    return invoke


# Training and swarm values that RunConfig must reject before a stage runs.
NONSENSE = [
    ("fitness_epochs", "0"), ("epochs", "0"), ("svm_c", "0"), ("svm_c", "nan"),
    ("svm_c", "inf"), ("delta_stop", "nan"), ("delta_stop", "-1"),
    ("c_max", "inf"), ("c_min", "-inf"), ("s_f", "nan"), ("s_l", "nan"), ("s_l", "0"),
    ("s_l", "-1"), ("step_offset", "inf"), ("c_max", "1e200"),
]


class TestConfigFile:
    def test_round_trip(self):
        config = RunConfig(data="x.csv", seed=9, plots=False, c_min=2e-6)
        assert config_from_text(config_to_text(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_text("data=x\nnot_a_key=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("seed=banana\n")

    def test_comments_allowed(self):
        config = config_from_text("# a comment\nseed=4\n")
        assert config.seed == 4

    def test_digest_changes_with_config(self):
        a = config_digest(RunConfig(seed=1))
        b = config_digest(RunConfig(seed=2))
        assert a != b

    @pytest.mark.parametrize("field", ["subsample", "threads", "step_offset"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: -1})
        with pytest.raises(ConfigError, match=field):
            config_from_text(f"{field}=-3\n")

    @pytest.mark.parametrize("field, value", NONSENSE)
    def test_nonsense_training_value_rejected(self, field, value):
        kind = type(getattr(RunConfig(), field))
        with pytest.raises(ConfigError):
            RunConfig(**{field: kind(value)})
        with pytest.raises(ConfigError):
            config_from_text(f"{field}={value}\n")


class TestPrepare:
    def test_artifacts_and_summary(self, synth_file, tmp_path, run_cli, capsys):
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        for name in (
            "prepare_config.txt", "prepare_data.csv", "prepare_encoding.txt",
            "prepare_norm_stats.txt", "prepare_class_histogram.csv",
            "prepare_encoded.csv",
        ):
            assert (out / name).exists(), name
        assert "400 rows, 41 features" in capsys.readouterr().out
        header = (out / "prepare_data.csv").read_text().splitlines()[:4]
        assert any("config_digest=" in line for line in header)
        assert any("tool=swarmids" in line for line in header)

    def test_rerun_byte_identical(self, synth_file, tmp_path, run_cli):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["prepare", *_args(synth_file, out_a)])
        run_cli(["prepare", *_args(synth_file, out_b)])
        for name in ("prepare_data.csv", "prepare_encoding.txt", "prepare_encoded.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_file_exit_2(self, tmp_path, run_cli, capsys):
        code = run_cli(["prepare", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("subsample, classes", [("0", 5), ("3", 2)])
    def test_summary_counts_the_classes_present(self, synth_file, tmp_path, run_cli, capsys,
                                                subsample, classes):
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out, "--subsample", subsample)]) == 0
        rows = 900 if subsample == "0" else int(subsample)
        assert f"prepared {rows} rows, 41 features, {classes} classes" in capsys.readouterr().out
        counts = (out / "prepare_class_histogram.csv").read_text().splitlines()[4:]
        assert sum(line.split(",")[1] != "0" for line in counts) == classes

    def test_subsample_is_stratified(self, synth_file, tmp_path, run_cli):
        out = tmp_path / "run"
        run_cli(["prepare", *_args(synth_file, out)])
        histogram = {}
        for line in (out / "prepare_class_histogram.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("class,"):
                continue
            name, count = line.split(",")
            histogram[name] = int(count)
        assert sum(histogram.values()) == 400
        assert histogram["Normal"] > histogram["U2R"]


class TestSelect:
    def test_requires_prepare(self, tmp_path, run_cli, capsys):
        code = run_cli(["select", "--out", str(tmp_path / "empty")])
        assert code == 2
        assert "prepare" in capsys.readouterr().err

    def test_artifacts(self, synth_file, tmp_path, run_cli):
        out = tmp_path / "run"
        run_cli(["prepare", *_args(synth_file, out)])
        assert run_cli(["select", *_args(synth_file, out)]) == 0
        mask_text = (out / "select_mask.txt").read_text()
        mask_line = next(l for l in mask_text.splitlines() if l.startswith("mask="))
        bits = mask_line.split("=", 1)[1]
        assert len(bits) == 41
        assert bits.count("1") >= 1
        history = [
            l for l in (out / "select_history.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("iteration")
        ]
        assert 1 <= len(history) <= 4
        assert (out / "select_trace.csv").exists()
        svg = (out / "select_convergence.svg").read_text()
        ET.fromstring(svg)  # well-formed
        assert "href" not in svg

    def test_reads_the_matrix_prepare_wrote(self, synth_file, tmp_path, run_cli):
        # Without the prepared records, select still runs on the prepared
        # matrix and writes the same bytes.
        with_records, without = tmp_path / "a", tmp_path / "b"
        for out in (with_records, without):
            assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        (without / "prepare_data.csv").unlink()
        for out in (with_records, without):
            assert run_cli(["select", *_args(synth_file, out)]) == 0
        names = sorted(p.name for p in with_records.glob("select_*"))
        assert names == sorted(p.name for p in without.glob("select_*"))
        assert "select_mask.txt" in names and "select_trace.csv" in names
        for name in names:
            a, b = (with_records / name).read_text(), (without / name).read_text()
            assert a == b.replace(f"out={without}", f"out={with_records}"), name

    # (edit of prepare_encoded.csv's lines, line the error names or None); lines[4]
    # is line 5, the first row after the four header lines.
    MALFORMED = {
        "missing": (None, None),
        "header_only": (lambda lines: lines[:4], None),
        "40_values": (lambda lines: lines[:5] + [lines[5].split(",", 1)[1]] + lines[6:], 6),
        "label_1.5": (lambda lines: lines[:6] + [lines[6].rsplit(",", 1)[0] + ",1.5\n"], 7),
        "label_7": (lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0] + ",7\n"] + lines[5:], 5),
        "nan_value": (lambda lines: lines[:5] + ["nan," + lines[5].split(",", 1)[1]] + lines[6:], 6),
        "value_2.0": (lambda lines: lines[:4] + ["2.0," + lines[4].split(",", 1)[1]] + lines[5:], 5),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_prepared_matrix_exits_2(self, synth_file, tmp_path, run_cli, capsys,
                                               case):
        edit, line = self.MALFORMED[case]
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        prepared = out / "prepare_encoded.csv"
        if edit is None:
            prepared.unlink()
        else:
            lines = prepared.read_text(encoding="utf-8").splitlines(keepends=True)
            assert lines[3].startswith("#") and not lines[4].startswith("#")
            prepared.write_text("".join(edit(lines)), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            assert run_cli(["select", *_args(synth_file, out)]) == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("data error:")]
        assert len(errors) == 1 and str(prepared) in errors[0], errors
        if line is not None:
            assert f"{prepared}: line {line}: " in errors[0]
        assert not (out / "select_mask.txt").exists()

    def test_prepared_matrix_byte_order_mark_is_skipped(self, synth_file, tmp_path, run_cli):
        plain, marked = tmp_path / "a", tmp_path / "b"
        for out in (plain, marked):
            assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        prepared = marked / "prepare_encoded.csv"
        prepared.write_bytes(b"\xef\xbb\xbf" + prepared.read_bytes())
        for out in (plain, marked):
            assert run_cli(["select", *_args(synth_file, out)]) == 0
        assert (plain / "select_mask.txt").read_bytes() == (marked / "select_mask.txt").read_bytes()

    def test_no_plots_toggle(self, synth_file, tmp_path, run_cli):
        out = tmp_path / "run"
        run_cli(["prepare", *_args(synth_file, out)])
        run_cli(["select", *_args(synth_file, out, "--no-plots")])
        assert not (out / "select_convergence.svg").exists()

    def test_config_file_reproduces_run(self, synth_file, tmp_path, run_cli):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["prepare", *_args(synth_file, out_a)])
        run_cli(["select", *_args(synth_file, out_a)])
        # Replay from the persisted config, redirected to a fresh directory.
        config_text = (out_a / "select_config.txt").read_text()
        replay = tmp_path / "replay.cfg"
        replay.write_text(config_text.replace(f"out={out_a}", f"out={out_b}"))
        run_cli(["prepare", "--config", str(replay)])
        run_cli(["select", "--config", str(replay)])
        a = (out_a / "select_mask.txt").read_text()
        b = (out_b / "select_mask.txt").read_text()
        assert a == b

    def test_flag_overrides_config_file(self, synth_file, tmp_path, run_cli):
        out = tmp_path / "run"
        cfg = tmp_path / "base.cfg"
        cfg.write_text(f"data={synth_file}\nout={out}\nseed=1\nsubsample=300\n")
        run_cli(["prepare", "--config", str(cfg), "--subsample", "200"])
        header = (out / "prepare_data.csv").read_text()
        assert "rows=200" in header

    @pytest.mark.parametrize("key, bad, flag, good", [
        ("svm_c", "0", "--svm-c", "1"), ("subsample", "-1", "--subsample", "200"),
    ])
    def test_flag_overrides_bad_config_value(self, synth_file, tmp_path, run_cli,
                                             key, bad, flag, good):
        # The file alone is rejected; the config is validated once, after
        # the flags are merged, so a flag can repair it.
        out = tmp_path / "run"
        cfg = tmp_path / "base.cfg"
        cfg.write_text(f"data={synth_file}\nout={out}\n{key}={bad}\n")
        assert run_cli(["prepare", "--config", str(cfg)]) == 1
        assert run_cli(["prepare", "--config", str(cfg), flag, good]) == 0
        assert f"{key}={good}" in (out / "prepare_config.txt").read_text()


class TestEvaluateAndPipeline:
    def test_pipeline_end_to_end(self, synth_file, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["pipeline", *_args(synth_file, out)]) == 0
        report = json.loads(
            (out / "evaluate_report.json").read_text(encoding="utf-8")
        )
        assert report["k"] == 3
        assert len(report["folds"]) == 3
        assert set(report["macro_mean"]) == {"tpr", "fpr", "tnr", "fnr", "accuracy"}
        for metric in ("tpr", "fpr", "tnr", "fnr", "accuracy"):
            svg_path = out / f"evaluate_{metric}.svg"
            assert svg_path.exists()
            ET.fromstring(svg_path.read_text())
        timing = json.loads((out / "evaluate_timing.json").read_text())
        assert len(timing["fold_seconds"]) == 3
        confusion = (out / "evaluate_confusion.csv").read_text()
        assert "fold,class,tp,fn,fp,tn" in confusion

    def test_reports_byte_identical_across_runs(self, synth_file, tmp_path, run_cli):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["pipeline", *_args(synth_file, out_a)]) == 0
        assert run_cli(["pipeline", *_args(synth_file, out_b)]) == 0
        assert (out_a / "evaluate_report.json").read_bytes() == (
            out_b / "evaluate_report.json"
        ).read_bytes()
        assert (out_a / "select_mask.txt").read_bytes() == (
            out_b / "select_mask.txt"
        ).read_bytes()

    def test_artifacts_identical_on_both_backends(self, build, synth_file, tmp_path,
                                                  run_cli, monkeypatch):
        # Every canonical artifact (all but the timing sidecar) is the same
        # byte for byte whether the twin or the compiled kernel trains.
        if build[0] is None:
            pytest.skip("compiled backend not built")
        out = tmp_path / "run"
        artifacts = []
        for train, backend in ((_hinge_sgd_py.hinge_train, "python"), (build[0], "compiled")):
            monkeypatch.setattr(classifier, "hinge_train", train)
            shutil.rmtree(out, ignore_errors=True)
            assert run_cli(["pipeline", *_args(synth_file, out, "--threads", "2")]) == 0
            timing = json.loads((out / "evaluate_timing.json").read_text())
            # Two worker processes on either backend.
            assert (timing["threads"], timing["fold_workers"]) == (2, 2)
            artifacts.append({path.name: path.read_bytes() for path in out.iterdir()
                              if path.name != "evaluate_timing.json"})
        assert len(artifacts[0]) == 19
        assert artifacts[0] == artifacts[1]

    def test_report_identical_across_threads(self, synth_file, tmp_path, run_cli):
        # The calling process alone, then two and three worker processes.
        # Only the meta block's config digest, which covers --threads, differs.
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        reports = set()
        for threads in ("1", "2", "3"):
            assert run_cli(["evaluate", *_args(synth_file, out, "--threads", threads)]) == 0
            timing = json.loads((out / "evaluate_timing.json").read_text())
            assert timing["fold_workers"] == int(threads)
            digest = timing["meta"]["config_digest"]
            reports.add((out / "evaluate_report.json").read_text().replace(digest, "DIGEST"))
        assert len(reports) == 1

    def test_zero_threads_is_one_per_usable_processor(self, synth_file, tmp_path, run_cli,
                                                      monkeypatch):
        # Pinned to one processor, as under "taskset -c 0", on a machine with more.
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_cli(["evaluate", *_args(synth_file, out, "--threads", "0")]) == 0
        timing = json.loads((out / "evaluate_timing.json").read_text())
        assert (timing["threads"], timing["fold_workers"]) == (1, 1)

    def test_fold_objective_failure_in_a_worker_exits_3(self, synth_file, tmp_path, run_cli,
                                                         capsys, monkeypatch):
        # The ObjectiveError a worker raises reaches main whole: the exit
        # code and the text are those of a fold run in this process.
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        monkeypatch.setattr(selection.WrapperObjective, "__call__",
                            lambda self, masks: [float("nan")] * len(masks))
        capsys.readouterr()
        assert run_cli(["evaluate", *_args(synth_file, out, "--threads", "2")]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "runtime failure: objective failed for mask "
            "10111110110110010101011110110000001010101: fitness nan is not finite"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stage", ["select", "evaluate"])
    def test_single_class_data_exits_2(self, tmp_path, run_cli, capsys, stage):
        # The fitness objective rejects the data before any mask trains.
        normal_only = make_kdd_csv(200, seed=1, weights=(1.0, 0.0, 0.0, 0.0, 0.0))
        data = tmp_path / "normal.csv"
        data.write_text(normal_only)
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(data, out, "--subsample", "0")]) == 0
        capsys.readouterr()
        assert run_cli([stage, *_args(data, out, "--subsample", "0")]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "at least two classes" in err


class TestExitCodes:
    def test_bad_flag_exits_1(self, run_cli, capsys):
        assert run_cli(["prepare", "--definitely-not-a-flag"]) == 1

    def test_unknown_config_key_exits_1(self, tmp_path, run_cli):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery=1\n")
        assert run_cli(["prepare", "--config", str(bad)]) == 1

    def test_no_data_exits_1(self, tmp_path, run_cli):
        assert run_cli(["prepare", "--out", str(tmp_path)]) == 1

    def test_missing_config_file_exits_1(self, run_cli):
        assert run_cli(["prepare", "--config", "/nonexistent.cfg"]) == 1

    @pytest.mark.parametrize("flag", ["--subsample", "--threads", "--step-offset"])
    def test_negative_count_flag_exits_1(self, synth_file, tmp_path, run_cli, capsys, flag):
        out = tmp_path / "run"
        assert run_cli(["prepare", "--data", str(synth_file), "--out", str(out), flag, "-5"]) == 1
        assert "must not be negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["subsample", "threads", "step_offset"])
    def test_negative_count_in_config_file_exits_1(self, synth_file, tmp_path, run_cli, key):
        out = tmp_path / "run"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data={synth_file}\nout={out}\n{key}=-5\n")
        assert run_cli(["prepare", "--config", str(cfg)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("folds", ["1", "0"])
    def test_folds_below_two_exit_1(self, synth_file, tmp_path, run_cli, capsys, folds):
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        assert run_cli(["evaluate", *_args(synth_file, out, "--folds", folds)]) == 1
        assert "folds must be at least 2" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"out={out}\nfolds={folds}\n")
        assert run_cli(["evaluate", "--config", str(cfg)]) == 1
        assert not (out / "evaluate_report.json").exists()


    @pytest.mark.parametrize("field, value", NONSENSE)
    def test_nonsense_training_value_exits_1(self, synth_file, tmp_path, run_cli, field, value):
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        flag = "--" + field.replace("_", "-")
        for stage in ("prepare", "select", "evaluate", "pipeline"):
            assert run_cli([stage, *_args(synth_file, out, flag, value)]) == 1, stage
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"out={out}\n{field}={value}\n")
        assert run_cli(["select", "--config", str(cfg)]) == 1
        assert not (out / "select_mask.txt").exists()
        assert not (out / "evaluate_report.json").exists()

    def test_non_utf8_data_exits_2(self, synth_file, tmp_path, run_cli, capsys):
        # Byte 0xE9, "é" in Latin-1, in a comment on line 4 of the dataset.
        lines = synth_file.read_bytes().splitlines(keepends=True)
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"".join(lines[:3]) + b"# caf\xe9\n" + b"".join(lines[3:]))
        assert run_cli(["prepare", *_args(data, tmp_path / "run")]) == 2
        assert f"data error: {data}: line 4: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["select", "evaluate"])
    def test_non_utf8_prepared_data_exits_2(self, synth_file, tmp_path, run_cli, capsys, stage):
        out = tmp_path / "run"
        assert run_cli(["prepare", *_args(synth_file, out)]) == 0
        # select reads the normalized matrix; evaluate re-encodes the records per fold.
        prepared = out / {"select": "prepare_encoded.csv", "evaluate": "prepare_data.csv"}[stage]
        first, rest = prepared.read_bytes().split(b"\n", 1)
        prepared.write_bytes(first + b"\n# caf\xe9\n" + rest)
        capsys.readouterr()
        assert run_cli([stage, *_args(synth_file, out)]) == 2
        assert f"data error: {prepared}: line 2: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, run_cli, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed=1\n# caf\xe9\n")
        assert run_cli(["prepare", "--config", str(cfg)]) == 1
        assert f"error: {cfg}: line 2: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_config_byte_order_mark_is_skipped(self, synth_file, tmp_path, run_cli):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed=7\nsubsample=50\n")
        out = tmp_path / "run"
        assert run_cli(["prepare", "--config", str(cfg), "--data", str(synth_file),
                        "--out", str(out)]) == 0
        config = (out / "prepare_config.txt").read_text(encoding="utf-8").splitlines()
        assert "seed=7" in config and "subsample=50" in config

    def test_module_run_exits_with_main_code(self, tmp_path):
        # ``python -m swarmids.cli`` runs the same entry point as ``swarmids``.
        src = str(Path(swarmids.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "swarmids.cli", "prepare",
             "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("data error: dataset file not found:")


class TestBackendNotice:
    @pytest.mark.parametrize("backend, shown", [("python", True), ("compiled", False)])
    def test_twin_backend_named_on_stderr(self, monkeypatch, tmp_path, run_cli, capsys,
                                          backend, shown):
        monkeypatch.setattr("swarmids.cli.BACKEND", backend)
        monkeypatch.setattr("swarmids.cli.BUILD_ERROR", "C compiler 'gcc' exited with status 1")
        assert run_cli(["select", "--out", str(tmp_path / "empty")]) == 2
        notes = [l for l in capsys.readouterr().err.splitlines() if l.startswith("note:")]
        if shown:
            assert len(notes) == 1
            assert notes[0] == (
                "note: SGD kernel backend 'python' (the pure-Python twin, much slower); "
                "the compiled kernel was not built: C compiler 'gcc' exited with status 1"
            )
        else:
            assert notes == []

    def test_prepare_never_trains_so_no_notice(self, monkeypatch, synth_file, tmp_path,
                                               run_cli, capsys):
        monkeypatch.setattr("swarmids.cli.BACKEND", "python")
        assert run_cli(["prepare", *_args(synth_file, tmp_path / "run")]) == 0
        assert "note:" not in capsys.readouterr().err
