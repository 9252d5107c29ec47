"""Layered benchmark of the swarmids pipeline, driven through its real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark generates its corpus from
``--seed`` (``perfbench/corpus.py``, cached per seed under ``.bench_work/``
by a child process, so generation is neither timed nor counted in memory),
then calls ``swarmids.cli.main`` in this process, stage after stage, in
repetitions for ``--seconds`` (no repetition starts that would end after
it). The first repetition fills caches and finishes lazy set-up: it is
checked and counted but not timed. Every stage gets
``--threads 2 --seed 1``; only the corpus varies with the workload seed.
The kernel backend is whatever ``swarmids._kernels`` resolves to; the
benchmark never builds or forces one.

Workloads (each chosen to load different layers):

- ``select-noisy``: noisy corpus (class-profile overlap plus label noise),
  ``prepare``, then ``select`` and a 4-fold ``evaluate``, both with a fixed
  budget (``--delta-stop 0 --iters N``): the ``pipeline`` command's stages.
  The wrapper-fitness path (``_kernels``, ``classifier``, ``selection``,
  ``optimizer``) does almost all the work and ingestion almost none. Best
  fitness is monotone, so exactly N iterations run and a numerics change
  cannot change how much search is done. ``select`` ignores ``--threads``
  today, so a population-parallel change shows there; ``evaluate`` runs
  its folds on a two-thread pool and adds per-fold encode/normalize and
  one long final ``train_ova`` per fold on top of the short fitness
  trainings. Its accuracy figures are not saturated.
- ``ingest-full``: an easy corpus the size of KDDTrain+ (125,973 rows),
  ``prepare --subsample 20000`` only, the paper's ingestion step.
  ``dataset`` parsing/encoding and the ``cli`` artifact writes do all the
  work while ``_kernels`` sits idle: kernel, selection or threading
  changes should show no change here.

There is no k-fold workload with the default stopping rule: its work
varied with the seed (13 to 20 swarm iterations summed over four folds),
and two workloads leave each run time enough to be steady on a small
shared machine.

End-to-end metrics (``--trace 0``; medians over the run's repetitions):

- ``setup_s``: wall time of ``prepare`` (parse, subsample, encode,
  normalize, artifact writes: everything before selection can start);
- ``stage_s``: wall time of the workload's main work: ``select`` plus
  ``evaluate`` on select-noisy, ``prepare`` on ingest-full;
- ``peak_rss_mb``: peak resident memory of this process, which runs the
  stages (corpus generation runs in a child and is not included);
- ``ok_share``: stage invocations that exited 0 and passed their output
  checks, over those attempted (1 - failed share).

Output checks, on every stage invocation: exit code 0; prepared data,
``select_mask.txt`` and ``evaluate_report.json`` byte-identical across the
repetitions of a run and across runs with the same seed and source tree;
fixed-budget iteration count; every reported metric finite and in [0, 1];
per-fold confusion totals equal to the fold's ``test_size``.

Per-layer metrics (``--trace 1``; traced repetitions alternate with
untraced ones, and ``trace.overhead_share`` is the traced-minus-untraced
``stage_s`` over untraced). The end-to-end metric each should move:

- ``dataset.parse_rows_per_s`` (parse_kdd), ``dataset.encode_rows_per_s``
  (fit_encoding + encode), ``dataset.normalize_s`` -> ``setup_s`` on
  ingest-full; the per-fold encode also feeds ``stage_s`` on select-noisy.
- ``cli.self_s`` (stage time minus library calls, mostly formatting and
  writing the prepared CSVs) -> ``setup_s`` on ingest-full.
  ``svg.render_s`` -> a small share of ``stage_s`` on select-noisy
  (``prepare`` draws no chart).
- ``kernels.rows_per_s``, ``kernels.rows``, ``kernels.calls``,
  ``kernels.busy_s`` (hinge_epoch; ``kernels.compiled`` labels the
  backend) -> ``stage_s`` on select-noisy; no change on
  ingest-full. ``kernels.bench_*`` is the standalone kernel micro-bench
  (``perfbench/kernels.py``): rows/s per backend and bit-identity.
- ``classifier.train_ova_ms`` (mean per call), ``classifier.predict_ms``,
  ``classifier.hinge_objective_share`` (hinge_objective time over
  train_binary time) -> ``stage_s`` on select-noisy.
- ``selection.masks_per_s`` (distinct fitness evaluations per second of
  objective time), ``selection.cache_hit_ratio`` with its base
  ``selection.objective_calls`` and ``selection.distinct_masks`` (from
  ``select_trace.csv`` where it exists), ``selection.project_features_s``
  -> ``stage_s`` on select-noisy.
- ``optimizer.iterations`` (mean per swarm run), ``optimizer.self_s``
  (run time not spent in the objective),
  ``optimizer.fitness_delta_stop_share`` (stop reason; 0 under the fixed
  budget) -> ``stage_s``, predicted to be a small share.
- ``evaluation.fold_s_median``, ``evaluation.fold_s_max``,
  ``evaluation.fold_imbalance`` (max over mean fold time),
  ``evaluation.parallel_efficiency`` (sum of fold seconds over threads x
  ``evaluate`` time) -> ``stage_s`` on select-noisy.
- ``quality.*``: best select fitness, macro accuracy, attack TPR and FPR,
  so a speed-up that degrades results shows.

Span times are wall time per call; in ``evaluate`` they include waits for the
interpreter lock held by the other fold thread, so per-layer seconds can
sum to more than ``stage_s``. A layer that did no work in a workload
reports 0. The result line is preceded by the run metadata (backend,
threads, nproc, versions, commit, seed) and one human-readable line per
metric; details and the raw spans go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
THREADS = 2
CLI_SEED = 1
MIN_REPS = 3
HARD_STOP_S = 120.0  # never start a repetition after this, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    family: str
    rows: int
    prepare: tuple[str, ...]
    # (stage, its flags) run after prepare; empty when prepare is the work
    search: tuple[tuple[str, tuple[str, ...]], ...] = ()
    setups: int = 1  # prepare runs per repetition; more where one is too short to time


WORKLOADS = {
    "select-noisy": Workload(
        "noisy", 1000, ("--subsample", "0"),
        (("select", ("--pop", "8", "--iters", "5", "--delta-stop", "0")),
         ("evaluate", ("--folds", "4", "--pop", "6", "--iters", "2", "--delta-stop", "0"))),
        setups=5,
    ),
    "ingest-full": Workload("easy", 125973, ("--subsample", "20000")),
}

# Tiny sizes for the self-test; same stages and flags otherwise.
SMOKE = {
    "select-noisy": Workload(
        "noisy", 160, ("--subsample", "0"),
        (("select", ("--pop", "3", "--iters", "2", "--delta-stop", "0")),
         ("evaluate", ("--folds", "2", "--pop", "3", "--iters", "2", "--delta-stop", "0"))),
    ),
    "ingest-full": Workload("easy", 3000, ("--subsample", "1000")),
}

END_TO_END = {"setup_s": "s", "stage_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}

PER_LAYER = {
    "dataset.parse_rows_per_s": "rows/s",
    "dataset.encode_rows_per_s": "rows/s",
    "dataset.normalize_s": "s",
    "cli.self_s": "s",
    "svg.render_s": "s",
    "kernels.rows_per_s": "rows/s",
    "kernels.rows": "count",
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "kernels.compiled": "flag",
    "kernels.bench_python_rows_per_s": "rows/s",
    "kernels.bench_compiled_rows_per_s": "rows/s",
    "kernels.bench_identical": "flag",
    "classifier.train_ova_ms": "ms",
    "classifier.hinge_objective_share": "share",
    "classifier.predict_ms": "ms",
    "selection.masks_per_s": "1/s",
    "selection.cache_hit_ratio": "share",
    "selection.objective_calls": "count",
    "selection.distinct_masks": "count",
    "selection.project_features_s": "s",
    "optimizer.iterations": "count",
    "optimizer.self_s": "s",
    "optimizer.fitness_delta_stop_share": "share",
    "evaluation.fold_s_median": "s",
    "evaluation.fold_s_max": "s",
    "evaluation.fold_imbalance": "ratio",
    "evaluation.parallel_efficiency": "share",
    "quality.select_fitness": "score",
    "quality.macro_accuracy": "share",
    "quality.attack_tpr": "share",
    "quality.attack_fpr": "share",
    "trace.overhead_share": "share",
}


class BenchError(Exception):
    """The benchmark cannot run here (not an output-check failure)."""


@dataclass
class Rep:
    """One repetition: ``setups`` prepare runs, then the main stage."""

    seconds: dict[str, float] = field(default_factory=dict)  # last run of each stage
    setup_seconds: list[float] = field(default_factory=list)  # every prepare run
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    stop_reasons: list[str] = field(default_factory=list)
    fold_seconds: list[float] = field(default_factory=list)
    trace_counts: tuple[int, int] | None = None  # (calls, distinct masks)


# --- set-up -------------------------------------------------------------------

def import_program():
    """Import swarmids from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "swarmids" / "cli.py").is_file():
        raise BenchError(f"no swarmids sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import swarmids
    import swarmids.cli

    if not Path(swarmids.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported swarmids from {swarmids.__file__}, not from {src}")
    return swarmids.cli


def corpus_file(family: str, rows: int, seed: int, keep: int = 12) -> Path:
    """Generated corpus for (family, rows, seed), made once by a child process.

    Keeps the ``keep`` most recently used files of each (family, rows).
    """
    cache = WORK / "corpus"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{family}-{rows}-seed{seed}.csv"
    if path.exists():
        os.utime(path)
        return path
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--family", family,
         "--rows", str(rows), "--seed", str(seed), "--out", str(tmp)],
        check=True, timeout=120,
    )
    with tmp.open("rb") as written:  # flush now, not during the timed stages
        os.fsync(written.fileno())
    tmp.replace(path)
    for old in sorted(cache.glob(f"{family}-{rows}-seed*.csv"), key=lambda p: p.stat().st_mtime)[:-keep]:
        old.unlink()
    return path


def source_digest() -> str:
    """Digest of the program's sources, so stored output digests only
    compare runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "swarmids").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


# --- one repetition -----------------------------------------------------------

def stage_argv(stage: str, flags: tuple[str, ...], corpus: Path, out: Path) -> list[str]:
    argv = [stage, "--out", str(out.relative_to(ROOT)), "--seed", str(CLI_SEED),
            "--threads", str(THREADS)]
    if stage == "prepare":
        argv += ["--data", str(corpus.relative_to(ROOT))]
    return argv + list(flags)


def flag(flags: tuple[str, ...], name: str) -> str:
    return flags[flags.index(name) + 1]


def invoke(cli, argv: list[str], recorder) -> tuple[int, float]:
    """Run one CLI stage in this process; returns (exit code, seconds)."""
    span = recorder.span(f"cli.{argv[0]}") if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
    except Exception:  # a crash is a failed invocation, not a crashed benchmark
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _unit_interval(value, where: str, errors: list[str]) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
        errors.append(f"{where} = {value!r} is not finite in [0, 1]")


def check_prepare(out: Path, wl: Workload, flags: tuple[str, ...], rep: Rep) -> list[str]:
    errors = []
    for name in ("prepare_data.csv", "prepare_encoded.csv"):
        digest = _digest(out / name)
        if rep.digests.setdefault(name, digest) != digest:
            errors.append(f"{name} differs between prepare runs")
    subsample = int(flag(flags, "--subsample"))
    expected = subsample if 0 < subsample < wl.rows else wl.rows
    counts = [
        int(line.split(",")[1])
        for line in (out / "prepare_class_histogram.csv").read_text().splitlines()
        if line and not line.startswith(("#", "class,"))
    ]
    if sum(counts) != expected:
        errors.append(f"class histogram sums to {sum(counts)}, expected {expected} rows")
    return errors


def check_select(out: Path, wl: Workload, flags: tuple[str, ...], rep: Rep) -> list[str]:
    errors = []
    rep.digests["select_mask.txt"] = _digest(out / "select_mask.txt")
    fields_ = dict(
        line.split("=", 1)
        for line in (out / "select_mask.txt").read_text().splitlines()
        if line and not line.startswith("#")
    )
    fitness = float(fields_["fitness"])
    if not (math.isfinite(fitness) and 0.0 <= fitness <= 3.0):
        errors.append(f"select fitness {fitness!r} outside [0, 3]")
    for key in ("r_tp", "r_e"):
        _unit_interval(float(fields_[key]), f"select {key}", errors)
    iters = int(flag(flags, "--iters"))
    if int(fields_["iterations"]) != iters or fields_["stop_reason"] != "max_iterations":
        errors.append(
            f"fixed budget broken: {fields_['iterations']} iterations, "
            f"stop_reason {fields_['stop_reason']} (expected {iters}, max_iterations)"
        )
    masks = [
        line.split(",", 1)[0]
        for line in (out / "select_trace.csv").read_text().splitlines()
        if line and line[0] in "01"
    ]
    rep.trace_counts = (len(masks), len(set(masks)))
    rep.stop_reasons.append(fields_["stop_reason"])
    rep.quality["quality.select_fitness"] = fitness
    return errors


def check_evaluate(out: Path, wl: Workload, flags: tuple[str, ...], rep: Rep) -> list[str]:
    errors = []
    rep.digests["evaluate_report.json"] = _digest(out / "evaluate_report.json")
    report = json.loads((out / "evaluate_report.json").read_text())
    for group in ("macro_mean", "macro_std", "weighted_mean"):
        for metric, value in report[group].items():
            _unit_interval(value, f"{group}.{metric}", errors)
    overall = report["attack_vs_normal_overall"]
    for key in ("tpr", "fpr"):
        _unit_interval(overall[key], f"attack_vs_normal_overall.{key}", errors)
    iters = int(flag(flags, "--iters"))
    test_total = 0
    for fold in report["folds"]:
        n = fold["test_size"]
        test_total += n
        rep.stop_reasons.append(fold["goa_stop_reason"])
        if fold["goa_iterations"] != iters or fold["goa_stop_reason"] != "max_iterations":
            errors.append(
                f"fold {fold['index']}: fixed budget broken: {fold['goa_iterations']} iterations, "
                f"stop_reason {fold['goa_stop_reason']} (expected {iters}, max_iterations)"
            )
        tables = [fold["attack_vs_normal"]] + [
            m["counts"] for m in fold["metrics"]["per_class"].values()
        ]
        for table in tables:
            if table["tp"] + table["fn"] + table["fp"] + table["tn"] != n:
                errors.append(f"fold {fold['index']}: confusion total != test_size {n}")
        if sum(fold["metrics"]["support"].values()) != n:
            errors.append(f"fold {fold['index']}: support total != test_size {n}")
        for name, m in fold["metrics"]["per_class"].items():
            for metric in ("tpr", "fpr", "tnr", "fnr", "accuracy"):
                _unit_interval(m[metric], f"fold {fold['index']} {name}.{metric}", errors)
    if test_total != wl.rows:
        errors.append(f"fold test sizes sum to {test_total}, expected {wl.rows}")
    timing = json.loads((out / "evaluate_timing.json").read_text())
    rep.fold_seconds = list(timing["fold_seconds"])
    if len(rep.fold_seconds) != len(report["folds"]):
        errors.append("evaluate_timing.json fold count differs from the report")
    rep.quality["quality.macro_accuracy"] = report["macro_mean"]["accuracy"]
    rep.quality["quality.attack_tpr"] = overall["tpr"]
    rep.quality["quality.attack_fpr"] = overall["fpr"]
    return errors


CHECKS = {"prepare": check_prepare, "select": check_select, "evaluate": check_evaluate}


def run_rep(cli, wl: Workload, corpus: Path, out: Path, recorder=None) -> Rep:
    shutil.rmtree(out, ignore_errors=True)
    rep = Rep()
    for stage, flags in [("prepare", wl.prepare)] * wl.setups + list(wl.search):
        rep.attempted += 1
        code, seconds = invoke(cli, stage_argv(stage, flags, corpus, out), recorder)
        rep.seconds[stage] = seconds
        if stage == "prepare":
            rep.setup_seconds.append(seconds)
        if code != 0:
            errors = [f"exit code {code}"]
        else:
            try:
                errors = CHECKS[stage](out, wl, flags, rep)
            except (OSError, KeyError, ValueError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            rep.failed += 1
            rep.errors += [f"{stage}: {e}" for e in errors]
            break
    shutil.rmtree(out, ignore_errors=True)
    return rep


# --- metrics ------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    by_name: dict[str, list] = {}
    child_s: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds

    def busy(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def units(name):
        return sum(s.count for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(prefix):
        return sum(
            s.seconds - child_s.get(s.id, 0.0)
            for name, group in by_name.items() if name.startswith(prefix) for s in group
        )

    if rep.trace_counts is not None:
        objective_calls, distinct = rep.trace_counts
    else:
        objective_calls, distinct = calls("selection.objective"), calls("selection.mask_fitness")
    folds = rep.fold_seconds
    m = {
        "dataset.parse_rows_per_s": _ratio(units("dataset.parse_kdd"), busy("dataset.parse_kdd")),
        "dataset.encode_rows_per_s": _ratio(
            units("dataset.encode"), busy("dataset.encode") + busy("dataset.fit_encoding")
        ),
        "dataset.normalize_s": busy("dataset.normalize"),
        "cli.self_s": self_s("cli."),
        "svg.render_s": busy("svg.render"),
        "kernels.rows_per_s": _ratio(units("kernels.hinge_epoch"), busy("kernels.hinge_epoch")),
        "kernels.rows": units("kernels.hinge_epoch"),
        "kernels.calls": calls("kernels.hinge_epoch"),
        "kernels.busy_s": busy("kernels.hinge_epoch"),
        "classifier.train_ova_ms": 1000 * _ratio(busy("classifier.train_ova"), calls("classifier.train_ova")),
        "classifier.hinge_objective_share": _ratio(
            busy("classifier.hinge_objective"), busy("classifier.train_binary")
        ),
        "classifier.predict_ms": 1000 * _ratio(busy("classifier.predict"), calls("classifier.predict")),
        "selection.masks_per_s": _ratio(calls("selection.mask_fitness"), busy("selection.objective")),
        "selection.cache_hit_ratio": _ratio(objective_calls - distinct, objective_calls),
        "selection.objective_calls": objective_calls,
        "selection.distinct_masks": distinct,
        "selection.project_features_s": busy("selection.project_features"),
        "optimizer.iterations": _ratio(units("optimizer.run"), calls("optimizer.run")),
        "optimizer.self_s": self_s("optimizer.run"),
        "optimizer.fitness_delta_stop_share": _ratio(
            rep.stop_reasons.count("fitness_delta"), len(rep.stop_reasons)
        ),
        "evaluation.fold_s_median": statistics.median(folds) if folds else 0.0,
        "evaluation.fold_s_max": max(folds, default=0.0),
        "evaluation.fold_imbalance": _ratio(
            max(folds, default=0.0), statistics.fmean(folds) if folds else 0.0
        ),
        "evaluation.parallel_efficiency": (
            _ratio(sum(folds), THREADS * rep.seconds["evaluate"]) if folds else 0.0
        ),
    }
    for name in ("quality.select_fitness", "quality.macro_accuracy", "quality.attack_tpr", "quality.attack_fpr"):
        m[name] = rep.quality.get(name, 0.0)
    return m


# --- measurement --------------------------------------------------------------

def measure(cli, name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import spans as tracing  # perfbench/spans.py, next to this file

    corpus = corpus_file(wl.family, wl.rows, seed)
    run_dir = WORK / "runs" / f"{name}-{os.getpid()}"
    plain: list[Rep] = []
    traced: list[tuple[Rep, list]] = []
    errors: list[str] = []
    attempted = failed = 0
    reference: dict[str, str] = {}
    bench = None
    if trace:
        from kernels import bench_backends

        bench = bench_backends()
    started = time.perf_counter()
    rep_s: list[float] = []
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = len(plain) >= (2 if trace else MIN_REPS) and (not trace or len(traced) >= 2)
        # Stop before a repetition that would end past --seconds, not after it.
        if (enough and elapsed + statistics.median(rep_s) > seconds) or elapsed >= HARD_STOP_S:
            break
        rep_started = time.perf_counter()
        out = run_dir / f"rep{index}"
        if trace and index % 2 == 1:
            recorder = tracing.Recorder()
            with tracing.installed(recorder):
                rep = run_rep(cli, wl, corpus, out, recorder)
            traced.append((rep, recorder.spans))
        else:
            rep = run_rep(cli, wl, corpus, out)
            if index > 0:  # the first repetition fills caches: checked and counted, not timed
                plain.append(rep)
        rep_s.append(time.perf_counter() - rep_started)
        index += 1
        for key, value in rep.digests.items():
            if reference.setdefault(key, value) != value:
                rep.errors.append(f"{key} differs between repetitions of seed {seed}")
                rep.failed += 1
        attempted += rep.attempted
        failed += rep.failed
        errors += rep.errors
    shutil.rmtree(run_dir, ignore_errors=True)

    # Same seed and same sources in this checkout must give the same bytes.
    key = hashlib.sha256(repr((name, wl, seed, source_digest())).encode()).hexdigest()[:20]
    stored_path = WORK / "digests" / f"{key}.json"
    if stored_path.exists():
        stored = json.loads(stored_path.read_text())
        for artifact, digest in reference.items():
            if stored.get(artifact, digest) != digest:
                errors.append(f"{artifact} differs from an earlier run of seed {seed} on the same sources")
                failed += 1
    elif reference:
        stored_path.parent.mkdir(parents=True, exist_ok=True)
        stored_path.write_text(json.dumps(reference, sort_keys=True))

    good = [r for r in plain if not r.errors]
    good_traced = [(r, s) for r, s in traced if not r.errors]
    if not good or (trace and not good_traced):
        raise BenchError("no repetition passed its checks: " + "; ".join(errors[:5]))

    def stage_s(rep):
        if not wl.search:
            return rep.seconds["prepare"]
        return sum(rep.seconds[stage] for stage, _ in wl.search)

    if trace:
        per_rep = [layer_metrics(spans, rep) for rep, spans in good_traced]
        metrics = {n: statistics.median(m[n] for m in per_rep) for n in per_rep[0]}
        rates = bench["rows_per_s"]
        compiled = [v for k, v in rates.items() if k != "python"]
        plain_s = statistics.median(stage_s(r) for r in good)
        traced_s = statistics.median(stage_s(r) for r, _ in good_traced)
        from swarmids._kernels import BACKEND

        metrics.update({
            "kernels.compiled": float(BACKEND != "python"),
            "kernels.bench_python_rows_per_s": rates.get("python", 0.0),
            "kernels.bench_compiled_rows_per_s": max(compiled, default=0.0),
            "kernels.bench_identical": float(bench["identical"]),
            "trace.overhead_share": (traced_s - plain_s) / plain_s,
        })
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(t for r in good for t in r.setup_seconds),
            "stage_s": statistics.median(stage_s(r) for r in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - failed / attempted,
        }
        units = END_TO_END
    quality = {}
    for rep in good + [r for r, _ in good_traced]:
        quality.update(rep.quality)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "errors": errors,
        "quality": quality,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "stage_seconds": {
            "untraced": [r.seconds for r in plain],
            "traced": [r.seconds for r, _ in traced],
        },
        "kernel_bench": bench,
        "spans": [s._asdict() for _, spans in good_traced for s in spans],
    }


def metadata(name: str, wl: Workload, seed: int, trace: bool) -> dict:
    import numpy
    from swarmids._kernels import BACKEND, available_backends

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "kernel_backend": BACKEND,
        "available_backends": sorted(available_backends()),
        "SWARMIDS_KERNEL": os.environ.get("SWARMIDS_KERNEL", ""),
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workload_config": {**asdict(wl), "cli_seed": CLI_SEED},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    try:
        cli = import_program()
        meta = metadata(args.workload, wl, args.seed, bool(args.trace))
        result = measure(cli, args.workload, wl, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(meta, sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6g} {entry['unit']}")
    if not args.trace:
        for metric, value in sorted(result["quality"].items()):
            print(f"{metric:40s} {value:14.6g} (output quality, traced runs report it)")
    for error in result["errors"]:
        print(f"check failed: {error}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    (results / f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=2, sort_keys=True))
    if spans:
        with (results / f"{stem}.spans.jsonl").open("w") as stream:
            stream.writelines(json.dumps(s) + "\n" for s in spans)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
