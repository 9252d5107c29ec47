"""Command-line pipeline: prepare -> select -> evaluate, plus an all-in-one
``pipeline`` command.

Artifacts are stage-prefixed and embed the config digest and tool version,
so a run directory is auditable and interrupted runs show exactly which
stages completed. Reruns with the same config and seed are byte-identical
except the timing sidecar.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, TextIO

import numpy as np

from . import __version__
from ._kernels import BACKEND, BUILD_ERROR
from .classifier import SvmConfig
from .dataset import (
    CLASS_NAMES,
    FEATURE_NAMES,
    apply_normalize,
    class_histogram,
    class_labels,
    encode,
    encoded_lines,
    encoding_to_text,
    fit_encoding,
    fit_normalize,
    norm_stats_to_text,
    parse_kdd,
    parse_labels,
    read_encoded,
    stratified_sample_indices,
)
from .errors import ConfigError, DataError, SwarmidsError
from .evaluation import METRIC_NAMES, cross_validate, fold_workers, report_to_json
from .optimizer import GoaConfig, history_csv, mask_to_bitstring, run
from .seeds import derive_seed
from .selection import WrapperObjective
from .svg import bar_chart, line_chart


@dataclass(frozen=True)
class RunConfig:
    """Full run configuration; every field has a default and a persisted
    config replays a run bit-identically (timing aside)."""

    data: str = ""
    out: str = "swarmids_out"
    seed: int = 0
    folds: int = 10
    subsample: int = 20000          # 0 keeps all rows
    pop: int = 30
    iters: int = 40
    delta_stop: float = 1e-3
    c_max: float = 1.0
    c_min: float = 1e-5
    s_f: float = 0.5
    s_l: float = 1.5
    swap_prob: float = 0.2
    rev_prob: float = 1.0
    svm_c: float = 1.0
    epochs: int = 20
    step_offset: float = 0.0        # 0 = auto (ceil(C*N))
    fitness_epochs: int = 5
    threads: int = 0                # evaluate's fold worker processes; 0 = usable CPUs
    plots: bool = True

    def __post_init__(self):
        for name in ("subsample", "threads"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        # Build every config the stages build, so nonsense fails here and
        # not after a prepare or inside the swarm.
        svm = self.svm_config(0)
        try:
            replace(svm, epochs=self.fitness_epochs)
        except ConfigError as exc:
            raise ConfigError(f"fitness_epochs: {exc}") from None
        self.goa_config(0)

    def goa_config(self, seed: int, dim: int = len(FEATURE_NAMES)) -> GoaConfig:
        return GoaConfig(
            population_size=self.pop,
            dim=dim,
            max_iterations=self.iters,
            fitness_delta_stop=self.delta_stop,
            c_max=self.c_max,
            c_min=self.c_min,
            s_f=self.s_f,
            s_l=self.s_l,
            swap_prob=self.swap_prob,
            reversion_prob=self.rev_prob,
            seed=seed,
        )

    def svm_config(self, seed: int) -> SvmConfig:
        offset = None if self.step_offset == 0.0 else self.step_offset
        return SvmConfig(c=self.svm_c, epochs=self.epochs, step_offset=offset, seed=seed)


def config_to_text(config: RunConfig) -> str:
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def _coerce(name: str, kind: type, raw: str):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r} as {kind.__name__}") from None


def _config_values(text: str) -> dict:
    """Parse a flat key=value config into field values; unknown keys are
    hard errors. Each value takes the type of its field's default."""
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        if key not in kinds:
            raise ConfigError(f"unknown config key: {key!r}")
        values[key] = _coerce(key, kinds[key], value.strip())
    return values


def config_from_text(text: str) -> RunConfig:
    """The checked ``RunConfig`` a key=value config describes."""
    return RunConfig(**_config_values(text))


def config_digest(config: RunConfig) -> str:
    """Digest of the run configuration, excluding the output location so
    identical runs into different directories share identical artifacts."""
    canonical = config_to_text(replace(config, out=""))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def _meta(config: RunConfig, stage: str) -> dict[str, str]:
    return {
        "tool": f"swarmids {__version__}",
        "stage": stage,
        "config_digest": config_digest(config),
    }


def _meta_lines(meta: dict[str, str]) -> str:
    return "".join(f"# {k}={v}\n" for k, v in meta.items())


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str, lines: Iterable[str] = ()) -> None:
    """Write ``text``, then each of ``lines``: a large artifact passes its
    rows one at a time, so its whole text is never held."""
    with path.open("w", encoding="utf-8") as stream:
        stream.write(text)
        stream.writelines(lines)


_DATA_MISSING = "dataset file not found: {}"
_PREPARED_MISSING = "prepared artifact missing: {} (run prepare first)"


def _not_utf8(path: Path) -> str:
    """Where in ``path`` the first byte that is not UTF-8 sits."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8"
    return f"{path}: not UTF-8"


def _read(path: Path, missing: str, read: Callable[[TextIO], object], encoding: str = "utf-8"):
    """``read`` of ``path`` opened as text, or ``DataError(missing.format(path))``
    if it is absent and a ``DataError`` naming the line if it is not UTF-8."""
    if not path.exists():
        raise DataError(missing.format(path))
    try:
        with path.open("r", encoding=encoding) as stream:
            return read(stream)
    except UnicodeDecodeError:
        raise DataError(_not_utf8(path)) from None


def cmd_prepare(config: RunConfig) -> int:
    """Parse, subsample, encode, and normalize; write audit artifacts."""
    out = _out_dir(config)
    meta = _meta(config, "prepare")
    stage_seed = derive_seed(config.seed, "prepare")

    if not config.data:
        raise ConfigError("no dataset path given (use --data or a config file)")
    data = Path(config.data)
    records = None
    n = config.subsample
    if n:
        # The subsample is drawn from the attack names alone, and a second
        # read keeps only the drawn records.
        names = _read(data, _DATA_MISSING, parse_labels)
        if not data.is_file():
            raise DataError(f"{data}: --subsample reads it twice, so it must be a regular file")
        if n < len(names):
            seed = derive_seed(stage_seed, "subsample")
            keep = stratified_sample_indices(class_labels(names), n, seed).tolist()
            records = _read(data, _DATA_MISSING, partial(parse_kdd, keep=keep, labels=names))
        elif names and n > len(names):
            print(f"note: subsample {n} exceeds {len(names)} rows; keeping all", file=sys.stderr)
        del names
    if records is None:
        records = _read(data, _DATA_MISSING, parse_kdd)
    if not records:
        raise DataError(f"no records in {config.data}")
    # Calls go through names the benchmark patches. The encoded matrix is
    # normalized in place, and the records live until prepare_data.csv is written.
    encoding = fit_encoding(records, fitted_on=f"prepare[{len(records)} rows]")
    raw = encode(records, encoding)
    stats = fit_normalize(raw)
    normalized = apply_normalize(raw, stats)

    _write(out / "prepare_config.txt", _meta_lines(meta) + config_to_text(config))
    _write(
        out / "prepare_data.csv",
        _meta_lines({**meta, "rows": str(normalized.n_rows)}),
        (r.line + "\n" for r in records),
    )
    del records
    _write(out / "prepare_encoding.txt", _meta_lines(meta) + encoding_to_text(encoding))
    _write(out / "prepare_norm_stats.txt", _meta_lines(meta) + norm_stats_to_text(stats))
    histogram = class_histogram(normalized.labels)
    _write(
        out / "prepare_class_histogram.csv",
        _meta_lines(meta) + "class,count\n"
        + "".join(f"{name},{count}\n" for name, count in histogram.items()),
    )
    _write(
        out / "prepare_encoded.csv",
        _meta_lines({**meta, "columns": "41 normalized features + label index"}),
        encoded_lines(normalized),
    )
    print(
        f"prepared {normalized.n_rows} rows, {normalized.n_features} features, "
        f"{sum(count > 0 for count in histogram.values())} classes -> {out}"
    )
    return 0


def cmd_select(config: RunConfig) -> int:
    """Run feature selection on the prepared data; write mask, history, plot."""
    out = _out_dir(config)
    meta = _meta(config, "select")
    stage_seed = derive_seed(config.seed, "select")

    path = Path(config.out) / "prepare_encoded.csv"  # utf-8-sig skips a byte-order mark
    dataset = _read(path, _PREPARED_MISSING, partial(read_encoded, name=str(path)), "utf-8-sig")

    with (out / "select_trace.csv").open("w", encoding="utf-8") as trace:
        trace.write(_meta_lines(meta))
        objective = WrapperObjective(
            dataset,
            run_seed=derive_seed(stage_seed, "fitness"),
            svm_config=config.svm_config(seed=0),
            fitness_epochs=config.fitness_epochs,
            trace=trace,
        )
        n_features = dataset.n_features
        del dataset  # the objective keeps its own fit and validation rows
        goa = config.goa_config(seed=derive_seed(stage_seed, "goa"), dim=n_features)
        result = run(objective, goa)
        breakdown = objective.breakdown(result.best_mask)
    mask_bits = mask_to_bitstring(result.best_mask)
    selected = [FEATURE_NAMES[i] for i in np.flatnonzero(result.best_mask)]
    mask_lines = [
        f"mask={mask_bits}",
        f"popcount={breakdown.n_f}",
        f"fitness={breakdown.fitness!r}",
        f"r_tp={breakdown.r_tp!r}",
        f"r_e={breakdown.r_e!r}",
        f"stop_reason={result.stop_reason}",
        f"iterations={len(result.history)}",
    ] + [f"selected.{i}={name}" for i, name in enumerate(selected)]
    _write(out / "select_config.txt", _meta_lines(meta) + config_to_text(config))
    _write(out / "select_mask.txt", _meta_lines(meta) + "\n".join(mask_lines) + "\n")
    _write(out / "select_history.csv", _meta_lines(meta) + history_csv(result.history))
    if config.plots:
        xs = [rec.iteration for rec in result.history]
        ys = [rec.best_fitness for rec in result.history]
        _write(
            out / "select_convergence.svg",
            line_chart(xs, ys, "Best fitness per iteration", "iteration", "fitness", meta),
        )
    print(
        f"selected {breakdown.n_f}/{n_features} features "
        f"(fitness {breakdown.fitness:.4f}, {len(result.history)} iterations) -> {out}"
    )
    return 0


def _usable_cpus() -> int:
    """How many processors this process may run on (its affinity mask where
    the platform has one, else every processor)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_evaluate(config: RunConfig) -> int:
    """Cross-validate the pipeline on the prepared data; write report and plots."""
    out = _out_dir(config)
    meta = _meta(config, "evaluate")
    stage_seed = derive_seed(config.seed, "evaluate")

    records = _read(Path(config.out) / "prepare_data.csv", _PREPARED_MISSING, parse_kdd)
    threads = config.threads or _usable_cpus()
    started = time.perf_counter()
    report = cross_validate(
        records,
        k=config.folds,
        goa_config=config.goa_config(seed=0),
        svm_config=config.svm_config(seed=0),
        seed=stage_seed,
        fitness_epochs=config.fitness_epochs,
        threads=threads,
    )
    elapsed = time.perf_counter() - started

    _write(out / "evaluate_config.txt", _meta_lines(meta) + config_to_text(config))
    _write(out / "evaluate_report.json", report_to_json(report, meta=meta))
    _write(
        out / "evaluate_timing.json",
        json.dumps(
            {
                "meta": meta,
                "total_seconds": elapsed,
                "fold_seconds": [f.seconds for f in report.folds],
                "kernel_backend": BACKEND,
                "threads": threads,
                "fold_workers": fold_workers(threads, report.k),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    confusion_lines = ["fold,class,tp,fn,fp,tn"]
    for fold in report.folds:
        for name, c in fold.metrics.per_class.items():
            confusion_lines.append(f"{fold.index},{name},{c.tp},{c.fn},{c.fp},{c.tn}")
    _write(
        out / "evaluate_confusion.csv",
        _meta_lines(meta) + "\n".join(confusion_lines) + "\n",
    )
    if config.plots:
        for metric in METRIC_NAMES:
            labels = list(CLASS_NAMES) + ["Average"]
            per_class = [
                float(np.mean([f.metrics.value(name, metric) for f in report.folds]))
                for name in CLASS_NAMES
            ]
            values = per_class + [report.macro_mean[metric]]
            _write(
                out / f"evaluate_{metric}.svg",
                bar_chart(
                    labels,
                    values,
                    f"{metric.upper()} per class (mean over {report.k} folds)",
                    metric.upper(),
                    meta,
                ),
            )
    print(
        f"evaluated {report.k} folds: macro accuracy "
        f"{report.macro_mean['accuracy']:.4f} ± {report.macro_std['accuracy']:.4f} -> {out}"
    )
    return 0


def cmd_pipeline(config: RunConfig) -> int:
    """prepare, select, and evaluate in sequence under one master seed."""
    for stage in (cmd_prepare, cmd_select, cmd_evaluate):
        stage(config)  # a stage returns 0 or raises
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# One --flag-name per RunConfig field; plots is switched off by --no-plots.
_FLAG_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name != "plots")


def build_parser() -> _Parser:
    parser = _Parser(prog="swarmids", description=__doc__)
    parser.add_argument("--version", action="version", version=f"swarmids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", default=None, help="key=value config file")
        for field_name in _FLAG_FIELDS:
            default = getattr(defaults, field_name)
            p.add_argument(
                "--" + field_name.replace("_", "-"),
                dest=field_name,
                type=type(default),
                default=None,
                help=f"default: {default}",
            )
        p.add_argument(
            "--no-plots", dest="no_plots", action="store_true", help="skip SVG output"
        )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values overridden by explicit flags, checked once."""
    values = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            raise ConfigError(_not_utf8(path)) from None
        values = _config_values(text)
    values.update(
        (name, getattr(args, name)) for name in _FLAG_FIELDS if getattr(args, name) is not None
    )
    if args.no_plots:
        values["plots"] = False
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        config = _merge_config(args)
        if BACKEND == "python" and args.command != "prepare":
            print(
                "note: SGD kernel backend 'python' (the pure-Python twin, much slower); "
                f"the compiled kernel was not built: {BUILD_ERROR}",
                file=sys.stderr,
            )
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SwarmidsError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
