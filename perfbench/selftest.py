"""Self-test of the benchmark: generator determinism, metric and workload
names against ``BENCHMARK.json``, a tiny smoke run of every workload in
both modes, and a refusal to run outside a checkout.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute. Not collected by
pytest on purpose: it runs the benchmark, not the program's tests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_generator_is_deterministic(tmp: Path) -> None:
    for family in corpus.FAMILIES:
        text = corpus.make_corpus(400, 7, family)
        expect(text == corpus.make_corpus(400, 7, family), f"{family}: same seed, different bytes")
        expect(text != corpus.make_corpus(400, 8, family), f"{family}: seed has no effect")
        lines = text.splitlines()
        expect(len(lines) == 400, f"{family}: {len(lines)} lines, expected 400")
        expect(all(len(line.split(",")) == 43 for line in lines), f"{family}: not 43 fields")
    out = tmp / "cli.csv"
    subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--family", "noisy", "--rows", "400",
         "--seed", "7", "--out", str(out)],
        check=True, timeout=60,
    )
    expect(out.read_text() == corpus.make_corpus(400, 7, "noisy"), "CLI and library output differ")


def test_names_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(list(run.SMOKE) == list(run.WORKLOADS), "smoke sizes cover every workload")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"{key} names or units differ from run.py")


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    expect(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_runs() -> None:
    for workload in run.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = smoke(workload, trace)
            where = f"{workload} trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{where}: not correct")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            expect(set(result["metrics"]) == set(table), f"{where}: metric names")
            for name, entry in result["metrics"].items():
                expect(entry["unit"] == table[name], f"{where}: unit of {name}")
                expect(math.isfinite(entry["value"]), f"{where}: {name} not finite")
                if trace == 0:
                    expect(entry["value"] > 0, f"{where}: {name} is 0")


def test_refuses_outside_a_checkout(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "select-noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(done.returncode != 0, "ran without the program's sources")
    expect('"correct"' not in done.stdout, "printed a result without the program's sources")


def main() -> int:
    tmp = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        test_generator_is_deterministic(tmp)
        test_names_match_benchmark_json()
        test_refuses_outside_a_checkout(tmp)
        test_smoke_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
