"""Bottom-layer record: SGD kernel rows/s for every available backend.

The same measurement as ``benchmarks/bench_kernels.py`` (one shared random
problem, ``epochs`` shuffled epochs per backend), returned as data so the
harness can fold it into its traced result. Runs standalone too:

    python3 perfbench/kernels.py [--rows N] [--dims D] [--epochs E] [--seed S]

Needs ``swarmids`` importable (run from the repository root with
``PYTHONPATH=src``, or through ``perfbench/run.py``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np


def bench_backends(rows: int = 20000, dims: int = 20, epochs: int = 5, seed: int = 0) -> dict:
    """Rows/s per backend and whether all backends agree bit for bit."""
    from swarmids._kernels import available_backends

    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(rng.uniform(0, 1, (rows, dims)))
    y = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    lam, t0 = 1.0 / rows, float(rows)
    orders = [rng.permutation(rows).astype(np.int64) for _ in range(epochs)]

    rates, models = {}, {}
    for name, epoch_fn in sorted(available_backends().items()):
        w = np.zeros(dims)
        b, t = 0.0, 0
        start = time.perf_counter()
        for order in orders:
            b, t = epoch_fn(x, y, order, w, b, lam, t0, t)
        rates[name] = rows * epochs / (time.perf_counter() - start)
        models[name] = (w.tobytes(), b)
    identical = len(set(models.values())) == 1
    return {"rows": rows, "dims": dims, "epochs": epochs, "rows_per_s": rates, "identical": identical}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, default=20000)
    parser.add_argument("--dims", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = bench_backends(args.rows, args.dims, args.epochs, args.seed)
    print(f"rows={args.rows} dims={args.dims} epochs={args.epochs}")
    for name, rate in result["rows_per_s"].items():
        print(f"  {name:7s}: {rate:14,.0f} rows/s")
    print(f"  backends: {len(result['rows_per_s'])}   bit-identical results: {result['identical']}")


if __name__ == "__main__":
    main()
