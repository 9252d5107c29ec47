"""Backend kernels: availability, hand-checked arithmetic, input checks, and
bit-identical results between the compiled extension and the pure-Python twin.

The compiled backend under test is built by this module from the repository's
own ``setup.py`` into a temporary directory, so the suite checks what an
install builds, without a prior build step and without writing into ``src/``.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest

from swarmids import classifier
from swarmids._kernels import available_backends
from swarmids.dataset import parse_kdd
from swarmids.errors import DataWarning
from swarmids.evaluation import cross_validate, report_to_json
from swarmids.optimizer import GoaConfig

from _synth import make_kdd_csv

REPO = Path(__file__).resolve().parent.parent


def _missing_toolchain():
    """What building the extension needs and this machine lacks, or None."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        return f"C compiler {' '.join(cc)!r} not found"
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not header.is_file():
        return f"{header} not found"
    return None


MISSING_TOOLCHAIN = _missing_toolchain()


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """Run ``setup.py build_ext`` into a temp dir and load the result by path.

    Returns ``(hinge_epoch or None, build output)``; a failed build is
    reported by ``test_compiled_backend_built``.
    """
    if MISSING_TOOLCHAIN:
        return None, MISSING_TOOLCHAIN
    tmp = tmp_path_factory.mktemp("build_ext")
    env = {k: v for k, v in os.environ.items() if k != "SWARMIDS_SKIP_EXT"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    built = sorted((tmp / "lib" / "swarmids" / "_kernels").glob("_hinge_sgd.*"))
    if proc.returncode != 0 or not built:
        return None, log
    spec = importlib.util.spec_from_file_location("swarmids._kernels._hinge_sgd", built[0])
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, f"{log}\n{exc!r}"
    return module.hinge_epoch, log


@pytest.fixture(scope="module")
def backends(build):
    out = available_backends()
    if build[0] is not None:
        out["cython"] = build[0]
    return out


def test_python_backend_always_present(backends):
    assert "python" in backends


@pytest.mark.skipif(MISSING_TOOLCHAIN is not None, reason=f"cannot build the extension: {MISSING_TOOLCHAIN}")
def test_compiled_backend_built(backends, build):
    assert "cython" in backends, f"setup.py build_ext failed to build the extension:\n{build[1]}"


def test_single_step_hand_arithmetic(backends):
    # One violated sample: eta = 1/(lam*(t0+1)) = 2, factor = 0,
    # w = 0*0 + 2*1*2 = 4, b = 0 - 2 = -2.
    for epoch in backends.values():
        x = np.array([[2.0]])
        y = np.array([1.0])
        order = np.array([0], dtype=np.int64)
        w = np.zeros(1)
        b, t = epoch(x, y, order, w, 0.0, 0.5, 0.0, 0)
        assert w[0] == 4.0
        assert b == -2.0
        assert t == 1


def test_non_violated_sample_only_shrinks(backends):
    # Margin 4 >= 1: w scales by (1 - eta*lam) = 0.5 with eta = 1/(1*(1+1)).
    for epoch in backends.values():
        x = np.array([[2.0]])
        y = np.array([1.0])
        order = np.array([0], dtype=np.int64)
        w = np.array([2.0])
        b, t = epoch(x, y, order, w, 0.0, 1.0, 1.0, 0)
        assert w[0] == 1.0
        assert b == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(60, 5), (200, 17), (35, 1)])
def test_backends_bit_identical(backends, seed, shape):
    if len(backends) < 2:
        pytest.skip("only one backend available")
    rng = np.random.default_rng(seed)
    n, d = shape
    x = np.ascontiguousarray(rng.normal(size=(n, d)))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    lam = 1.0 / n
    t0 = float(n)
    results = {}
    for name, epoch in backends.items():
        w = np.zeros(d)
        b, t = 0.0, 0
        for _ in range(3):
            order = np.random.default_rng(seed + t).permutation(n).astype(np.int64)
            b, t = epoch(x, y, order, w, b, lam, t0, t)
        results[name] = (w, b, t)
    w_c, b_c, t_c = results["cython"]
    w_p, b_p, t_p = results["python"]
    assert np.array_equal(w_c, w_p)
    assert b_c == b_p
    assert t_c == t_p


def test_out_of_range_order_entry_raises(backends):
    # Rejected before the first update, so w stays untouched.
    x = np.ones((3, 2))
    y = np.array([1.0, -1.0, 1.0])
    w = np.zeros(2)
    for epoch in backends.values():
        for bad in (3, -1):
            order = np.array([0, bad], dtype=np.int64)
            with pytest.raises(IndexError):
                epoch(x, y, order, w, 0.0, 1.0, 1.0, 0)
            assert not w.any()


def test_shape_mismatch_raises(backends):
    x = np.ones((3, 2))
    y = np.array([1.0, -1.0, 1.0])
    order = np.arange(3, dtype=np.int64)
    for epoch in backends.values():
        with pytest.raises(ValueError):  # w longer than a row of x
            epoch(x, y, order, np.zeros(3), 0.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):  # fewer labels than rows
            epoch(x, y[:2], order[:2], np.zeros(2), 0.0, 1.0, 1.0, 0)


def _readonly(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("bad", [
    {"x": np.ones((3, 2), dtype=np.float32)},
    {"x": np.ones(6)},
    {"x": np.asfortranarray(np.ones((3, 2)))},
    {"y": np.ones(6)[::2]},
    {"order": np.arange(3, dtype=np.int32)},
    {"order": np.arange(3, dtype=np.uint64)},
    {"w": _readonly(np.zeros(2))},
], ids=["x-float32", "x-1d", "x-fortran", "y-strided", "order-int32", "order-uint64", "w-readonly"])
def test_compiled_rejects_bad_buffers(backends, bad):
    if "cython" not in backends:
        pytest.skip("compiled backend not built")
    args = {"x": np.ones((3, 2)), "y": np.array([1.0, -1.0, 1.0]),
            "order": np.arange(3, dtype=np.int64), "w": np.zeros(2)}
    args.update(bad)
    with pytest.raises(ValueError):
        backends["cython"](args["x"], args["y"], args["order"], args["w"], 0.0, 1.0, 1.0, 0)


def test_compiled_kernel_on_fold_threads(backends, monkeypatch):
    # The compiled kernel releases the GIL, so evaluate's fold pool runs it
    # concurrently; the report must not depend on backend or thread count.
    if "cython" not in backends:
        pytest.skip("compiled backend not built")
    records = parse_kdd(make_kdd_csv(400, seed=7))
    reports = []
    for epoch in (backends["python"], backends["cython"]):
        monkeypatch.setattr(classifier, "hinge_epoch", epoch)
        for threads in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DataWarning)
                report = cross_validate(
                    records, k=3, goa_config=GoaConfig(population_size=6, max_iterations=3),
                    svm_config=classifier.SvmConfig(epochs=5), seed=3,
                    fitness_epochs=2, threads=threads,
                )
            reports.append(report_to_json(report))
    assert len(reports) == 4 and len(set(reports)) == 1
