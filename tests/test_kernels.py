"""Backend kernels: availability, hand-checked arithmetic, input checks,
pinned weight bytes, and bit-identical results between the compiled library
and the pure-Python twin, for ``hinge_train`` (each backend's one SGD
function) and ``hinge_epoch`` (one epoch of one plane through it).

The compiled backend under test is the ``build`` fixture's: the package's
own ``_kernels.build`` run into a temporary directory and bound by its own
``load_compiled``, so the suite checks what an import builds and loads,
whichever backend the import itself chose. Also the build: its cache key,
its fallback to the twin, and builds racing on one directory.
"""

import hashlib
import io
import operator
import sys
import threading
import warnings
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

from swarmids import _kernels, classifier
from swarmids._kernels import _hinge_sgd_py, available_backends, hinge_epoch, load_compiled
from swarmids.dataset import Dataset, parse_kdd
from swarmids.errors import DataWarning
from swarmids.evaluation import cross_validate, report_to_json
from swarmids.optimizer import GoaConfig
from swarmids.selection import WrapperObjective

from _synth import make_kdd_csv
from conftest import COMPILER, MISSING_TOOLCHAIN


@pytest.fixture(scope="module")
def backends(build):
    out = available_backends()
    if build[0] is not None:
        out["compiled"] = partial(hinge_epoch, train=build[0])
    return out


@pytest.fixture(scope="module")
def train_backends(build):
    out = {"python": _hinge_sgd_py.hinge_train}
    if build[0] is not None:
        out["compiled"] = build[0]
    return out


def _train(train, x, y, orders, mask, w, b, lam, t0, t):
    """One ``train`` call over ``orders`` (epochs, planes, steps), with fresh
    epoch-end buffers; returns the new step counter, ``w_epochs`` and
    ``b_epochs``."""
    w_epochs = np.full((len(orders),) + w.shape, np.nan)
    b_epochs = np.full((len(orders), len(b)), np.nan)
    t = train(x, y, orders, mask, w, b, w_epochs, b_epochs, lam, t0, t)
    return t, w_epochs, b_epochs


def test_python_backend_always_present(backends):
    assert "python" in backends


@pytest.mark.skipif(MISSING_TOOLCHAIN is not None, reason=f"cannot build the kernel library: {MISSING_TOOLCHAIN}")
def test_compiled_backend_built(backends, build):
    assert "compiled" in backends, f"the kernel library failed to build: {build[1]}"


def test_library_without_symbol_fails_to_load():
    # A shared library that lacks hinge_train, at the kernel's cache path,
    # fails the import and names the file.
    path = next(Path(np.__file__).parent.glob("*/_multiarray_umath.*"))
    with pytest.raises(ImportError) as info:
        load_compiled(path)
    assert str(info.value) == f"{path} is not a hinge_train library"


# A compiler that writes part of its output and two lines of diagnostics,
# then exits 1.
FAILING_COMPILER = [sys.executable, "-c", "import sys; "
                    "open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'partial'); "
                    "sys.exit('k.c: In function f:\\nk.c:3:1: error: expected ;')"]


def test_failed_build_falls_back_to_the_twin(tmp_path):
    # The twin runs, the reason gives the compiler's first error line, and
    # no file is left: neither the temp file nor a partial library that a
    # later import would find.
    train, backend, error = _kernels.choose_backend(tmp_path / "cache", compiler=FAILING_COMPILER)
    assert (train, backend) == (_hinge_sgd_py.hinge_train, "python")
    assert error == f"C compiler {sys.executable!r} exited with status 1: k.c:3:1: error: expected ;"
    assert list((tmp_path / "cache").iterdir()) == []


def test_unrunnable_compiler_and_unwritable_cache_fall_back(tmp_path):
    _, backend, error = _kernels.choose_backend(tmp_path, compiler=[str(tmp_path / "no-cc")])
    assert backend == "python" and error.startswith(f"cannot run C compiler {str(tmp_path / 'no-cc')!r}: ")
    _, backend, error = _kernels.choose_backend(tmp_path / "a" / "b", compiler=FAILING_COMPILER)
    assert backend == "python" and error.startswith(f"cannot write to cache directory {tmp_path / 'a' / 'b'}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(MISSING_TOOLCHAIN is not None, reason=f"cannot build the kernel library: {MISSING_TOOLCHAIN}")
def test_edited_source_gets_its_own_library(tmp_path):
    # The library's name carries a key over the source and the flags, so
    # an edit builds a new file and never loads the old one; an unchanged
    # source and flags find the file they built.
    source = tmp_path / "_hinge_sgd.c"
    source.write_bytes(_kernels.SOURCE.read_bytes())
    first = _kernels.build(tmp_path, source, COMPILER)
    assert first.name.startswith("_hinge_sgd-") and first.parent == tmp_path
    assert first.stat().st_mode & 0o777 == 0o755  # every user of an install can load it
    assert _kernels.build(tmp_path, source, FAILING_COMPILER) == first
    with pytest.raises(_kernels.BuildError):  # other flags: another library, built anew
        _kernels.build(tmp_path, source, FAILING_COMPILER, _kernels.FLAGS + ("-g",))
    source.write_bytes(source.read_bytes() + b"/* edited */\n")
    second = _kernels.build(tmp_path, source, COMPILER)
    assert second != first
    assert sorted(tmp_path.iterdir()) == sorted([source, first, second])
    assert all(callable(load_compiled(path)) for path in (first, second))


@pytest.mark.skipif(MISSING_TOOLCHAIN is not None, reason=f"cannot build the kernel library: {MISSING_TOOLCHAIN}")
def test_racing_builds_both_load(tmp_path):
    # Two builds of one library into one directory at once each compile to
    # their own temp file and rename it into place, so both load a whole
    # library and no temp file is left.
    barrier = threading.Barrier(2, timeout=60)
    paths = []

    def race():
        barrier.wait()
        paths.append(_kernels.build(tmp_path, compiler=COMPILER))

    threads = [threading.Thread(target=race) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads) and len(paths) == 2
    assert paths[0] == paths[1] and list(tmp_path.iterdir()) == [paths[0]]
    for path in paths:  # test_single_step_hand_arithmetic's step
        w = np.zeros(1)
        assert hinge_epoch(np.array([[2.0]]), np.ones(1), np.zeros(1, dtype=np.int64), w, 0.0, 0.5, 0.0, 0,
                           train=load_compiled(path)) == (-2.0, 1) and w[0] == 4.0


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
    w_c, b_c, t_c = results["compiled"]
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


def test_compiled_kernel_on_fold_threads(train_backends, monkeypatch):
    # evaluate's folds run in forked worker processes on either backend;
    # the report must not depend on backend or worker count.
    if "compiled" not in train_backends:
        pytest.skip("compiled backend not built")
    records = parse_kdd(make_kdd_csv(400, seed=7))
    reports = []
    for name in ("python", "compiled"):
        monkeypatch.setattr(classifier, "hinge_train", train_backends[name])
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


def _batch_problem(seed, rows, features, planes):
    """Rows with negative and zero features, one label row, order row and
    mask column per plane (never empty), zero weights."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, features))
    x[rng.random(x.shape) < 0.2] = 0.0
    y = np.where(rng.random((planes, rows)) < 0.5, -1.0, 1.0)
    mask = rng.random((features, planes)) < 0.6
    mask[0, :] = True
    if planes > 1:
        mask[:, 1] = mask[:, 0]  # two planes on one mask, like two classes
    if planes > 2:
        mask[:, 2] = np.roll(mask[:, 0], 1)  # as many features, other columns
    return x, y, mask


# A full-width plane between two 3-column masks. The second selects columns
# 0-2, the first three the full plane lists, so a column copy kept by
# mistake across the full plane would pass for its own.
FULL_BETWEEN_PARTIALS = np.array([[0, 1, 1, 0, 1, 0], [1] * 6, [1, 1, 1, 0, 0, 0]], dtype=bool).T.copy()


LAYOUTS = {
    "60x5x4": ((60, 5, 4), None),
    "90x41x7": ((90, 41, 7), None),
    "one-plane": ((35, 41, 1), None),
    "full-width": ((50, 5, 4), np.ones((5, 4), dtype=bool)),
    "full-between-partials": ((50, 6, 3), FULL_BETWEEN_PARTIALS),
    # Planes that all select every column, like each fold's final model (5
    # planes).
    "full-width-2": ((40, 7, 2), np.ones((7, 2), dtype=bool)),
    "full-width-3": ((45, 9, 3), np.ones((9, 3), dtype=bool)),
    "final-model": ((80, 17, 5), np.ones((17, 5), dtype=bool)),
}


def _layout(name, seed):
    """Rows, labels, mask and seeded orders of three epochs for a layout."""
    (rows, features, planes), masks = LAYOUTS[name]
    x, y, mask = _batch_problem(seed, rows, features, planes)
    if masks is not None:
        mask = masks
    rng = np.random.default_rng(seed)
    orders = np.stack([np.stack([rng.permutation(rows) for _ in range(planes)]) for _ in range(3)])
    return x, y, mask, orders


def _check_batch(backends, train_backends, x, y, mask, orders, w0, b0):
    """Train the batch from ``w0``, ``b0`` on every backend; each plane must
    equal every backend's chain of ``hinge_epoch`` calls on its projected
    columns from the same start, byte for byte, and unselected weights keep
    their bytes."""
    rows, (features, planes) = len(x), mask.shape
    lam, t0 = 1.0 / rows, float(rows)
    expected = {}
    for name, epoch in backends.items():
        for p in range(planes):
            xp = np.ascontiguousarray(x[:, mask[:, p]])
            w = w0[mask[:, p], p].copy()
            b, t = float(b0[p]), 5
            for order in orders:
                b, t = epoch(xp, y[p], np.ascontiguousarray(order[p]), w, b, lam, t0, t)
            expected[name, p] = (w.tobytes(), np.float64(b).tobytes(), t)
    for name, train in train_backends.items():
        w, b = w0.copy(), b0.copy()
        t, _, _ = _train(train, x, y, orders, mask, w, b, lam, t0, 5)
        for p in range(planes):
            for per_plane in backends:
                assert (w[mask[:, p], p].tobytes(), b[p].tobytes(), t) == expected[per_plane, p], (name, p)
        assert w[~mask].tobytes() == w0[~mask].tobytes(), name
    return w, b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_batch_matches_per_plane(backends, train_backends, seed, layout):
    # Each plane of the batch must equal hinge_epoch on its projected
    # columns, on every backend, byte for byte; unselected weights stay +0.0.
    x, y, mask, orders = _layout(layout, seed)
    _check_batch(backends, train_backends, x, y, mask, orders, np.zeros(mask.shape), np.zeros(mask.shape[1]))


@pytest.mark.parametrize("layout", ["60x5x4", "90x41x7", "one-plane", "full-width-3", "final-model"])
def test_batch_from_nonzero_start(backends, train_backends, layout):
    # A batch may start from any iterate: nonzero weights over negative
    # features, negative biases and -0.0 weights. Plane 0's first weight
    # starts at -0.0 over a column of zeros signed against its labels, so
    # that every step adds -0.0 to it and C keeps it at -0.0 to the end;
    # unselected weights start at -0.0 and C never touches them. On the
    # twin, "one-plane" carries both through the plane's copy.
    x, y, mask, orders = _layout(layout, 4)
    rng = np.random.default_rng(4)
    x[:, 0] = np.where(y[0] > 0, -0.0, 0.0)
    w0 = np.where(mask, rng.normal(size=mask.shape), -0.0)
    w0[0, 0] = -0.0
    b0 = -rng.random(mask.shape[1])
    w, _ = _check_batch(backends, train_backends, x, y, mask, orders, w0, b0)
    assert np.signbit(w[0, 0]) and w[0, 0] == 0.0


@pytest.mark.parametrize("block", [1, 7])
def test_lockstep_blocks(backends, train_backends, monkeypatch, block):
    # The twin's lockstep step gathers its rows in blocks of steps. Blocks
    # of one step, and of seven steps over 60 rows (a partial last block
    # each epoch), train exactly as C does.
    x, y, mask, orders = _layout("60x5x4", 5)
    features, planes = mask.shape
    monkeypatch.setattr(_hinge_sgd_py, "BLOCK_BYTES", block * 8 * (features + 1) * planes)
    rng = np.random.default_rng(5)
    _check_batch(backends, train_backends, x, y, mask, orders,
                 np.where(mask, rng.normal(size=mask.shape), 0.0), -rng.random(mask.shape[1]))


@pytest.mark.parametrize("layout", ["60x5x4", "full-width", "full-between-partials"])
def test_train_matches_chained_epochs(train_backends, layout):
    # One call over three epochs equals three chained one-epoch calls, bit
    # for bit: every epoch-end iterate, the final w and b, and the step
    # counter, on every backend.
    x, y, mask, orders = _layout(layout, 3)
    lam, t0 = 1.0 / len(x), 7.0
    for name, train in train_backends.items():
        w, b = np.zeros(mask.shape), np.zeros(mask.shape[1])
        t, w_epochs, b_epochs = _train(train, x, y, orders, mask, w, b, lam, t0, 5)
        chained_w, chained_b, chained_t = np.zeros(mask.shape), np.zeros(mask.shape[1]), 5
        for e, order in enumerate(orders):
            chained_t, w_e, b_e = _train(train, x, y, order[None], mask, chained_w, chained_b,
                                         lam, t0, chained_t)
            assert w_e.tobytes() == w_epochs[e].tobytes() and b_e.tobytes() == b_epochs[e].tobytes(), (name, e)
        assert t == chained_t == 5 + 3 * len(x)
        assert w.tobytes() == chained_w.tobytes() == w_epochs[-1].tobytes(), name
        assert b.tobytes() == chained_b.tobytes() == b_epochs[-1].tobytes(), name


# Summed in feature order, 1 + 40 * (-2**-54) stays 1.0 (each tie rounds to
# even); numpy's pairwise sum, like any blocked one, reaches 1 - 40 * 2**-54.
TIES = [1.0] + [-(2.0**-54)] * 40
# Likewise 2 + 40 * (-2**-53) stays 2.0, so with b = 1 subtracted last the
# margin is exactly 1; with the bias term first, the sum starts at 1, where
# those terms are exact, and ends below 1.
BIAS_TIES = [2.0] + [-(2.0**-53)] * 40


def _sequential_step(x, w, b, y, lam, t0):
    """The first SGD step on the row ``x`` (lists), written out by hand, with
    the dot product summed in feature order; returns the new w and b."""
    eta = 1.0 / (lam * (t0 + 1))
    factor = 1.0 - eta * lam
    acc = 0.0
    for wk, xk in zip(w, x):
        acc += wk * xk
    if y * (acc - b) < 1.0:
        step = eta * y
        return [factor * wk + step * xk for wk, xk in zip(w, x)], b - step
    return [factor * wk for wk in w], b


@pytest.mark.parametrize("planes", [1, 2, 3, 4, 5])
def test_batch_dot_product_is_sequential(backends, train_backends, planes):
    # With w = 1 and y = +1 the margin summed in feature order is exactly 1,
    # so the step only shrinks w; summed pairwise it is below 1 and the step
    # is a hinge step. Every path is compared with a hand-written step: the
    # one-plane epoch, planes on every column and planes that leave out a
    # 42nd column (C's rows and its column copy; on the twin, one plane
    # steps beside a copy of itself), with b = 0 and with the bias ties.
    assert float(np.sum(TIES)) != 1.0  # the input tells the two sums apart
    assert reduce(operator.add, [-1.0] + BIAS_TIES) != 1.0  # and the bias's place
    for epoch in backends.values():
        w = np.ones(41)
        assert epoch(np.array([TIES]), np.ones(1), np.zeros(1, dtype=np.int64), w, 0.0, 1.0, 1.0, 0) == (0.0, 1)
        assert (w == 0.5).all()
    y = np.where(np.arange(planes) % 2 == 0, 1.0, -1.0)[:, None]
    for ties, bias in ((TIES, 0.0), (BIAS_TIES, 1.0)):
        for row in (ties, ties + [3.0]):
            x = np.array([row])
            mask = np.ones((len(row), planes), dtype=bool)
            mask[41:] = False
            expected = [_sequential_step(ties, [1.0] * 41, bias, float(y[p, 0]), 1.0, 1.0)
                        for p in range(planes)]
            for name, train in train_backends.items():
                w, b = np.where(mask, 1.0, 0.0), np.full(planes, bias)
                orders = np.zeros((1, planes, 1), dtype=np.int64)
                assert _train(train, x, y, orders, mask, w, b, 1.0, 1.0, 0)[0] == 1
                for p, (w_p, b_p) in enumerate(expected):
                    assert w[:41, p].tobytes() == np.array(w_p).tobytes() and b[p] == b_p, (name, p)
                assert w[41:].tobytes() == np.zeros(w[41:].shape).tobytes()


def test_unselected_weights_stay_positive_zero(train_backends):
    # At step_offset 0 the first step has eta * lam = 1 up to rounding, so
    # its factor 1 - eta * lam is 0 or just above. The twin's lockstep step
    # shrinks unselected weights too (and subtracts +0.0 from them), so they
    # must stay +0.0 byte for byte (a negative factor would turn them into
    # -0.0), in w and in every epoch-end iterate, as in C, which leaves them
    # alone.
    for c, rows in ((1.0, 3), (1.0, 49), (0.3, 70), (7.0, 11), (1e-3, 997)):
        x, y, mask = _batch_problem(rows, rows, 6, 4)
        mask[5] = False
        orders = np.stack([np.stack([np.random.default_rng(e).permutation(rows)] * 4) for e in range(2)])
        for name, train in train_backends.items():
            w, b = np.zeros(mask.shape), np.zeros(4)
            _, w_epochs, _ = _train(train, x, y, orders, mask, w, b, 1.0 / (c * rows), 0.0, 0)
            zeros = np.zeros(int((~mask).sum())).tobytes()
            assert w[~mask].tobytes() == zeros, (name, c, rows)
            assert all(w_e[~mask].tobytes() == zeros for w_e in w_epochs), (name, c, rows)


# sha256 of w.tobytes() + b.tobytes() after test_weight_bytes_pinned's three
# epochs, taken at commit 9d4e7a5, before x became row-major.
PINNED_WEIGHTS = "5693d6730553ed2f2c7a448b6a8e632e0416d5b3115aae1bc4228d2ccd3c70a0"


def test_weight_bytes_pinned(train_backends):
    # Three epochs of a fixed batch on every backend: negative and zero
    # features, planes 0 and 1 on one mask, plane 2 on every column and
    # plane 3 on a partial mask after it. No artifact holds a weight, so a
    # rounding change in the kernel (one ulp in the step) shows only here.
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(40, 6))
    x[rng.random(x.shape) < 0.25] = 0.0
    y = np.where(rng.random((4, 40)) < 0.5, -1.0, 1.0)
    mask = np.array([[1, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0],
                     [1, 1, 1, 1], [0, 0, 1, 0], [1, 1, 1, 1]], dtype=bool)
    orders = np.stack([np.stack([rng.permutation(40) for _ in range(4)]) for _ in range(3)])
    for name, train in train_backends.items():
        w, b = np.zeros(mask.shape), np.zeros(4)
        t, _, _ = _train(train, x, y, orders, mask, w, b, 1.0 / 40, 40.0, 0)
        assert t == 120
        assert hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest() == PINNED_WEIGHTS, name


def _batch_args(rows=4, features=3, planes=2):
    x, y, mask = _batch_problem(0, rows, features, planes)
    mask[-1] = False
    return {"x": x, "y": y, "orders": np.tile(np.arange(rows), (1, planes, 1)),
            "mask": mask, "w": np.zeros((features, planes)), "b": np.zeros(planes),
            "w_epochs": np.zeros((1, features, planes)), "b_epochs": np.zeros((1, planes))}


def _call_batch(train, a):
    return train(a["x"], a["y"], a["orders"], a["mask"], a["w"], a["b"], a["w_epochs"],
                 a["b_epochs"], 1.0, 1.0, 0)


def _untouched(a):
    return not (a["w"].any() or a["b"].any() or a["w_epochs"].any() or a["b_epochs"].any())


def test_batch_out_of_range_order_entry_raises(train_backends):
    for train in train_backends.values():
        for bad in (4, -1):
            a = _batch_args()
            a["orders"][0, 1, 2] = bad
            with pytest.raises(IndexError):
                _call_batch(train, a)
            assert _untouched(a)  # rejected before any update


@pytest.mark.parametrize("bad", [
    {"y": np.ones((2, 3))},
    {"y": np.ones((3, 4))},
    {"orders": np.zeros((1, 3, 4), dtype=np.int64)},
    {"mask": np.ones((4, 2), dtype=bool)},
    {"w": np.zeros((3, 3))},
    {"b": np.zeros(3)},
    {"w_epochs": np.zeros((2, 3, 2))},
    {"b_epochs": np.zeros((1, 3))},
], ids=["y-rows", "y-planes", "order-planes", "mask-features", "w-planes", "b-planes",
        "w_epochs-epochs", "b_epochs-planes"])
def test_batch_shape_mismatch_raises(train_backends, bad):
    for train in train_backends.values():
        a = _batch_args()
        a.update({k: v.copy() for k, v in bad.items()})
        with pytest.raises(ValueError):
            _call_batch(train, a)
        assert _untouched(a)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_rows_raise(train_backends, value):
    # C reads only the selected columns, while the twin multiplies every
    # column, where 0 * inf is NaN and the step never updates; so on these
    # rows, the second column unselected, the two would train different
    # weights. Both refuse a non-finite row instead, before any update.
    for train in train_backends.values():
        a = _batch_args(rows=3, features=2)
        a["x"] = np.array([[1.0, value], [2.0, 0.5], [-1.0, 1.0]])
        assert not a["mask"][1].any()
        with pytest.raises(ValueError, match="non-finite"):
            _call_batch(train, a)
        assert _untouched(a)


@pytest.mark.parametrize("value", [1.0, -5e-324, np.nan])
def test_nonzero_weight_outside_mask_raises(train_backends, value):
    # The twin shrinks unselected weights along with the rest, which keeps
    # them only because they are zero; so both backends refuse any other
    # value there, before any update.
    for train in train_backends.values():
        a = _batch_args()
        a["w"][2, 1] = value
        with pytest.raises(ValueError, match="outside the mask"):
            _call_batch(train, a)
        a["w"][2, 1] = 0.0
        assert _untouched(a)


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
    # The one-plane ``hinge_epoch`` path hands its views to the compiled
    # kernel, which refuses them.
    if "compiled" not in backends:
        pytest.skip("compiled backend not built")
    args = {"x": np.ones((3, 2)), "y": np.array([1.0, -1.0, 1.0]),
            "order": np.arange(3, dtype=np.int64), "w": np.zeros(2)}
    args.update(bad)
    with pytest.raises(ValueError):
        backends["compiled"](args["x"], args["y"], args["order"], args["w"], 0.0, 1.0, 1.0, 0)


@pytest.mark.parametrize("bad", [
    {"x": np.ones((4, 3), dtype=np.float32)},
    {"x": np.ones(12)},
    {"x": np.asfortranarray(np.ones((4, 3)))},
    {"y": np.ones((2, 8))[:, ::2]},
    {"orders": np.zeros((1, 2, 4), dtype=np.int32)},
    {"orders": np.zeros((1, 2, 4), dtype=np.uint64)},
    {"orders": np.zeros((2, 4), dtype=np.int64)},
    {"mask": np.ones((3, 2), dtype=np.uint8)},
    {"w": _readonly(np.zeros((3, 2)))},
    {"b": _readonly(np.zeros(2))},
    {"w_epochs": _readonly(np.zeros((1, 3, 2)))},
    {"b_epochs": _readonly(np.zeros((1, 2)))},
], ids=["x-float32", "x-1d", "x-fortran", "y-strided", "order-int32", "order-uint64", "orders-2d",
        "mask-uint8", "w-readonly", "b-readonly", "w_epochs-readonly", "b_epochs-readonly"])
def test_rejects_bad_buffers(train_backends, bad):
    # Every backend refuses a wrong dtype, dimension or layout and a
    # read-only output, before any update.
    for train in train_backends.values():
        a = _batch_args()
        a.update(bad)
        with pytest.raises(ValueError):
            _call_batch(train, a)
        assert _untouched(a)


def test_compiled_population(train_backends, synth_dataset, monkeypatch):
    # One WrapperObjective population trained by the compiled batched
    # kernel scores, traces and counts exactly like the twin.
    if "compiled" not in train_backends:
        pytest.skip("compiled backend not built")
    rng = np.random.default_rng(4)
    masks = list(rng.random((8, 41)) < 0.5)
    masks.append(masks[2].copy())
    results = []
    for name in ("python", "compiled"):
        monkeypatch.setattr(classifier, "hinge_train", train_backends[name])
        trace = io.StringIO()
        objective = WrapperObjective(synth_dataset, run_seed=2, svm_config=classifier.SvmConfig(),
                                     fitness_epochs=3, trace=trace)
        results.append((objective(masks), trace.getvalue(), objective.evaluations))
    assert results[0] == results[1]
    assert results[0][2] == 8


def test_train_ova_on_every_backend(train_backends, monkeypatch):
    # Each mask trained alone (every plane selects every projected column)
    # equals the same mask trained inside a several-mask call (partial
    # masks), bit for bit, on every backend, with negative features and a
    # class absent from the rows.
    rng = np.random.default_rng(8)
    labels = np.array([0, 1, 2, 4] * 30)
    rows = rng.normal(size=(120, 9)) + labels[:, None] * 0.4
    ds = Dataset(rows, labels)
    masks = [rng.random(9) < 0.5 for _ in range(5)]
    for mask in masks:
        mask[0] = True
    first_runs = []
    for step_offset in (None, 0.0, 7.0):
        config = classifier.SvmConfig(epochs=3, step_offset=step_offset)
        runs = []
        for name in train_backends:
            monkeypatch.setattr(classifier, "hinge_train", train_backends[name])
            alone = [classifier.train_ova(ds, config, [m], [s])[0] for s, m in enumerate(masks)]
            for models in (classifier.train_ova(ds, config, masks, range(5)), alone):
                assert all(np.array_equal(model.mask, m) for model, m in zip(models, masks))
                runs.append([[None if p is None else (p.w.tobytes(), p.b) for p in model.planes]
                             for model in models])
        assert len(runs) == 2 * len(train_backends) and all(run == runs[0] for run in runs)
        assert all(model[3] is None for model in runs[0])
        first_runs.append(runs[0])
    assert first_runs[0] != first_runs[2]  # the step offset reaches the kernel
