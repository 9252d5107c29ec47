"""Backend selection for the hot SGD kernel.

Each backend exports one SGD function, ``hinge_train``: every epoch of a
chunk of planes over the same row-major rows, in one call that writes
each epoch-end iterate to caller-owned buffers. Both run the twin's one
argument check (``_hinge_sgd_py._check``) before they write anything.
The compiled backend (``compiled``) is the plain C library built from
``_hinge_sgd.c`` next to this file, bound with ``ctypes``, which releases
the GIL for the call, so threads calling it train at once. The first
import of each source version builds it into ``__pycache__`` here, named
by a key over the source and the compile flags (``build``), and later
imports load that file. When it cannot be built (no C compiler, a failed
compile, a cache directory that cannot be written) the pure-Python twin
(backend ``python``), which has identical numerics, is used, and
``BUILD_ERROR`` says why. The twin takes one step of all planes at a time
in six small numpy calls (a lone plane beside a copy of itself); it holds
the GIL. A cached file without the ``hinge_train`` symbol fails the
import.
``hinge_epoch`` runs one epoch of one plane through a backend's
``hinge_train``.
"""

import contextlib
import ctypes
import hashlib
import os
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from . import _hinge_sgd_py
from ._hinge_sgd_py import _check

SOURCE = Path(__file__).with_name("_hinge_sgd.c")
# -ffp-contract=off keeps the compiled kernel bit-identical to the twin (no
# FMA fusion of a*b+c).
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


class BuildError(Exception):
    """The kernel library could not be built; the message says why."""


def build(directory, source=SOURCE, compiler=None, flags=FLAGS):
    """Path of the library compiled from ``source`` with ``flags`` in
    ``directory``, compiling it first unless that file is there.

    The name is ``_hinge_sgd-<key>`` plus the interpreter's extension
    suffix, the key a sha256 over the source bytes and the flags, so an
    edited source is never served a stale build. ``compiler`` is an argv
    prefix (default: sysconfig's ``CC``, the compiler of the interpreter's
    own build). The compiler writes a temp file in ``directory`` that is
    then renamed into place, so builds racing on one name each finish
    with a whole file. Raises ``BuildError`` with the reason, leaving no
    file behind.
    """
    key = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()[:16]
    path = Path(directory) / f"_hinge_sgd-{key}{EXTENSION_SUFFIXES[0]}"
    if path.exists():
        return path
    import subprocess
    import sysconfig
    import tempfile

    compiler = compiler or (sysconfig.get_config_var("CC") or "").split()
    if not compiler:
        raise BuildError("no C compiler configured (sysconfig has no CC)")
    try:
        path.parent.mkdir(exist_ok=True)
        handle, temp = tempfile.mkstemp(suffix=".tmp", prefix=path.stem + ".", dir=path.parent)
        os.close(handle)
    except OSError as exc:
        raise BuildError(f"cannot write to cache directory {path.parent}: {exc.strerror}") from None
    try:
        try:
            done = subprocess.run([*compiler, *flags, "-o", temp, str(source)],
                                  capture_output=True, text=True, errors="replace")
        except OSError as exc:
            raise BuildError(f"cannot run C compiler {compiler[0]!r}: {exc.strerror}") from None
        if done.returncode != 0:
            lines = [line for line in done.stderr.splitlines() if line.strip()]
            first = next((line for line in lines if "error" in line), lines[0] if lines else None)
            raise BuildError(f"C compiler {compiler[0]!r} exited with status {done.returncode}"
                             + (f": {first.strip()}" if first else ""))
        os.chmod(temp, 0o755)  # mkstemp's 0600 would keep other users from loading it
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
    return path


def load_compiled(path):
    """Bind ``hinge_train`` of the C library at ``path``: same arguments,
    check and result as the twin's; raises ``ImportError`` when the file
    cannot be loaded or lacks the symbol."""
    try:
        kernel = ctypes.CDLL(str(path)).hinge_train
    except (OSError, AttributeError) as exc:
        raise ImportError(f"{path} is not a hinge_train library") from exc
    kernel.argtypes = ([ctypes.c_void_p] * 8 + [ctypes.c_ssize_t] * 5
                       + [ctypes.c_double, ctypes.c_double, ctypes.c_longlong] + [ctypes.c_void_p] * 3)
    kernel.restype = None

    def hinge_train(x, y, orders, mask, w, b, w_epochs, b_epochs, lam, t0, t):
        _check(x, y, orders, mask, w, b, w_epochs, b_epochs)
        rows, features = x.shape
        epochs, planes, steps = orders.shape
        scratch = np.empty(features, dtype=np.intp), np.empty(features), np.empty(rows * features)
        kernel(*(a.ctypes.data for a in (x, y, orders, mask, w, b, w_epochs, b_epochs)),
               rows, features, epochs, planes, steps, lam, t0, t,
               *(a.ctypes.data for a in scratch))
        return t + epochs * steps

    hinge_train.__doc__ = _hinge_sgd_py.hinge_train.__doc__
    return hinge_train


def choose_backend(directory, compiler=None):
    """``(hinge_train, backend name, build error)``: the library ``build``
    makes or finds in ``directory``, bound, or else the twin and the
    reason it could not be built."""
    try:
        return load_compiled(build(directory, compiler=compiler)), "compiled", None
    except BuildError as exc:
        return _hinge_sgd_py.hinge_train, "python", str(exc)


hinge_train, BACKEND, BUILD_ERROR = choose_backend(Path(__file__).with_name("__pycache__"))


def hinge_epoch(x, y, order, w, b, lam, t0, t, train=hinge_train):
    """One epoch of SGD for one plane over every column of the row-major
    ``x``, as a one-plane, one-epoch ``train`` call; updates ``w`` in place
    and returns the new bias and global step counter."""
    bias = np.array([b], dtype=np.float64)
    t = train(x, y[None], order[None, None], np.ones((len(w), 1), dtype=bool), w[:, None], bias,
              np.empty((1, len(w), 1)), np.empty((1, 1)), lam, t0, t)
    return float(bias[0]), t


def available_backends() -> dict:
    """Map backend name to its ``hinge_epoch`` callable (for benchmarks)."""
    out = {"python": partial(hinge_epoch, train=_hinge_sgd_py.hinge_train)}
    if BACKEND == "compiled":
        out["compiled"] = hinge_epoch
    return out
