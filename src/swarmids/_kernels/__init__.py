"""Backend selection for the hot SGD kernel.

Each backend exports one SGD function, ``hinge_train``: every epoch of a
chunk of planes over the same row-major rows, in one call that writes
each epoch-end iterate to caller-owned buffers. Both run the twin's one
argument check (``_hinge_sgd_py._check``) before they write anything.
The compiled backend (``compiled``) is the plain C library built from
``_hinge_sgd.c`` next to this file (``python setup.py build_ext
--inplace`` or an install), bound with ``ctypes``, which releases the GIL
for the call, so threads calling it train at once. When that file is
absent the pure-Python twin (backend ``python``), which has identical
numerics, is used: one step of all planes at a time in six small numpy
calls (a lone plane beside a copy of itself); it holds the GIL.
A file there without the ``hinge_train`` symbol, such as a stale build,
fails the import. ``hinge_epoch`` runs one epoch of one plane through a
backend's ``hinge_train``.
"""

import ctypes
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from . import _hinge_sgd_py
from ._hinge_sgd_py import _check

def load_compiled(path):
    """Bind ``hinge_train`` of the C library at ``path``: same arguments,
    check and result as the twin's; raises ``ImportError`` when the file
    cannot be loaded or lacks the symbol."""
    try:
        kernel = ctypes.CDLL(str(path)).hinge_train
    except (OSError, AttributeError) as exc:
        raise ImportError(f"{path} is not a hinge_train library; rebuild it with "
                          "`python setup.py build_ext --inplace`") from exc
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


# The first extension suffix is the interpreter's own, the one setup.py
# builds with (sysconfig's EXT_SUFFIX, which costs a module import).
_LIBRARY = Path(__file__).with_name("_hinge_sgd" + EXTENSION_SUFFIXES[0])
if _LIBRARY.exists():
    hinge_train = load_compiled(_LIBRARY)
    BACKEND = "compiled"
else:
    hinge_train = _hinge_sgd_py.hinge_train
    BACKEND = "python"


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
