"""Backend selection for the hot SGD kernel.

Each backend exports one SGD function, ``hinge_train``: every epoch of a
chunk of planes over the same row-major rows, in one call that writes
each epoch-end iterate to caller-owned buffers. The compiled C extension
(``_hinge_sgd.c``, backend ``compiled``) is used when it is built;
otherwise the pure-Python twin (backend ``python``), which has identical
numerics. The compiled loops run without the GIL, so threads calling them
train at once; the twin, a Python loop of small numpy calls, holds it.
``hinge_epoch`` runs one epoch of one plane through a backend's
``hinge_train``.
"""

from functools import partial

import numpy as np

try:
    from . import _hinge_sgd as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    from . import _hinge_sgd_py as _impl

    BACKEND = "python"

hinge_train = _impl.hinge_train


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
    from . import _hinge_sgd_py

    out = {"python": partial(hinge_epoch, train=_hinge_sgd_py.hinge_train)}
    if BACKEND == "compiled":
        out["compiled"] = hinge_epoch
    return out
