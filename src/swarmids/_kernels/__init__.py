"""Backend selection for the hot SGD kernel.

Each backend exports one SGD function, ``hinge_epoch_batch``: one epoch
for several planes over the same row-major rows. The compiled C extension
(``_hinge_sgd.c``, backend ``compiled``) is used when it is built;
otherwise the pure-Python twin (backend ``python``), which has identical
numerics. The compiled loops run without the GIL, so threads calling them
train at once; the twin, a Python loop of small numpy calls, holds it.
``hinge_epoch`` runs one plane through a backend's batch call.
"""

from functools import partial

import numpy as np

try:
    from . import _hinge_sgd as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    from . import _hinge_sgd_py as _impl

    BACKEND = "python"

hinge_epoch_batch = _impl.hinge_epoch_batch


def hinge_epoch(x, y, order, w, b, lam, t0, t, batch=hinge_epoch_batch):
    """One epoch of SGD for one plane over every column of the row-major
    ``x``, as a one-plane ``batch`` call; updates ``w`` in place and
    returns the new bias and global step counter."""
    bias = np.array([b], dtype=np.float64)
    t = batch(x, y[None], order[None], np.ones((len(w), 1), dtype=bool), w[:, None], bias, lam, t0, t)
    return float(bias[0]), t


def available_backends() -> dict:
    """Map backend name to its ``hinge_epoch`` callable (for benchmarks)."""
    from . import _hinge_sgd_py

    out = {"python": partial(hinge_epoch, batch=_hinge_sgd_py.hinge_epoch_batch)}
    if BACKEND == "compiled":
        out["compiled"] = hinge_epoch
    return out
