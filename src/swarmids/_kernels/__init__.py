"""Backend selection for the hot SGD kernel.

Each backend exports ``hinge_epoch`` (one plane) and ``hinge_epoch_batch``
(several planes over the same rows, one call per epoch). The compiled C
extension (``_hinge_sgd.c``) is preferred; a pure-Python twin with
identical numerics is used when the extension is unavailable.
The compiled backend keeps its historical name ``cython`` (it is what
``SWARMIDS_KERNEL`` accepts and what ``evaluate_timing.json`` records),
although it is a hand-written CPython extension built without Cython. Set
``SWARMIDS_KERNEL=python`` (or ``cython``) to force a backend.
"""

import os

_forced = os.environ.get("SWARMIDS_KERNEL", "")
if _forced not in ("", "cython", "python"):
    raise ImportError(
        f"SWARMIDS_KERNEL must be 'cython' or 'python', got {_forced!r}"
    )

if _forced == "python":
    from . import _hinge_sgd_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _hinge_sgd as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        if _forced == "cython":
            raise
        from . import _hinge_sgd_py as _impl

        BACKEND = "python"

hinge_epoch = _impl.hinge_epoch
hinge_epoch_batch = _impl.hinge_epoch_batch


def available_backends() -> dict:
    """Map backend name to its ``hinge_epoch`` callable (for benchmarks)."""
    out = {}
    try:
        from . import _hinge_sgd  # type: ignore[attr-defined]

        out["cython"] = _hinge_sgd.hinge_epoch
    except ImportError:
        pass
    from . import _hinge_sgd_py

    out["python"] = _hinge_sgd_py.hinge_epoch
    return out
