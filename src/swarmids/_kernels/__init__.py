"""Backend selection for the hot SGD kernel.

Each backend exports ``hinge_epoch`` (one plane) and ``hinge_epoch_batch``
(several planes over the same rows, one call per epoch). The compiled C
extension (``_hinge_sgd.c``, backend ``compiled``) is used when it is
built; otherwise the pure-Python twin (backend ``python``), which has
identical numerics. The compiled loops run without the GIL, so threads
calling them train at once; the twin, a Python loop of small numpy
calls, holds it.
"""

try:
    from . import _hinge_sgd as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    from . import _hinge_sgd_py as _impl

    BACKEND = "python"

hinge_epoch = _impl.hinge_epoch
hinge_epoch_batch = _impl.hinge_epoch_batch


def available_backends() -> dict:
    """Map backend name to its ``hinge_epoch`` callable (for benchmarks)."""
    from . import _hinge_sgd_py

    out = {"python": _hinge_sgd_py.hinge_epoch}
    if BACKEND == "compiled":
        out["compiled"] = hinge_epoch
    return out
