"""Pure-Python twin of the compiled SGD kernel, and the argument check
that both backends run.

Same operations in the same order as the C library ``_hinge_sgd.c``
(CPython floats and numpy float64 arithmetic round like C doubles), so
results are bit-identical to it, just slower. ``_check`` rejects wrong
dtypes, dimensions and layouts, read-only outputs, mismatched shapes,
out-of-range ``orders`` entries and nonzero weights outside the mask,
before either backend writes anything.
"""

import numpy as np

# (name, dtype, ndim) of each array argument, in order; the last four are
# written.
_ARGS = (
    ("x", np.float64, 2), ("y", np.float64, 2), ("orders", np.int64, 3), ("mask", np.bool_, 2),
    ("w", np.float64, 2), ("b", np.float64, 1), ("w_epochs", np.float64, 3), ("b_epochs", np.float64, 2),
)

# Bytes of each of the lockstep step's two block buffers, below glibc's
# default mmap threshold of 128 KiB.
BLOCK_BYTES = 1 << 16


def _check(x, y, orders, mask, w, b, w_epochs, b_epochs):
    """Raise unless ``hinge_train``'s arguments suit both backends: each a
    C-contiguous array of its dtype and dimension, the outputs writable
    (``ValueError``), shapes that agree (``ValueError``), ``orders``
    entries in ``[0, rows)`` (``IndexError``) and zero weights outside the
    mask (``ValueError``)."""
    arrays = (x, y, orders, mask, w, b, w_epochs, b_epochs)
    for i, ((name, dtype, ndim), a) in enumerate(zip(_ARGS, arrays)):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
                and a.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous {ndim}-d {np.dtype(dtype)} array, got "
                             f"{getattr(a, 'dtype', type(a).__name__)} with shape {np.shape(a)}")
        if i >= 4 and not a.flags.writeable:
            raise ValueError(f"{name} must be writable")
    n, features = x.shape
    epochs, planes, steps = orders.shape
    if y.shape != (planes, n):
        raise ValueError(f"y has shape {y.shape} but orders and x need ({planes}, {n})")
    if mask.shape != (features, planes) or w.shape != (features, planes) or b.shape != (planes,):
        raise ValueError(
            f"mask {mask.shape}, w {w.shape} and b {b.shape} must be "
            f"({features}, {planes}), ({features}, {planes}) and ({planes},)"
        )
    if w_epochs.shape != (epochs, features, planes) or b_epochs.shape != (epochs, planes):
        raise ValueError(
            f"w_epochs {w_epochs.shape} and b_epochs {b_epochs.shape} must be "
            f"({epochs}, {features}, {planes}) and ({epochs}, {planes})"
        )
    if orders.size and not (0 <= orders.min() and orders.max() < n):
        raise IndexError(f"orders has an entry outside [0, {n})")
    if w[~mask].any():
        raise ValueError("w has a nonzero weight outside the mask")


def _sgd_steps(rows, order, ys, steps, factors, ws, b):
    """One plane's SGD steps over ``rows[i]`` for each ``i`` in ``order``
    (lists); step s has label ``ys[s]``, hinge step ``steps[s]`` (eta times
    the label) and shrink factor ``factors[s]``. Updates the list ``ws`` and
    returns the new bias. The twin of C's ``sgd_steps``."""
    d = len(ws)
    for i, yi, step, factor in zip(order, ys, steps, factors):
        xi = rows[i]
        acc = 0.0
        for k in range(d):
            acc += ws[k] * xi[k]
        if yi * (acc - b) < 1.0:
            for k in range(d):
                ws[k] = factor * ws[k] + step * xi[k]
            b = b - step
        else:
            for k in range(d):
                ws[k] = factor * ws[k]
    return b


def _train_lists(x, y, orders, mask, w, b, w_epochs, b_epochs, eta, factor):
    """The one plane, every epoch, through ``_sgd_steps`` on lists of its
    selected columns."""
    cols = np.flatnonzero(mask[:, 0])
    rows, ws, bias = x[:, cols].tolist(), w[cols, 0].tolist(), float(b[0])
    for e, order in enumerate(orders[:, 0]):
        ys = y[0].take(order)
        bias = _sgd_steps(rows, order.tolist(), ys.tolist(), (eta[e] * ys).tolist(),
                          factor[e].tolist(), ws, bias)
        w[cols, 0] = ws
        w_epochs[e] = w
        b_epochs[e] = bias
    b[0] = bias


def _train_lockstep(x, y, orders, mask, w, b, w_epochs, b_epochs, eta, factor):
    """All planes take each step together, in seven numpy calls.

    The iterate is one (features + 1, planes) matrix: the weights, then the
    bias. Row r of ``xs`` is row r of ``x`` followed by -1, and row n + r
    is its negation, so each plane's row times its label is row r, or row
    n + r where the label is -1. A block of steps gathers those rows with
    one ``take`` and copies them into one C-contiguous (features + 1,
    planes) array per step. The margins y * (w . x - b) are then
    ``np.add.reduce`` over axis 0 of the iterate times that array: numpy
    sums pairwise only along the fast axis, so with two or more planes each
    is summed in feature order with the bias term last, as in C (negating
    every term of a sum negates it exactly). The unselected terms are zeros.

    Every weight shrinks, with no mask: unselected ones are zeros and
    factor >= 0, so they keep their bits. The step then subtracts
    -eta * y * x from the weights and -eta * y from the bias, after an
    integer multiply by 0 has made it +0.0 wherever the margin reaches 1
    or the feature is unselected; w - +0.0 is w, bit for bit, -0.0 too.
    """
    n, features = x.shape
    planes = len(b)
    wb = np.vstack((w, b))
    weights, terms = wb[:features], np.empty(wb.shape)
    bits = terms.view(np.int64)
    xs = np.empty((2 * n, features + 1))
    xs[:n, :features] = x
    xs[:n, features] = -1.0
    np.negative(xs[:n], out=xs[n:])
    offsets = np.arange(planes)[:, None] * n
    # A margin below the limit updates: 1 where selected, -inf (never) elsewhere.
    limit = np.vstack((np.where(mask, 1.0, -np.inf), np.ones(planes)))
    margin, update = np.empty(planes), np.empty(wb.shape, dtype=np.int64)
    block = max(1, BLOCK_BYTES // max(8 * wb.size, 1))
    gathered, blocked = np.empty(block * wb.size), np.empty(block * wb.size)
    for e, order in enumerate(orders):
        minus_eta, shrinks = (-eta[e]).tolist(), factor[e].tolist()
        for s in range(0, order.shape[1], block):
            part = order[:, s:s + block]
            k = part.shape[1]
            signed = part + n * (y.take(part + offsets) < 0)
            rows = gathered[:k * wb.size].reshape(k, planes, features + 1)
            # Entries are range-checked, so "clip" never clips; it only
            # avoids the buffered copy that take's default "raise" mode makes.
            xs.take(signed.T, axis=0, out=rows, mode="clip")
            step_rows = blocked[:k * wb.size].reshape(k, features + 1, planes)
            np.copyto(step_rows, rows.transpose(0, 2, 1))
            for row, rate, shrink in zip(step_rows, minus_eta[s:s + block], shrinks[s:s + block]):
                np.multiply(wb, row, out=terms)
                np.add.reduce(terms, axis=0, out=margin)
                np.less(margin, limit, out=update)
                np.multiply(weights, shrink, out=weights)
                np.multiply(row, rate, out=terms)
                np.multiply(bits, update, out=bits)
                np.subtract(wb, terms, out=wb)
        w_epochs[e] = weights
        b_epochs[e] = wb[features]
    w[...] = weights
    b[...] = wb[features]


def hinge_train(x, y, orders, mask, w, b, w_epochs, b_epochs, lam, t0, t):
    """Run every epoch of SGD for several planes at once; updates ``w`` and
    ``b`` in place, writes each epoch-end iterate, and returns the new
    global step counter ``t + epochs * steps``.

    ``x`` is (rows, features) and ``orders`` is (epochs, planes, steps).
    In epoch e, plane p visits the rows ``orders[e, p]`` with labels
    ``y[p]`` from step ``t + e * steps`` and trains ``w[:, p]``, ``b[p]``
    on the features where ``mask[:, p]`` is set; its other weights must be
    zero and are left alone. The iterate at the end of epoch e goes to
    ``w_epochs[e]`` (features, planes) and ``b_epochs[e]`` (planes,).

    One plane trains through ``_sgd_steps`` on Python lists. Two or more
    take each step together with numpy (``_train_lockstep``), which one
    plane must never reach: numpy would sum its dot product pairwise. Bad
    arguments raise (``_check``) before anything is written.
    """
    _check(x, y, orders, mask, w, b, w_epochs, b_epochs)
    epochs, planes, steps = orders.shape
    # eta = 1/(lam*(t0+t')) and factor = 1 - eta*lam for the steps t' of
    # every epoch, shared by all planes.
    eta = 1.0 / (lam * (t0 + np.arange(t + 1, t + 1 + epochs * steps).astype(np.float64)))
    factor = 1.0 - eta * lam
    train = _train_lists if planes == 1 else _train_lockstep
    train(x, y, orders, mask, w, b, w_epochs, b_epochs,
          eta.reshape(epochs, steps), factor.reshape(epochs, steps))
    return t + epochs * steps
