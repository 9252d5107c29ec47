"""Pure-Python twin of the compiled SGD kernel, and the argument check
that both backends run.

Same operations in the same order as the C library ``_hinge_sgd.c``
(CPython floats and numpy float64 arithmetic round like C doubles), so
results are bit-identical to it, just slower. ``_check`` rejects wrong
dtypes, dimensions and layouts, read-only outputs, mismatched shapes,
non-finite rows, out-of-range ``orders`` entries and nonzero weights
outside the mask, before either backend writes anything.
"""

import numpy as np

# (name, dtype, ndim) of each array argument, in order; the last four are
# written.
_ARGS = (
    ("x", np.float64, 2), ("y", np.float64, 2), ("orders", np.int64, 3), ("mask", np.bool_, 2),
    ("w", np.float64, 2), ("b", np.float64, 1), ("w_epochs", np.float64, 3), ("b_epochs", np.float64, 2),
)

# Bytes of each of the lockstep step's three block buffers, below glibc's
# default mmap threshold of 128 KiB.
BLOCK_BYTES = 120 << 10


def _check(x, y, orders, mask, w, b, w_epochs, b_epochs):
    """Raise unless ``hinge_train``'s arguments suit both backends: each a
    C-contiguous array of its dtype and dimension, the outputs writable
    (``ValueError``), shapes that agree (``ValueError``), finite ``x``
    (``ValueError``), ``orders`` entries in ``[0, rows)`` (``IndexError``)
    and zero weights outside the mask (``ValueError``). ``x`` must be
    finite because the twin multiplies unselected columns too (0 * inf is
    NaN), which C never reads."""
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
    if not np.isfinite(x).all():
        raise ValueError("x has a non-finite value")
    if orders.size and not (0 <= orders.min() and orders.max() < n):
        raise IndexError(f"orders has an entry outside [0, {n})")
    if w[~mask].any():
        raise ValueError("w has a nonzero weight outside the mask")


def _train_lockstep(x, y, orders, mask, w, b, w_epochs, b_epochs, eta, factor):
    """All planes take each step together, in six numpy calls.

    The iterate is one (features + 1, planes) matrix: the weights, then the
    bias. Row r of ``xs`` is row r of ``x`` followed by -1, and row n + r
    is its negation, so each plane's row times its label is row r, or row
    n + r where the label is -1. A block of steps gathers those rows with
    one ``take``, copies them into one C-contiguous (features + 1, planes)
    array per step, and scales each by -eta into a third buffer. The
    margins y * (w . x - b) are then ``np.add.reduce`` over axis 0 of the
    iterate times that array: numpy sums pairwise only along the fast axis,
    so with two or more planes each is summed in feature order with the
    bias term last, as in C (negating every term of a sum negates it
    exactly). A lone plane would be summed pairwise, so it steps beside a
    copy of itself, which is dropped. The unselected terms are zeros.

    Every weight shrinks, with no mask: unselected ones are zeros and
    factor >= 0, so they keep their bits. The step then subtracts
    -eta * y * x from the weights and -eta * y from the bias, after an
    integer multiply by 0 has made it +0.0 wherever the margin reaches 1
    or the feature is unselected; w - +0.0 is w, bit for bit, -0.0 too.
    """
    n, features = x.shape
    planes = len(b)
    wb = np.vstack((w, b))
    if planes == 1:
        y, orders, mask, wb = y.repeat(2, 0), orders.repeat(2, 1), mask.repeat(2, 1), wb.repeat(2, 1)
    lanes = len(y)
    weights, terms = wb[:features], np.empty(wb.shape)
    bits = terms.view(np.int64)
    xs = np.empty((2 * n, features + 1))
    xs[:n, :features] = x
    xs[:n, features] = -1.0
    np.negative(xs[:n], out=xs[n:])
    offsets, negative = np.arange(lanes)[:, None] * n, y < 0
    # A margin below the limit updates: 1 where selected, -inf (never) elsewhere.
    limit = np.vstack((np.where(mask, 1.0, -np.inf), np.ones(lanes)))
    margin, update = np.empty(lanes), np.empty(wb.shape, dtype=np.int64)
    block = max(1, BLOCK_BYTES // max(8 * wb.size, 1))
    gathered = np.empty((block, lanes, features + 1))
    step_rows, steps = np.empty((block,) + wb.shape), np.empty((block,) + wb.shape)
    row_list, step_list = list(step_rows), list(steps.view(np.int64))
    multiply, reduce, less, subtract = np.multiply, np.add.reduce, np.less, np.subtract
    signed = np.empty(orders.shape[1:], dtype=np.int64)
    for e, order in enumerate(orders):
        # Each step's row of xs: the label's flat index first, then r or n + r.
        np.add(order, offsets, out=signed)
        np.multiply(negative.take(signed), n, out=signed)
        np.add(signed, order, out=signed)
        minus_eta, shrinks = -eta[e, :, None, None], factor[e].tolist()
        for s in range(0, order.shape[1], block):
            part = signed[:, s:s + block]
            k = part.shape[1]
            # Entries are range-checked, so "clip" never clips; it only
            # avoids the buffered copy that take's default "raise" mode makes.
            xs.take(part.T, axis=0, out=gathered[:k], mode="clip")
            np.copyto(step_rows[:k], gathered[:k].transpose(0, 2, 1))
            multiply(step_rows[:k], minus_eta[s:s + k], steps[:k])
            for row, step, shrink in zip(row_list[:k], step_list[:k], shrinks[s:s + k]):
                multiply(wb, row, terms)
                reduce(terms, 0, None, margin)
                less(margin, limit, update)
                multiply(weights, shrink, weights)
                multiply(step, update, bits)
                subtract(wb, terms, wb)
        w_epochs[e] = weights[:, :planes]
        b_epochs[e] = wb[features, :planes]
    w[...] = weights[:, :planes]
    b[...] = wb[features, :planes]


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

    Every plane takes each step together with numpy (``_train_lockstep``);
    one plane steps beside a copy of itself, so that numpy sums its dot
    product in feature order. Bad arguments raise (``_check``) before
    anything is written.
    """
    _check(x, y, orders, mask, w, b, w_epochs, b_epochs)
    epochs, planes, steps = orders.shape
    # eta = 1/(lam*(t0+t')) and factor = 1 - eta*lam for the steps t' of
    # every epoch, shared by all planes.
    eta = 1.0 / (lam * (t0 + np.arange(t + 1, t + 1 + epochs * steps).astype(np.float64)))
    factor = 1.0 - eta * lam
    _train_lockstep(x, y, orders, mask, w, b, w_epochs, b_epochs,
                    eta.reshape(epochs, steps), factor.reshape(epochs, steps))
    return t + epochs * steps
