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
    """Each plane in turn, every epoch, through ``_sgd_steps`` on lists of
    its selected columns (made once per run of planes on the same mask)."""
    cols, rows = None, None
    for p in range(len(b)):
        selected = np.flatnonzero(mask[:, p])
        if cols is None or not np.array_equal(selected, cols):
            cols = selected
            rows = (x if len(cols) == x.shape[1] else x[:, cols]).tolist()
        ws = w[cols, p].tolist()
        bias = float(b[p])
        for e, order in enumerate(orders[:, p]):
            ys = y[p].take(order)
            bias = _sgd_steps(rows, order.tolist(), ys.tolist(), (eta[e] * ys).tolist(),
                              factor[e].tolist(), ws, bias)
            w[cols, p] = ws
            w_epochs[e, :, p] = w[:, p]
            b_epochs[e, p] = bias
        b[p] = bias


def _train_lockstep(x, y, orders, mask, w, b, w_epochs, b_epochs, eta, factor):
    """All planes take each step together on a feature-major copy of ``x``.

    The dot products are ``np.add.reduce`` over axis 0 of the C-contiguous
    (features, planes) products: numpy sums pairwise only along the fast
    axis, so with two or more planes each is summed in feature order, as
    in C. The unselected terms it adds are zeros. Every weight shrinks,
    with no mask: unselected ones are +0.0 and factor >= 0, so they stay
    +0.0.
    """
    xt = np.ascontiguousarray(x.T)
    xs = np.empty(w.shape)
    prod = np.empty(w.shape)
    update = np.empty(w.shape, dtype=bool)
    acc = np.empty(len(b))
    margin = np.empty(len(b))
    moved = np.empty(len(b))
    hit = np.empty(len(b), dtype=bool)
    step = np.empty(len(b))
    for e, order in enumerate(orders):
        labels = np.take_along_axis(y.T, order.T, axis=0)  # (steps, planes)
        # Entries are range-checked, so "clip" never clips; it only avoids
        # the buffered copy that take's default "raise" mode makes.
        for rows, ys, rate, shrink in zip(order.T, labels, eta[e].tolist(), factor[e].tolist()):
            xt.take(rows, axis=1, out=xs, mode="clip")
            np.multiply(w, xs, out=prod)
            np.add.reduce(prod, axis=0, out=acc)
            np.subtract(acc, b, out=margin)
            np.multiply(ys, margin, out=margin)
            np.less(margin, 1.0, out=hit)
            np.multiply(ys, rate, out=step)
            # factor * w + step * x where the margin is violated, factor * w
            # elsewhere; two rounded products and a rounded sum, as in C.
            np.multiply(w, shrink, out=w)
            np.multiply(xs, step, out=prod)
            np.add(w, prod, out=prod)
            np.logical_and(mask, hit, out=update)
            np.putmask(w, update, prod)
            np.subtract(b, step, out=moved)
            np.putmask(b, hit, moved)
        w_epochs[e] = w
        b_epochs[e] = b


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

    One plane, or planes that all select every column, train one at a
    time through ``_sgd_steps`` on Python lists. Otherwise all planes take
    each step together with numpy (``_train_lockstep``), which one plane
    must never reach: numpy would sum its dot product pairwise. Bad
    arguments raise (``_check``) before anything is written.
    """
    _check(x, y, orders, mask, w, b, w_epochs, b_epochs)
    epochs, planes, steps = orders.shape
    # eta = 1/(lam*(t0+t')) and factor = 1 - eta*lam for the steps t' of
    # every epoch, shared by all planes.
    eta = 1.0 / (lam * (t0 + np.arange(t + 1, t + 1 + epochs * steps).astype(np.float64)))
    factor = 1.0 - eta * lam
    train = _train_lists if planes == 1 or mask.all() else _train_lockstep
    train(x, y, orders, mask, w, b, w_epochs, b_epochs,
          eta.reshape(epochs, steps), factor.reshape(epochs, steps))
    return t + epochs * steps
