"""Pure-Python twin of the compiled SGD kernel.

Same operations in the same order as the C extension ``_hinge_sgd.c``
(CPython floats are C doubles), so results are bit-identical to it, just
slower. It rejects the same mismatched shapes and out-of-range ``order``
entries, before ``w`` changes.
"""

import numpy as np


def _sgd_steps(rows, ys, order, ws, b, lam, t0, t):
    """One plane's SGD steps over ``rows[i]`` for each ``i`` in ``order``
    (lists), updating the list ``ws`` and returning the new bias; the step
    counter runs from t + 1 to t + len(order). The twin of C's
    ``sgd_steps``."""
    d = len(ws)
    for i in order:
        t += 1
        eta = 1.0 / (lam * (t0 + t))
        xi = rows[i]
        yi = ys[i]
        acc = 0.0
        for k in range(d):
            acc += ws[k] * xi[k]
        margin = yi * (acc - b)
        factor = 1.0 - eta * lam
        if margin < 1.0:
            step = eta * yi
            for k in range(d):
                ws[k] = factor * ws[k] + step * xi[k]
            b = b - step
        else:
            for k in range(d):
                ws[k] = factor * ws[k]
    return b


def hinge_epoch_batch(x, y, order, mask, w, b, lam, t0, t):
    """Run one epoch of SGD for several planes at once; updates ``w`` and
    ``b`` in place and returns the new global step counter.

    ``x`` is (rows, features). Plane p visits the rows in ``order[p]`` with
    labels ``y[p]`` and trains ``w[:, p]``, ``b[p]`` on the features where
    ``mask[:, p]`` is set, from step ``t``; its other weights, which must
    be zero, are left alone. When every plane selects every column, each
    runs ``_sgd_steps`` in turn. Otherwise all planes take each step
    together on a column-major copy of ``x``, with the same numbers: the
    dot product is summed in feature order (``np.add.accumulate``;
    ``np.dot`` and ``sum`` are not sequential), and the unselected terms it
    adds are zeros.
    """
    n, features = x.shape
    planes, steps = order.shape
    if y.shape != (planes, n):
        raise ValueError(f"y has shape {y.shape} but order and x need ({planes}, {n})")
    if mask.shape != (features, planes) or w.shape != (features, planes) or b.shape != (planes,):
        raise ValueError(
            f"mask {mask.shape}, w {w.shape} and b {b.shape} must be "
            f"({features}, {planes}), ({features}, {planes}) and ({planes},)"
        )
    if order.size and not (0 <= order.min() and order.max() < n):
        raise IndexError(f"order has an entry outside [0, {n})")
    if mask.all():
        # The vectorized step pays off only beyond a few planes; one
        # model's class planes run faster one at a time.
        rows = x.tolist()
        for p in range(planes):
            ws = w[:, p].tolist()
            b[p] = _sgd_steps(rows, y[p].tolist(), order[p].tolist(), ws, float(b[p]), lam, t0, t)
            w[:, p] = ws
        return t + steps
    x = np.ascontiguousarray(x.T)
    labels = y.ravel()
    offsets = np.arange(planes, dtype=np.int64) * n
    at = np.empty(planes, dtype=np.int64)
    xs = np.empty((features, planes))
    prod = np.empty((features, planes))
    acc = np.empty((features, planes))
    ys = np.empty(planes)
    margin = np.empty(planes)
    step = np.empty(planes)
    hit = np.empty(planes, dtype=bool)
    update = np.empty((features, planes), dtype=bool)
    # Entries are range-checked above, so "clip" never clips; it only
    # avoids the buffered copy that take's default "raise" mode makes.
    for s in range(steps):
        rows = order[:, s]
        t += 1
        eta = 1.0 / (lam * (t0 + t))
        factor = 1.0 - eta * lam
        x.take(rows, axis=1, out=xs, mode="clip")
        np.add(rows, offsets, out=at)
        labels.take(at, out=ys, mode="clip")
        np.multiply(w, xs, out=prod)
        np.add.accumulate(prod, axis=0, out=acc)
        np.subtract(acc[-1], b, out=margin)
        np.multiply(ys, margin, out=margin)
        np.less(margin, 1.0, out=hit)
        np.multiply(ys, eta, out=step)
        # factor * w + step * x where the margin is violated, factor * w
        # elsewhere; two rounded products and a rounded sum, as in C.
        np.multiply(w, factor, out=w, where=mask)
        np.multiply(xs, step, out=prod)
        np.logical_and(mask, hit, out=update)
        np.add(w, prod, out=w, where=update)
        np.subtract(b, step, out=b, where=hit)
    return t
