/* Compiled hot loop: shuffled passes of hinge-loss subgradient descent.
 *
 * A plain C library, loaded with ctypes by _kernels/__init__.py, which
 * checks every argument and passes the scratch buffers; the loop itself
 * checks and allocates nothing. Must remain operation-for-operation
 * identical to the pure-Python twin in _hinge_sgd_py.py so that both
 * backends produce bit-identical models (the library is compiled with
 * -ffp-contract=off for this reason).
 */
#include <stddef.h>

/* One plane's SGD steps over rows order[0..n) of the row-major x (row length
 * cols), updating w[0..d) and returning the new bias; the step counter runs
 * from t + 1 to t + n. The one place the operation order is written.
 *
 * restrict lets the compiler vectorize the weight update and keep values in
 * registers; it changes no rounding (the update is element-wise, the dot
 * product stays a sequential sum). It holds because w is the scratch wp and
 * x is the caller's rows or the scratch xp, so no two pointers overlap: an
 * edit that passes the caller's w here breaks it. */
static double
sgd_steps(const double *restrict x, ptrdiff_t cols, const double *restrict y,
          const long long *restrict order, ptrdiff_t n, double *restrict w, ptrdiff_t d,
          double b, double lam, double t0, long long t)
{
    for (ptrdiff_t pos = 0; pos < n; pos++) {
        const double *xi = x + order[pos] * cols;
        double yi = y[order[pos]];
        t += 1;
        double eta = 1.0 / (lam * (t0 + (double)t));
        double acc = 0.0;
        for (ptrdiff_t k = 0; k < d; k++)
            acc += w[k] * xi[k];
        double margin = yi * (acc - b);
        double factor = 1.0 - eta * lam;
        if (margin < 1.0) {
            double step = eta * yi;
            for (ptrdiff_t k = 0; k < d; k++)
                w[k] = factor * w[k] + step * xi[k];
            b = b - step;
        } else {
            for (ptrdiff_t k = 0; k < d; k++)
                w[k] = factor * w[k];
        }
    }
    return b;
}

/* Every epoch of SGD for several planes; see hinge_train in _hinge_sgd_py.py
 * for the arguments. x is (rows, features), y (planes, rows), orders
 * (epochs, planes, steps), mask, w (features, planes), b (planes),
 * w_epochs (epochs, features, planes) and b_epochs (epochs, planes), all
 * C-contiguous. The scratch holds features entries in cols and wp and
 * rows * features in xp.
 *
 * A plane that selects every column trains on x itself, any other on a
 * row-major copy of its selected columns, shared with the previous plane
 * when both select the same ones. A plane runs all its epochs on one copy;
 * epoch e starts at step t + e * steps. */
void
hinge_train(const double *x, const double *y, const long long *orders, const char *mask,
            double *w, double *b, double *w_epochs, double *b_epochs, ptrdiff_t rows,
            ptrdiff_t features, ptrdiff_t epochs, ptrdiff_t planes, ptrdiff_t steps,
            double lam, double t0, long long t, ptrdiff_t *cols, double *wp, double *xp)
{
    ptrdiff_t d_prev = -1;  /* columns in the copy xp, while cols lists them; else -1 */
    for (ptrdiff_t p = 0; p < planes; p++) {
        ptrdiff_t d = 0;
        int same = 1;
        for (ptrdiff_t k = 0; k < features; k++) {
            if (mask[k * planes + p]) {
                same &= d < d_prev && cols[d] == k;
                cols[d++] = k;
            }
        }
        const double *xs = xp;
        if (d == features) {
            xs = x;
            d_prev = -1;  /* cols now lists every column, not the copy's */
        } else if (!same || d != d_prev) {
            for (ptrdiff_t i = 0; i < rows; i++)
                for (ptrdiff_t j = 0; j < d; j++)
                    xp[i * d + j] = x[i * features + cols[j]];
            d_prev = d;
        }
        for (ptrdiff_t j = 0; j < d; j++)
            wp[j] = w[cols[j] * planes + p];
        double bp = b[p];
        for (ptrdiff_t e = 0; e < epochs; e++) {
            bp = sgd_steps(xs, d, y + p * rows, orders + (e * planes + p) * steps, steps, wp, d,
                           bp, lam, t0, t + (long long)(e * steps));
            for (ptrdiff_t j = 0; j < d; j++)
                w[cols[j] * planes + p] = wp[j];
            for (ptrdiff_t k = 0; k < features; k++)
                w_epochs[(e * features + k) * planes + p] = w[k * planes + p];
            b_epochs[e * planes + p] = bp;
        }
        b[p] = bp;
    }
}
