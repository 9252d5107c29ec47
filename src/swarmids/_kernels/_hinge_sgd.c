/* Compiled hot loop: shuffled passes of hinge-loss subgradient descent.
 *
 * Must remain operation-for-operation identical to the pure-Python twin in
 * _hinge_sgd_py.py so that both backends produce bit-identical models (the
 * extension is compiled with -ffp-contract=off for this reason). Arguments
 * are checked before the loop, which then runs without the GIL.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

struct arg {
    const char *name;
    int ndim;
    char kind;  /* 'd' float64, 'i' int64, 'b' bool */
    int writable;
};

/* Acquire a C-contiguous buffer of the argument's dimension and kind: 8-byte
 * doubles, 8-byte signed integers (int64 has format 'l' on LP64 platforms
 * and 'q' elsewhere) or 1-byte bools. */
static int
get_buffer(PyObject *obj, Py_buffer *view, const struct arg *a)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (a->writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *f = view->format[0] == '@' ? view->format + 1 : view->format;
    int type_ok = a->kind == 'd' ? f[0] == 'd'
                : a->kind == 'b' ? f[0] == '?'
                : (f[0] == 'l' || f[0] == 'q');
    if (view->ndim != a->ndim || view->itemsize != (a->kind == 'b' ? 1 : 8) || !type_ok
        || f[1] != '\0') {
        PyErr_Format(PyExc_ValueError, "%s must be a %d-d %s array, got format '%s' with ndim %d",
                     a->name, a->ndim,
                     a->kind == 'd' ? "float64" : a->kind == 'b' ? "bool" : "int64",
                     view->format, view->ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Acquire every buffer or none; 0 on success, -1 with an exception set. */
static int
get_buffers(PyObject **objs, Py_buffer *views, const struct arg *args, int count)
{
    for (int i = 0; i < count; i++) {
        if (get_buffer(objs[i], &views[i], &args[i]) < 0) {
            while (i > 0)
                PyBuffer_Release(&views[--i]);
            return -1;
        }
    }
    return 0;
}

static void
release_buffers(Py_buffer *views, int count)
{
    while (count > 0)
        PyBuffer_Release(&views[--count]);
}

/* Checked in one pass; the unsigned compare catches negatives. */
static int
order_in_range(const long long *order, Py_ssize_t n, Py_ssize_t rows)
{
    int bad = 0;
    for (Py_ssize_t pos = 0; pos < n; pos++)
        bad |= (unsigned long long)order[pos] >= (unsigned long long)rows;
    if (bad)
        PyErr_Format(PyExc_IndexError, "order has an entry outside [0, %zd)", rows);
    return !bad;
}

/* One plane's SGD steps over rows order[0..n) of the row-major x (row length
 * cols), updating w[0..d) and returning the new bias; the step counter runs
 * from t + 1 to t + n. The one place the operation order is written. */
static double
sgd_steps(const double *x, Py_ssize_t cols, const double *y, const long long *order,
          Py_ssize_t n, double *w, Py_ssize_t d, double b, double lam, double t0,
          long long t)
{
    for (Py_ssize_t pos = 0; pos < n; pos++) {
        const double *xi = x + order[pos] * cols;
        double yi = y[order[pos]];
        t += 1;
        double eta = 1.0 / (lam * (t0 + (double)t));
        double acc = 0.0;
        for (Py_ssize_t k = 0; k < d; k++)
            acc += w[k] * xi[k];
        double margin = yi * (acc - b);
        double factor = 1.0 - eta * lam;
        if (margin < 1.0) {
            double step = eta * yi;
            for (Py_ssize_t k = 0; k < d; k++)
                w[k] = factor * w[k] + step * xi[k];
            b = b - step;
        } else {
            for (Py_ssize_t k = 0; k < d; k++)
                w[k] = factor * w[k];
        }
    }
    return b;
}

static const struct arg train_args[8] = {
    {"x", 2, 'd', 0}, {"y", 2, 'd', 0}, {"orders", 3, 'i', 0}, {"mask", 2, 'b', 0},
    {"w", 2, 'd', 1}, {"b", 1, 'd', 1}, {"w_epochs", 3, 'd', 1}, {"b_epochs", 2, 'd', 1},
};

static PyObject *
run_train(Py_buffer *v, double lam, double t0, long long t)
{
    const double *x = v[0].buf, *y = v[1].buf;
    const long long *orders = v[2].buf;
    const char *mask = v[3].buf;
    double *w = v[4].buf, *b = v[5].buf, *w_epochs = v[6].buf, *b_epochs = v[7].buf;
    Py_ssize_t rows = v[0].shape[0], features = v[0].shape[1];
    Py_ssize_t epochs = v[2].shape[0], planes = v[2].shape[1], n = v[2].shape[2];

    if (v[1].shape[0] != planes || v[1].shape[1] != rows)
        return PyErr_Format(PyExc_ValueError, "y has shape (%zd, %zd) but orders and x need (%zd, %zd)",
                            v[1].shape[0], v[1].shape[1], planes, rows);
    for (int i = 3; i < 5; i++)
        if (v[i].shape[0] != features || v[i].shape[1] != planes)
            return PyErr_Format(PyExc_ValueError, "%s has shape (%zd, %zd) but must be (%zd, %zd)",
                                train_args[i].name, v[i].shape[0], v[i].shape[1], features, planes);
    if (v[5].shape[0] != planes)
        return PyErr_Format(PyExc_ValueError, "b has %zd entries but orders has %zd planes",
                            v[5].shape[0], planes);
    if (v[6].shape[0] != epochs || v[6].shape[1] != features || v[6].shape[2] != planes
        || v[7].shape[0] != epochs || v[7].shape[1] != planes)
        return PyErr_Format(PyExc_ValueError,
                            "w_epochs and b_epochs must be (%zd, %zd, %zd) and (%zd, %zd)",
                            epochs, features, planes, epochs, planes);
    if (!order_in_range(orders, epochs * planes * n, rows))
        return NULL;
    for (Py_ssize_t i = 0; i < features * planes; i++)
        if (!mask[i] && w[i] != 0.0)
            return PyErr_Format(PyExc_ValueError, "w has a nonzero weight outside the mask");

    /* A plane that selects every column trains on x itself, any other on a
     * row-major copy of its selected columns, shared with the previous plane
     * when both select the same ones. A plane runs all its epochs on one
     * copy; epoch e starts at step t + e * n. */
    Py_ssize_t *cols = PyMem_Malloc((features + 1) * sizeof *cols);
    double *wp = PyMem_Malloc((features + 1) * sizeof *wp);
    double *xp = PyMem_Malloc((rows * features + 1) * sizeof *xp);
    if (cols == NULL || wp == NULL || xp == NULL) {
        PyMem_Free(cols);
        PyMem_Free(wp);
        PyMem_Free(xp);
        return PyErr_NoMemory();
    }
    Py_BEGIN_ALLOW_THREADS
    Py_ssize_t d_prev = -1;  /* columns in the copy xp, while cols lists them; else -1 */
    for (Py_ssize_t p = 0; p < planes; p++) {
        Py_ssize_t d = 0;
        int same = 1;
        for (Py_ssize_t k = 0; k < features; k++) {
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
            for (Py_ssize_t i = 0; i < rows; i++)
                for (Py_ssize_t j = 0; j < d; j++)
                    xp[i * d + j] = x[i * features + cols[j]];
            d_prev = d;
        }
        for (Py_ssize_t j = 0; j < d; j++)
            wp[j] = w[cols[j] * planes + p];
        double bp = b[p];
        for (Py_ssize_t e = 0; e < epochs; e++) {
            bp = sgd_steps(xs, d, y + p * rows, orders + (e * planes + p) * n, n, wp, d, bp,
                           lam, t0, t + (long long)(e * n));
            for (Py_ssize_t j = 0; j < d; j++)
                w[cols[j] * planes + p] = wp[j];
            for (Py_ssize_t k = 0; k < features; k++)
                w_epochs[(e * features + k) * planes + p] = w[k * planes + p];
            b_epochs[e * planes + p] = bp;
        }
        b[p] = bp;
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(cols);
    PyMem_Free(wp);
    PyMem_Free(xp);
    return PyLong_FromLongLong(t + (long long)(epochs * n));
}

static PyObject *
hinge_train(PyObject *self, PyObject *args)
{
    PyObject *objs[8], *result;
    Py_buffer views[8];
    double lam, t0;
    long long t;

    if (!PyArg_ParseTuple(args, "OOOOOOOOddL:hinge_train", &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5], &objs[6], &objs[7], &lam, &t0, &t))
        return NULL;
    if (get_buffers(objs, views, train_args, 8) < 0)
        return NULL;
    result = run_train(views, lam, t0, t);
    release_buffers(views, 8);
    return result;
}

static PyMethodDef methods[] = {
    {"hinge_train", hinge_train, METH_VARARGS,
     "hinge_train(x, y, orders, mask, w, b, w_epochs, b_epochs, lam, t0, t) -> t\n\n"
     "Run every epoch of SGD for several planes; updates ``w`` and ``b`` in place.\n\n"
     "``x`` is (rows, features) and ``orders`` (epochs, planes, steps). In epoch e,\n"
     "plane p visits rows ``orders[e, p]`` with labels ``y[p]`` from step\n"
     "``t + e * steps`` and trains ``w[:, p]``, ``b[p]`` on the features where\n"
     "``mask[:, p]`` is set; its other weights must be zero and are left alone.\n"
     "The iterate at the end of epoch e goes to ``w_epochs[e]`` and ``b_epochs[e]``.\n"
     "Returns the new global step counter ``t + epochs * steps``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_hinge_sgd",
    .m_doc = "Compiled hot loop: shuffled passes of hinge-loss subgradient descent.",
    .m_size = 0,
    .m_methods = methods,
};

/* Multi-phase initialization: the module holds no state, and loading it from
 * a file by spec leaves sys.modules alone. */
PyMODINIT_FUNC
PyInit__hinge_sgd(void)
{
    return PyModuleDef_Init(&module);
}
