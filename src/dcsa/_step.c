/* The steps of one block of dcsa's iteration in one C call per block.

   quadratic_steps(x1, x2, theta, theta_mix, iterates, rows_mix, mixers,
   eps) and qlearning_steps(index, reward, gamma, theta, theta_mix,
   iterates, rows_mix, mixers, eps) run the T = len(eps) steps of a block.
   At step t each calls mixers[t](prev_mix, rows_mix[t]), the frame's mix
   that writes W Theta into row t of iterates (prev_mix is theta_mix at
   t = 0 and rows_mix[t - 1] after), then adds eps[t] times every agent's
   drift row, at the pre-step iterate (theta at t = 0, row t - 1 after),
   to row t in place. The mix is the engine's own callable, so the gemm and
   its rounding are numpy's; the drift rounds as the numpy step of
   quadratic_block_drift and qlearning_block_drift does, one IEEE
   operation at a time in the same order, so both give the same bytes; the
   build flags keep it so (-ffp-contract=off: no fused multiply-add).

   Arrays come in through the buffer protocol as C-contiguous float64 (or
   intp) buffers, so no numpy header is needed. Every buffer, and the list
   of eps floats, is read once per block, and every size is checked before
   the first step; an exception raised by a mixer ends the block and
   propagates. dcsa._build compiles this file when dcsa.operators is
   imported. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* A C-contiguous buffer of float64 ('d') or intp ('n') items. */
static int
get_array(PyObject *obj, Py_buffer *view, char kind, int flags,
          const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                           | flags) < 0)
        return -1;
    const char *f = view->format;
    if (f[0] == '@')
        f++;
    int ok = kind == 'd'
        ? view->itemsize == sizeof(double) && f[0] == 'd' && !f[1]
        : view->itemsize == sizeof(Py_ssize_t) && !f[1]
          && (f[0] == 'n' || f[0] == 'l' || f[0] == 'q');
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "%s must be a C-contiguous %s array",
                     name, kind == 'd' ? "float64" : "intp");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static Py_ssize_t
items(const Py_buffer *view)
{
    return view->len / view->itemsize;
}

static int
get_double(PyObject *obj, double *value)
{
    *value = PyFloat_Check(obj) ? PyFloat_AS_DOUBLE(obj)
                                : PyFloat_AsDouble(obj);
    return *value == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* numpy's "clip" mode of take and put */
static inline Py_ssize_t
clip(Py_ssize_t i, Py_ssize_t n)
{
    return i < 0 ? 0 : i >= n ? n - 1 : i;
}

/* A block's steps: eps, a list of T floats, parsed into a new array that
   the caller frees with PyMem_Free, once rows_mix and mixers are known to
   hold at least T items each. Returns T, or -1 with an exception set. */
static Py_ssize_t
get_steps(PyObject *rows_mix, PyObject *mixers, PyObject *eps,
          double **steps)
{
    if (!PyList_Check(eps)) {
        PyErr_SetString(PyExc_TypeError, "eps must be a list of floats");
        return -1;
    }
    Py_ssize_t T = PyList_GET_SIZE(eps);
    Py_ssize_t n_rows = PySequence_Size(rows_mix);
    if (n_rows < 0)
        return -1;
    Py_ssize_t n_mixers = PySequence_Size(mixers);
    if (n_mixers < 0)
        return -1;
    if (n_rows < T || n_mixers < T) {
        PyErr_Format(PyExc_ValueError, "rows_mix and mixers must hold the "
                     "block's %zd steps, not %zd and %zd", T, n_rows,
                     n_mixers);
        return -1;
    }
    *steps = PyMem_Malloc((T ? T : 1) * sizeof(double));
    if (*steps == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t t = 0; t < T; t++) {
        /* an item's __float__ may change the list: check and hold it */
        if (t >= PyList_GET_SIZE(eps)) {
            PyErr_SetString(PyExc_ValueError, "eps changed size");
            PyMem_Free(*steps);
            return -1;
        }
        PyObject *item = PyList_GET_ITEM(eps, t);
        Py_INCREF(item);
        int bad = get_double(item, *steps + t) < 0;
        Py_DECREF(item);
        if (bad) {
            PyMem_Free(*steps);
            return -1;
        }
    }
    return T;
}

/* adds eps times the drift at theta to out, at step t of the block */
typedef void (*drift_fn)(const void *ctx, Py_ssize_t t, const double *theta,
                         double *out, double eps);

/* The loop of the block's T steps over rows of `size` doubles: mix, then
   drift, at each step. Returns 0, or -1 with the mixer's exception. */
static int
run_steps(PyObject *theta_mix, PyObject *rows_mix, PyObject *mixers,
          const double *steps, Py_ssize_t T, const double *theta,
          double *iterates, Py_ssize_t size, drift_fn drift, const void *ctx)
{
    PyObject *prev_mix = theta_mix;   /* borrowed at t = 0, owned after */
    Py_INCREF(prev_mix);
    for (Py_ssize_t t = 0; t < T; t++) {
        PyObject *mixer = PySequence_GetItem(mixers, t);
        if (mixer == NULL)
            goto fail;
        PyObject *row = PySequence_GetItem(rows_mix, t);
        if (row == NULL) {
            Py_DECREF(mixer);
            goto fail;
        }
        PyObject *mix_args[2] = {prev_mix, row};
        PyObject *done = PyObject_Vectorcall(mixer, mix_args, 2, NULL);
        Py_DECREF(mixer);
        Py_DECREF(prev_mix);
        prev_mix = row;
        if (done == NULL)
            goto fail;
        Py_DECREF(done);
        double *out = iterates + t * size;
        drift(ctx, t, t ? out - size : theta, out, steps[t]);
    }
    Py_DECREF(prev_mix);
    return 0;
fail:
    Py_DECREF(prev_mix);
    return -1;
}

/* The quadratic drift of x1 (rows + 1, n, d) and x2 (rows, n[, 1]) at
   step t, from their rows t + 1 and t. For each of the n rows of theta
   and out: s = ((0 + x1_0 theta_0) + x1_1 theta_1) + ...,
   r = (x2 - s) * 2, and out_j = out_j + (r x1_j) eps. */
typedef struct {
    const double *x1, *x2;
    Py_ssize_t n, d;
} quadratic_ctx;

static void
quadratic_drift(const void *ctx, Py_ssize_t t, const double *theta,
                double *out, double eps)
{
    const quadratic_ctx *c = ctx;
    Py_ssize_t n = c->n, d = c->d;
    const double *x1 = c->x1 + (t + 1) * n * d, *x2 = c->x2 + t * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *th = theta + i * d, *x = x1 + i * d;
        double *o = out + i * d;
        double s = 0.0;
        for (Py_ssize_t j = 0; j < d; j++)
            s = s + x[j] * th[j];
        double r = (x2[i] - s) * 2.0;
        for (Py_ssize_t j = 0; j < d; j++)
            o[j] = o[j] + r * x[j] * eps;
    }
}

static PyObject *
quadratic_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4];   /* x1, x2, theta, iterates */
    static const char *names[] = {"x1", "x2", "theta", "iterates"};
    double *steps = NULL;
    int got = 0;
    PyObject *result = NULL;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "quadratic_steps(x1, x2, theta, "
                        "theta_mix, iterates, rows_mix, mixers, eps) takes "
                        "8 arguments");
        return NULL;
    }
    Py_ssize_t T = get_steps(args[5], args[6], args[7], &steps);
    if (T < 0)
        return NULL;
    static const int where[] = {0, 1, 2, 4};
    for (; got < 4; got++)
        if (get_array(args[where[got]], &b[got], 'd',
                      got == 3 ? PyBUF_WRITABLE : 0, names[got]) < 0)
            goto done;
    if (b[0].ndim != 3) {
        PyErr_SetString(PyExc_ValueError, "x1 must be (rows + 1, n, d)");
        goto done;
    }
    quadratic_ctx ctx = {b[0].buf, b[1].buf, b[0].shape[1], b[0].shape[2]};
    Py_ssize_t size = ctx.n * ctx.d;
    if (items(&b[2]) != size || b[0].shape[0] <= T
            || items(&b[1]) < T * ctx.n || items(&b[3]) < T * size) {
        PyErr_Format(PyExc_ValueError, "theta must be (n, d) = (%zd, %zd) "
                     "as x1's rows, and x1, x2 and iterates must hold the "
                     "block's %zd steps", ctx.n, ctx.d, T);
        goto done;
    }
    if (run_steps(args[3], args[5], args[6], steps, T, b[2].buf, b[3].buf,
                  size, quadratic_drift, &ctx) < 0)
        goto done;
    result = Py_None;
    Py_INCREF(result);
done:
    while (got--)
        PyBuffer_Release(&b[got]);
    PyMem_Free(steps);
    return result;
}

/* The Q-learning drift at step t of index (rows, A + 1, n) and reward
   (rows, n), from their rows t. For each agent i of n, with the A + 1
   rows of n indices into the flat tables theta and out of `size` entries
   (the A actions' Q(s', a) indices, then the slot Q(s, a)): m = the
   maximum of theta at the A action indices, taken in action order as
   np.maximum does, so m keeps the first NaN and a tie takes the later
   entry; then out[slot] = out[slot] +
   ((((m gamma) + reward) - theta[slot]) eps). */
typedef struct {
    const Py_ssize_t *index;
    const double *reward;
    Py_ssize_t rows, n, size;
    double gamma;
} qlearning_ctx;

static void
qlearning_drift(const void *ctx, Py_ssize_t t, const double *theta,
                double *out, double eps)
{
    const qlearning_ctx *c = ctx;
    Py_ssize_t rows = c->rows, n = c->n, size = c->size;
    const Py_ssize_t *index = c->index + t * rows * n;
    const Py_ssize_t *slots = index + (rows - 1) * n;
    const double *reward = c->reward + t * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        double m = theta[clip(index[i], size)];
        for (Py_ssize_t a = 1; a < rows - 1; a++) {
            double v = theta[clip(index[a * n + i], size)];
            if (!(m > v) && m == m)
                m = v;
        }
        Py_ssize_t slot = clip(slots[i], size);
        out[slot] = out[slot]
            + (m * c->gamma + reward[i] - theta[slot]) * eps;
    }
}

static PyObject *
qlearning_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4];   /* index, reward, theta, iterates */
    static const char *names[] = {"index", "reward", "theta", "iterates"};
    static const int where[] = {0, 1, 3, 5};
    static const char kinds[] = {'n', 'd', 'd', 'd'};
    double *steps = NULL;
    int got = 0;
    PyObject *result = NULL;

    if (nargs != 9) {
        PyErr_SetString(PyExc_TypeError, "qlearning_steps(index, reward, "
                        "gamma, theta, theta_mix, iterates, rows_mix, "
                        "mixers, eps) takes 9 arguments");
        return NULL;
    }
    qlearning_ctx ctx;
    if (get_double(args[2], &ctx.gamma) < 0)
        return NULL;
    Py_ssize_t T = get_steps(args[6], args[7], args[8], &steps);
    if (T < 0)
        return NULL;
    for (; got < 4; got++)
        if (get_array(args[where[got]], &b[got], kinds[got],
                      got == 3 ? PyBUF_WRITABLE : 0, names[got]) < 0)
            goto done;
    if (b[0].ndim != 3) {
        PyErr_SetString(PyExc_ValueError, "index must be (rows, A + 1, n)");
        goto done;
    }
    ctx.index = b[0].buf;
    ctx.reward = b[1].buf;
    ctx.rows = b[0].shape[1];
    ctx.n = b[0].shape[2];
    ctx.size = items(&b[2]);
    if (ctx.rows < 2 || !ctx.size || b[0].shape[0] < T
            || items(&b[1]) < T * ctx.n || items(&b[3]) < T * ctx.size) {
        PyErr_Format(PyExc_ValueError, "theta must be one non-empty table, "
                     "index (rows, A + 1, n) with A >= 1, and index, reward "
                     "and iterates must hold the block's %zd steps", T);
        goto done;
    }
    if (run_steps(args[4], args[6], args[7], steps, T, b[2].buf, b[3].buf,
                  ctx.size, qlearning_drift, &ctx) < 0)
        goto done;
    result = Py_None;
    Py_INCREF(result);
done:
    while (got--)
        PyBuffer_Release(&b[got]);
    PyMem_Free(steps);
    return result;
}

static PyMethodDef methods[] = {
    {"quadratic_steps", (PyCFunction)(void (*)(void))quadratic_steps,
     METH_FASTCALL,
     "quadratic_steps(x1, x2, theta, theta_mix, iterates, rows_mix, mixers, "
     "eps): a block of quadratic-gradient steps."},
    {"qlearning_steps", (PyCFunction)(void (*)(void))qlearning_steps,
     METH_FASTCALL,
     "qlearning_steps(index, reward, gamma, theta, theta_mix, iterates, "
     "rows_mix, mixers, eps): a block of Q-learning steps."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_step",
    .m_doc = "The steps of a block of dcsa's iteration in C.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__step(void)
{
    return PyModule_Create(&module);
}
