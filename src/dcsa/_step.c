/* The steps of one block of dcsa's iteration, and its deviations from the
   agents' mean, in one C call per block each.

   quadratic_steps(x1, x2, theta, iterates, rows_mix, mixers, eps) and
   qlearning_steps(index, reward, gamma, theta, iterates, rows_mix, mixers,
   eps) run the T = len(eps) steps of a block. theta is the pre-block
   iterate, in the mixers' shape, and eps the block's steps, a 1-D float64
   array. At step t each calls mixers[t](prev, rows_mix[t]), the frame's
   mix that writes W Theta into row t of iterates (prev is theta at t = 0
   and rows_mix[t - 1] after), then adds eps[t] times every agent's drift
   row, at the pre-step iterate (theta's buffer at t = 0, row t - 1 after),
   to row t in place. The mix is the engine's own callable, so the gemm and
   its rounding are numpy's; the drift rounds as the numpy step of
   quadratic_block_drift and qlearning_block_drift does, one IEEE
   operation at a time in the same order, so both give the same bytes; the
   build flags keep it so (-ffp-contract=off: no fused multiply-add).

   deviations(thetas, theta_bar, dev[, S]) is the engine's measure of a
   block's iterates, (rows, N, d): each row's agents' mean into theta_bar,
   (rows, d), its squared deviations from it into dev, (rows, N, d), and,
   where S is given, each row's sum of them into S, (rows,). It rounds as
   numpy's ordered_sum, subtract, square and, for rows of N * d below 8,
   np.add.reduce do (see deviations_of), and the buffers it writes must
   not overlap each other or thetas.

   Arrays come in through the buffer protocol as C-contiguous float64 (or
   intp) buffers, so no numpy header is needed. Every buffer is read once
   per block, and every size is checked before the first write; an
   exception raised by a mixer ends the block and propagates.
   dcsa._build compiles this file when dcsa.operators is imported. */

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

/* numpy's "clip" mode of take and put */
static inline Py_ssize_t
clip(Py_ssize_t i, Py_ssize_t n)
{
    return i < 0 ? 0 : i >= n ? n - 1 : i;
}

/* The buffers of an entry point, in the order both hold them: its two
   sample arrays, theta, iterates and eps, each its argument's position,
   its kind, its buffer flags and its name. The contract's other
   arguments, rows_mix and mixers, follow iterates. */
enum { QUADRATIC, QLEARNING };
enum { SAMPLE_A, SAMPLE_B, THETA, ITERATES, EPS, N_BUFFERS };
typedef struct {
    int arg;
    char kind;
    int flags;
    const char *name;
} buffer_arg;
static const buffer_arg buffers[2][N_BUFFERS] = {
    {{0, 'd', 0, "x1"}, {1, 'd', 0, "x2"}, {2, 'd', 0, "theta"},
     {3, 'd', PyBUF_WRITABLE, "iterates"}, {6, 'd', 0, "eps"}},
    {{0, 'n', 0, "index"}, {1, 'd', 0, "reward"}, {3, 'd', 0, "theta"},
     {4, 'd', PyBUF_WRITABLE, "iterates"}, {7, 'd', 0, "eps"}},
};

static void
release(Py_buffer *b, int got)
{
    while (got--)
        PyBuffer_Release(&b[got]);
}

/* The buffers of an entry point's table into b, once eps is 1-D and
   rows_mix and mixers hold at least its T items. Returns T, or -1 with
   an exception set and no buffer held. */
static Py_ssize_t
get_buffers(PyObject *const *args, const buffer_arg *table, Py_buffer *b)
{
    int got = 0;
    for (; got < N_BUFFERS; got++)
        if (get_array(args[table[got].arg], &b[got], table[got].kind,
                      table[got].flags, table[got].name) < 0)
            goto fail;
    Py_ssize_t T = items(&b[EPS]);
    if (b[EPS].ndim != 1) {
        PyErr_SetString(PyExc_ValueError, "eps must be 1-D");
        goto fail;
    }
    int after = table[ITERATES].arg;
    Py_ssize_t n_rows = PySequence_Size(args[after + 1]);
    if (n_rows < 0)
        goto fail;
    Py_ssize_t n_mixers = PySequence_Size(args[after + 2]);
    if (n_mixers < 0)
        goto fail;
    if (n_rows < T || n_mixers < T) {
        PyErr_Format(PyExc_ValueError, "rows_mix and mixers must hold the "
                     "block's %zd steps, not %zd and %zd", T, n_rows,
                     n_mixers);
        goto fail;
    }
    return T;
fail:
    release(b, got);
    return -1;
}

/* adds eps times the drift at theta to out, at step t of the block */
typedef void (*drift_fn)(const void *ctx, Py_ssize_t t, const double *theta,
                         double *out, double eps);

/* The loop of the block's T steps over rows of `size` doubles: mix, then
   drift, at each step. args are the entry point's, from theta on, and b
   its buffers. Returns None, or NULL with the mixer's exception. */
static PyObject *
run_steps(PyObject *const *args, const Py_buffer *b, Py_ssize_t size,
          drift_fn drift, const void *ctx)
{
    PyObject *rows_mix = args[2], *mixers = args[3];
    const double *steps = b[EPS].buf;
    double *iterates = b[ITERATES].buf;
    PyObject *prev = args[0];   /* theta: borrowed at t = 0, owned after */
    Py_INCREF(prev);
    for (Py_ssize_t t = 0, T = items(&b[EPS]); t < T; t++) {
        PyObject *mixer = PySequence_GetItem(mixers, t);
        if (mixer == NULL)
            goto fail;
        PyObject *row = PySequence_GetItem(rows_mix, t);
        if (row == NULL) {
            Py_DECREF(mixer);
            goto fail;
        }
        PyObject *mix_args[2] = {prev, row};
        PyObject *done = PyObject_Vectorcall(mixer, mix_args, 2, NULL);
        Py_DECREF(mixer);
        Py_DECREF(prev);
        prev = row;
        if (done == NULL)
            goto fail;
        Py_DECREF(done);
        double *out = iterates + t * size;
        drift(ctx, t, t ? out - size : b[THETA].buf, out, steps[t]);
    }
    Py_DECREF(prev);
    Py_RETURN_NONE;
fail:
    Py_DECREF(prev);
    return NULL;
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
    Py_buffer b[N_BUFFERS];
    PyObject *result = NULL;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "quadratic_steps(x1, x2, theta, "
                        "iterates, rows_mix, mixers, eps) takes 7 "
                        "arguments");
        return NULL;
    }
    Py_ssize_t T = get_buffers(args, buffers[QUADRATIC], b);
    if (T < 0)
        return NULL;
    if (b[SAMPLE_A].ndim != 3) {
        PyErr_SetString(PyExc_ValueError, "x1 must be (rows + 1, n, d)");
        goto done;
    }
    quadratic_ctx ctx = {b[SAMPLE_A].buf, b[SAMPLE_B].buf,
                         b[SAMPLE_A].shape[1], b[SAMPLE_A].shape[2]};
    Py_ssize_t size = ctx.n * ctx.d;
    if (items(&b[THETA]) != size || b[SAMPLE_A].shape[0] <= T
            || items(&b[SAMPLE_B]) < T * ctx.n
            || items(&b[ITERATES]) < T * size) {
        PyErr_Format(PyExc_ValueError, "theta must hold n * d = %zd * %zd "
                     "items as x1's rows, and x1, x2 and iterates must hold "
                     "the block's %zd steps", ctx.n, ctx.d, T);
        goto done;
    }
    result = run_steps(args + 2, b, size, quadratic_drift, &ctx);
done:
    release(b, N_BUFFERS);
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
    Py_buffer b[N_BUFFERS];
    PyObject *result = NULL;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "qlearning_steps(index, reward, "
                        "gamma, theta, iterates, rows_mix, mixers, eps) "
                        "takes 8 arguments");
        return NULL;
    }
    qlearning_ctx ctx;
    ctx.gamma = PyFloat_AsDouble(args[2]);
    if (ctx.gamma == -1.0 && PyErr_Occurred())
        return NULL;
    Py_ssize_t T = get_buffers(args, buffers[QLEARNING], b);
    if (T < 0)
        return NULL;
    if (b[SAMPLE_A].ndim != 3) {
        PyErr_SetString(PyExc_ValueError, "index must be (rows, A + 1, n)");
        goto done;
    }
    ctx.index = b[SAMPLE_A].buf;
    ctx.reward = b[SAMPLE_B].buf;
    ctx.rows = b[SAMPLE_A].shape[1];
    ctx.n = b[SAMPLE_A].shape[2];
    ctx.size = items(&b[THETA]);
    if (ctx.rows < 2 || !ctx.size || b[SAMPLE_A].shape[0] < T
            || items(&b[SAMPLE_B]) < T * ctx.n
            || items(&b[ITERATES]) < T * ctx.size) {
        PyErr_Format(PyExc_ValueError, "theta must be one non-empty table, "
                     "index (rows, A + 1, n) with A >= 1, and index, reward "
                     "and iterates must hold the block's %zd steps", T);
        goto done;
    }
    result = run_steps(args + 3, b, ctx.size, qlearning_drift, &ctx);
done:
    release(b, N_BUFFERS);
    return result;
}

/* theta_bar and dev of the w <= 2 columns j, j + w - 1 of one row th of n
   agents of d: bar_j = (((0 + th_0j) + th_1j) + ...) / n, the chain
   ordered_sum makes over the agent axis, and dev_ij = (th_ij - bar_j)
   (th_ij - bar_j). With w = 2 the two columns' chains run side by side
   in registers, and the compiler makes each pair of deviations one
   two-lane subtract and multiply, which round each lane as the scalar
   operations do. */
static inline void
deviation_columns(const double *restrict th, double *restrict bar,
                  double *restrict dev, Py_ssize_t n, Py_ssize_t d,
                  Py_ssize_t j, int w)
{
    double b[2];
    for (int k = 0; k < w; k++)
        b[k] = 0.0 + th[j + k];
    for (Py_ssize_t i = 1; i < n; i++)
        for (int k = 0; k < w; k++)
            b[k] = b[k] + th[i * d + j + k];
    for (int k = 0; k < w; k++)
        bar[j + k] = b[k] = b[k] / (double)n;
    for (Py_ssize_t i = 0; i < n; i++)
        for (int k = 0; k < w; k++) {
            double x = th[i * d + j + k] - b[k];
            dev[i * d + j + k] = x * x;
        }
}

/* theta_bar and dev of each of the rows of thetas, column pair by column
   pair; with S, also S = ((0 + dev_0) + dev_1) + ... over each row's n d
   entries in C order, the chain np.add.reduce makes of a row shorter than
   8. S is summed in a loop of its own, after dev: its serial chain in the
   dev loop would keep that loop from being vectorised. */
static void
deviations_of(const double *thetas, double *theta_bar, double *dev,
              double *S, Py_ssize_t rows, Py_ssize_t n, Py_ssize_t d)
{
    Py_ssize_t size = n * d;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *th = thetas + r * size;
        double *bar = theta_bar + r * d, *dv = dev + r * size;
        Py_ssize_t j = 0;
        for (; j + 2 <= d; j += 2)
            deviation_columns(th, bar, dv, n, d, j, 2);
        for (; j < d; j++)
            deviation_columns(th, bar, dv, n, d, j, 1);
    }
    if (S == NULL)
        return;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *dv = dev + r * size;
        double s = 0.0;
        for (Py_ssize_t k = 0; k < size; k++)
            s = s + dv[k];
        S[r] = s;
    }
}

/* whether two buffers share a byte */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *x = a->buf, *y = b->buf;
    return x < y + b->len && y < x + a->len;
}

/* deviations' buffers, each its argument's position */
enum { THETAS, THETA_BAR, DEV, SUMS };
static const buffer_arg deviation_buffers[] = {
    {THETAS, 'd', 0, "thetas"}, {THETA_BAR, 'd', PyBUF_WRITABLE, "theta_bar"},
    {DEV, 'd', PyBUF_WRITABLE, "dev"}, {SUMS, 'd', PyBUF_WRITABLE, "S"},
};

static PyObject *
deviations(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4];
    PyObject *result = NULL;
    int got = 0;

    if (nargs != 3 && nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "deviations(thetas, theta_bar, dev"
                        "[, S]) takes 3 or 4 arguments");
        return NULL;
    }
    for (; got < nargs; got++)
        if (get_array(args[got], &b[got], deviation_buffers[got].kind,
                      deviation_buffers[got].flags,
                      deviation_buffers[got].name) < 0)
            goto done;
    const Py_buffer *th = &b[THETAS];
    if (th->ndim != 3 || th->shape[1] < 1) {
        PyErr_SetString(PyExc_ValueError, "thetas must be (rows, N, d) with "
                        "N >= 1");
        goto done;
    }
    Py_ssize_t rows = th->shape[0], n = th->shape[1], d = th->shape[2];
    const Py_buffer *bar = &b[THETA_BAR], *dev = &b[DEV];
    if (bar->ndim != 2 || bar->shape[0] != rows || bar->shape[1] != d
            || dev->ndim != 3 || dev->shape[0] != rows
            || dev->shape[1] != n || dev->shape[2] != d
            || (nargs == 4 && (b[SUMS].ndim != 1
                               || b[SUMS].shape[0] != rows))) {
        PyErr_Format(PyExc_ValueError, "theta_bar must be (%zd, %zd), dev "
                     "(%zd, %zd, %zd) and S (%zd,), as thetas", rows, d,
                     rows, n, d, rows);
        goto done;
    }
    for (int i = 0; i < nargs; i++)
        for (int k = i + 1; k < nargs; k++)
            if (overlap(&b[i], &b[k])) {
                PyErr_Format(PyExc_ValueError, "%s and %s must not overlap",
                             deviation_buffers[i].name,
                             deviation_buffers[k].name);
                goto done;
            }
    deviations_of(th->buf, bar->buf, dev->buf,
                  nargs == 4 ? b[SUMS].buf : NULL, rows, n, d);
    result = Py_NewRef(Py_None);
done:
    release(b, got);
    return result;
}

static PyMethodDef methods[] = {
    {"quadratic_steps", (PyCFunction)(void (*)(void))quadratic_steps,
     METH_FASTCALL,
     "quadratic_steps(x1, x2, theta, iterates, rows_mix, mixers, eps): a "
     "block of quadratic-gradient steps."},
    {"qlearning_steps", (PyCFunction)(void (*)(void))qlearning_steps,
     METH_FASTCALL,
     "qlearning_steps(index, reward, gamma, theta, iterates, rows_mix, "
     "mixers, eps): a block of Q-learning steps."},
    {"deviations", (PyCFunction)(void (*)(void))deviations, METH_FASTCALL,
     "deviations(thetas, theta_bar, dev[, S]): the agents' mean, the "
     "squared deviations from it and, with S, their row sums."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_step",
    .m_doc = "The steps of a block of dcsa's iteration, and its "
              "deviations from the agents' mean, in C.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__step(void)
{
    return PyModule_Create(&module);
}
