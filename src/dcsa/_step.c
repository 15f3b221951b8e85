/* The steps of one block of dcsa's iteration, and its deviations from the
   agents' mean, in one C call per block each.

   quadratic_steps(x1, x2, theta, iterates, frames, first, eps) and
   qlearning_steps(walk, reward, actions, gamma, theta, iterates, frames,
   first, eps) run the T = len(eps) steps of a block, from theta, the
   pre-block (S N, d) rows of S runs of N agents, on the (F, N, N) weight
   frames, with eps a 1-D float64 array. At step t each writes W theta
   into row t of iterates, for W = frames[(first + t) mod F] and every
   run, as the j-order chain ((+0.0 + W(i, 0) theta(0, c)) + W(i, 1)
   theta(1, c)) + ..., then adds eps[t] times every agent's drift row, at
   the pre-step iterate (theta at t = 0, row t - 1 after), to row t in
   place. Both round as the builders' numpy step and operators.mix do, one
   IEEE operation at a time in the same order, so both give the same bytes
   whatever BLAS numpy has; -ffp-contract=off (no fused multiply-add)
   keeps it so.

   deviations(thetas, theta_bar, dev[, S]) is the engine's measure of a
   block's iterates, (rows, N, d): each row's agents' mean into theta_bar,
   (rows, d), its squared deviations from it into dev, (rows, N, d), and,
   where S is given, each row's sum of them into S, (rows,). It rounds as
   numpy's ordered_sum, subtract, square and, for rows of N * d below 8,
   np.add.reduce do (see deviations_of), and the buffers it writes must
   not overlap each other or thetas.

   Arrays come in through the buffer protocol as C-contiguous float64 (or
   intp) buffers, so no numpy header is needed. Every buffer is read once
   per block, and every size is checked before the first write.
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

/* An entry point's signature and argument count, and its buffers, in
   the order both hold them: its two sample arrays, theta, iterates, frames
   and eps, each its argument's position, its kind, its buffer flags and
   its name. The contract's other argument, first, follows frames. */
enum { QUADRATIC, QLEARNING };
enum { SAMPLE_A, SAMPLE_B, THETA, ITERATES, FRAMES, EPS, N_BUFFERS };
typedef struct {
    int arg;
    char kind;
    int flags;
    const char *name;
} buffer_arg;
typedef struct {
    const char *usage;
    Py_ssize_t nargs;
    buffer_arg buffers[N_BUFFERS];
} entry_args;
static const entry_args entries[2] = {
    {"quadratic_steps(x1, x2, theta, iterates, frames, first, eps)", 7,
     {{0, 'd', 0, "x1"}, {1, 'd', 0, "x2"}, {2, 'd', 0, "theta"},
      {3, 'd', PyBUF_WRITABLE, "iterates"}, {4, 'd', 0, "frames"},
      {6, 'd', 0, "eps"}}},
    {"qlearning_steps(walk, reward, actions, gamma, theta, iterates, "
     "frames, first, eps)", 9,
     {{0, 'n', 0, "walk"}, {1, 'd', 0, "reward"}, {4, 'd', 0, "theta"},
      {5, 'd', PyBUF_WRITABLE, "iterates"}, {6, 'd', 0, "frames"},
      {8, 'd', 0, "eps"}}},
};

static void
release(Py_buffer *b, int got)
{
    while (got--)
        PyBuffer_Release(&b[got]);
}

/* whether two buffers share a byte */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *x = a->buf, *y = b->buf;
    return x < y + b->len && y < x + a->len;
}

/* The buffers of an entry point into b, once it has its nargs, eps is 1-D
   and x1 or walk 3-D. Returns T = len(eps), or -1 with no buffer held. */
static Py_ssize_t
get_buffers(PyObject *const *args, Py_ssize_t nargs, const entry_args *e,
            Py_buffer *b)
{
    const buffer_arg *table = e->buffers;
    int got = 0;
    if (nargs != e->nargs) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", e->usage,
                     e->nargs);
        return -1;
    }
    for (; got < N_BUFFERS; got++)
        if (get_array(args[table[got].arg], &b[got], table[got].kind,
                      table[got].flags, table[got].name) < 0)
            goto fail;
    if (b[EPS].ndim == 1 && b[SAMPLE_A].ndim == 3)
        return items(&b[EPS]);
    PyErr_Format(PyExc_ValueError, "eps must be 1-D and %s 3-D",
                 table[SAMPLE_A].name);
fail:
    release(b, got);
    return -1;
}

/* out(i, c) of one agent's row i, for the w <= 4 columns c from p and o:
   ((+0.0 + W(i, 0) prev(0, c)) + W(i, 1) prev(1, c)) + ..., the j-order
   chain of operators.mix, the w chains side by side in registers */
static inline void
mix_columns(const double *restrict wi, const double *restrict p,
            double *restrict o, Py_ssize_t N, Py_ssize_t d, int w)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (Py_ssize_t j = 0; j < N; j++)
        for (int k = 0; k < w; k++)
            acc[k] = acc[k] + wi[j] * p[j * d + k];
    for (int k = 0; k < w; k++)
        o[k] = acc[k];
}

/* out = W prev, for the frame w of N x N and each of the runs of N agents
   of d: four columns at a time, then two and one, each a constant w */
static void
mix(const double *restrict w, const double *restrict prev,
    double *restrict out, Py_ssize_t runs, Py_ssize_t N, Py_ssize_t d)
{
    for (Py_ssize_t r = 0; r < runs * N; r++) {
        const double *wi = w + r % N * N, *p = prev + (r - r % N) * d;
        double *o = out + r * d;
        Py_ssize_t c = 0;
        for (; c + 4 <= d; c += 4)
            mix_columns(wi, p + c, o + c, N, d, 4);
        for (; c + 2 <= d; c += 2)
            mix_columns(wi, p + c, o + c, N, d, 2);
        for (; c < d; c++)
            mix_columns(wi, p + c, o + c, N, d, 1);
    }
}

/* adds eps times the drift at theta to out, at step t of the block */
typedef void (*drift_fn)(const void *ctx, Py_ssize_t t, const double *theta,
                         double *out, double eps);

/* The block's T steps over rows of n agents of d, once frames is (F, N, N)
   with F, N >= 1 and N dividing n, first lies in [0, F), and iterates
   overlaps neither frames nor, in its first row, theta: at step t, mix
   into row t of iterates the pre-step iterate (theta at t = 0, row t - 1
   after) by frame (first + t) mod F, then add eps[t] times its drift to
   it. Returns None, or NULL with an exception set. */
static PyObject *
run_steps(PyObject *first_arg, const Py_buffer *b, Py_ssize_t n,
          Py_ssize_t d, drift_fn drift, const void *ctx)
{
    const Py_buffer *f = &b[FRAMES];
    Py_buffer row = b[ITERATES];
    row.len = n * d * (Py_ssize_t)sizeof(double);
    Py_ssize_t first = PyLong_AsSsize_t(first_arg);
    if (first == -1 && PyErr_Occurred())
        return NULL;
    if (f->ndim != 3 || f->shape[0] < 1 || f->shape[1] < 1
            || f->shape[1] != f->shape[2] || n % f->shape[1]
            || first < 0 || first >= f->shape[0]
            || overlap(f, &b[ITERATES]) || overlap(&b[THETA], &row))
        return PyErr_Format(PyExc_ValueError, "frames must be (F, N, N) "
                            "with F, N >= 1 and N dividing the %zd agents, "
                            "first, %zd, must lie in [0, F), and iterates "
                            "must overlap neither frames nor, in its first "
                            "row, theta", n, first);
    Py_ssize_t F = f->shape[0], N = f->shape[1];
    const double *w = f->buf, *steps = b[EPS].buf, *prev = b[THETA].buf;
    double *out = b[ITERATES].buf;
    for (Py_ssize_t t = 0, T = items(&b[EPS]); t < T; t++) {
        mix(w + (first + t) % F * N * N, prev, out, n / N, N, d);
        drift(ctx, t, prev, out, steps[t]);
        prev = out;
        out += n * d;
    }
    Py_RETURN_NONE;
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
    Py_ssize_t T = get_buffers(args, nargs, &entries[QUADRATIC], b);
    if (T < 0)
        return NULL;
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
    result = run_steps(args[5], b, ctx.n, ctx.d, quadratic_drift, &ctx);
done:
    release(b, N_BUFFERS);
    return result;
}

/* The Q-learning drift at step t of walk (rows, 3, n) and reward (rows,
   n), from their rows t: each agent i of n has its state s, action a and
   next state s' in walk's three columns, and theta and out are read as
   the stacked (n S) x A table of the agents' rows of S states and A
   actions. s, a and s' are clipped into [0, S) and [0, A), as numpy's
   "clip" mode of take would clip them. Then m = the maximum of Q(s', .),
   the A entries from (s' + i S) A, taken in action order as np.maximum
   does, so m keeps the first NaN and a tie takes the later entry; and
   out[slot] = out[slot] + ((((m gamma) + reward) - theta[slot]) eps) at
   slot = (s + i S) A + a. */
typedef struct {
    const Py_ssize_t *walk;
    const double *reward;
    Py_ssize_t n, states, actions;
    double gamma;
} qlearning_ctx;

static void
qlearning_drift(const void *ctx, Py_ssize_t t, const double *theta,
                double *out, double eps)
{
    const qlearning_ctx *c = ctx;
    Py_ssize_t n = c->n, S = c->states, A = c->actions;
    const Py_ssize_t *s = c->walk + t * 3 * n, *a = s + n, *s_next = a + n;
    const double *reward = c->reward + t * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *q = theta + (clip(s_next[i], S) + i * S) * A;
        double m = q[0];
        for (Py_ssize_t k = 1; k < A; k++)
            if (!(m > q[k]) && m == m)
                m = q[k];
        Py_ssize_t slot = (clip(s[i], S) + i * S) * A + clip(a[i], A);
        out[slot] = out[slot]
            + (m * c->gamma + reward[i] - theta[slot]) * eps;
    }
}

static PyObject *
qlearning_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[N_BUFFERS];
    PyObject *result = NULL;
    Py_ssize_t T = get_buffers(args, nargs, &entries[QLEARNING], b);
    if (T < 0)
        return NULL;
    const Py_buffer *walk = &b[SAMPLE_A];
    Py_ssize_t n = walk->shape[2], size = items(&b[THETA]);
    qlearning_ctx ctx = {walk->buf, b[SAMPLE_B].buf, n, 0, 0, 0.0};
    ctx.actions = PyLong_AsSsize_t(args[2]);
    if (ctx.actions == -1 && PyErr_Occurred())
        goto done;
    ctx.gamma = PyFloat_AsDouble(args[3]);
    if (ctx.gamma == -1.0 && PyErr_Occurred())
        goto done;
    if (walk->shape[1] != 3 || n < 1 || ctx.actions < 1 || size < 1
            || size % n || size / n % ctx.actions || walk->shape[0] < T
            || items(&b[SAMPLE_B]) < T * n
            || items(&b[ITERATES]) < T * size) {
        PyErr_Format(PyExc_ValueError, "walk must be (rows, 3, n) with n >= "
                     "1, actions >= 1, theta one non-empty table of n rows "
                     "of states x actions, and walk, reward and iterates "
                     "must hold the block's %zd steps", T);
        goto done;
    }
    ctx.states = size / n / ctx.actions;
    result = run_steps(args[7], b, n, size / n, qlearning_drift, &ctx);
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
     "quadratic_steps(x1, x2, theta, iterates, frames, first, eps): a "
     "block of quadratic-gradient steps."},
    {"qlearning_steps", (PyCFunction)(void (*)(void))qlearning_steps,
     METH_FASTCALL,
     "qlearning_steps(walk, reward, actions, gamma, theta, iterates, "
     "frames, first, eps): a block of Q-learning steps."},
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
