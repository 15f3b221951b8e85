/* One block of dcsa's iteration in one C call per phase: the samplers'
   draws after numpy's random numbers, the steps, and the block's
   deviations from the agents' mean.

   ar_block(noise, clip, gains, u, state, x, x2) and mdp_walk(actions,
   n_actions, after, next_states, rewards, starts, state, walk, reward)
   finish the draw of a block of T steps of R sources, once numpy has
   drawn its random numbers: each AR source's (T, 2) standard normals, each
   GridWorld source's T actions. They write the values, and the states,
   of sources.ARSource.block_sampler's and MDPSource.block_sampler's numpy
   draws into the same buffers.

   quadratic_steps(x1, x2, theta, iterates, frames, first, eps) and
   qlearning_steps(walk, reward, actions, gamma, theta, iterates, frames,
   first, eps) run the T = len(eps) steps of a block, from theta, the
   pre-block (S N, d) rows of S runs of N agents, on the (F, N, N) weight
   frames, with eps a 1-D float64 array. At step t each writes W theta
   into row t of iterates, for W = frames[(first + t) mod F] and every
   run, as the j-order chain ((+0.0 + W(i, 0) theta(0, c)) + W(i, 1)
   theta(1, c)) + ..., then adds eps[t] times every agent's drift row, at
   the pre-step iterate (theta at t = 0, row t - 1 after), to row t in
   place.

   deviations(thetas, theta_bar, dev[, S]) is the engine's measure of a
   block's iterates, (rows, N, d): each row's agents' mean into theta_bar,
   (rows, d), its squared deviations from it into dev, (rows, N, d), and,
   where S is given, each row's sum of them into S, (rows,). It rounds as
   numpy's chained sum (sources.Chain), subtract, square and, for rows
   of N * d below 8, np.add.reduce do (see deviations_of), and the
   buffers it writes must not overlap each other or thetas.

   Each function rounds as the numpy code it replaces does, one IEEE
   operation at a time in the same order, so both give the same bytes
   whatever BLAS numpy has; -ffp-contract=off (no fused multiply-add)
   keeps it so. Arrays come in through the buffer protocol as C-contiguous
   float64 (or intp) buffers, so no numpy header is needed. Every buffer
   is read once per block, and every size and index is checked before
   the first write. dcsa._build compiles this file when dcsa.operators is
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
release(Py_buffer *b, Py_ssize_t got)
{
    while (got--)
        PyBuffer_Release(&b[got]);
}

/* The n buffers of table, from args, into b. Returns 0, or -1 with no
   buffer held. */
static int
get_arrays(PyObject *const *args, const buffer_arg *table, int n,
           Py_buffer *b)
{
    for (int got = 0; got < n; got++)
        if (get_array(args[table[got].arg], &b[got], table[got].kind,
                      table[got].flags, table[got].name) < 0) {
            release(b, got);
            return -1;
        }
    return 0;
}

/* whether two buffers share a byte */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *x = a->buf, *y = b->buf;
    return x < y + b->len && y < x + a->len;
}

/* Whether two of the n buffers of table in b, one of them writable,
   share a byte; if so, with a ValueError naming the first such pair. */
static int
any_overlap(const Py_buffer *b, const buffer_arg *table, int n)
{
    for (int i = 0; i < n; i++)
        for (int k = i + 1; k < n; k++)
            if ((table[i].flags | table[k].flags) & PyBUF_WRITABLE
                    && overlap(&b[i], &b[k])) {
                PyErr_Format(PyExc_ValueError, "%s and %s must not overlap",
                             table[i].name, table[k].name);
                return 1;
            }
    return 0;
}

/* whether view is ndim-D of the given sizes, a size below 0 matching any */
static int
shaped(const Py_buffer *view, int ndim, const Py_ssize_t *size)
{
    if (view->ndim != ndim)
        return 0;
    for (int i = 0; i < ndim; i++)
        if (size[i] >= 0 && view->shape[i] != size[i])
            return 0;
    return 1;
}

/* The buffers of an entry point into b, once it has its nargs, eps is 1-D
   and x1 or walk 3-D. Returns T = len(eps), or -1 with no buffer held. */
static Py_ssize_t
get_buffers(PyObject *const *args, Py_ssize_t nargs, const entry_args *e,
            Py_buffer *b)
{
    if (nargs != e->nargs) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", e->usage,
                     e->nargs);
        return -1;
    }
    if (get_arrays(args, e->buffers, N_BUFFERS, b) < 0)
        return -1;
    if (b[EPS].ndim == 1 && b[SAMPLE_A].ndim == 3)
        return items(&b[EPS]);
    PyErr_Format(PyExc_ValueError, "eps must be 1-D and %s 3-D",
                 e->buffers[SAMPLE_A].name);
    release(b, N_BUFFERS);
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

    if (nargs != 3 && nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "deviations(thetas, theta_bar, dev"
                        "[, S]) takes 3 or 4 arguments");
        return NULL;
    }
    if (get_arrays(args, deviation_buffers, (int)nargs, b) < 0)
        return NULL;
    const Py_buffer *th = &b[THETAS];
    if (th->ndim != 3 || th->shape[1] < 1) {
        PyErr_SetString(PyExc_ValueError, "thetas must be (rows, N, d) with "
                        "N >= 1");
        goto done;
    }
    Py_ssize_t rows = th->shape[0], n = th->shape[1], d = th->shape[2];
    const Py_buffer *bar = &b[THETA_BAR], *dev = &b[DEV];
    if (!shaped(bar, 2, (Py_ssize_t[]){rows, d})
            || !shaped(dev, 3, (Py_ssize_t[]){rows, n, d})
            || (nargs == 4 && !shaped(&b[SUMS], 1, (Py_ssize_t[]){rows}))) {
        PyErr_Format(PyExc_ValueError, "theta_bar must be (%zd, %zd), dev "
                     "(%zd, %zd, %zd) and S (%zd,), as thetas", rows, d,
                     rows, n, d, rows);
        goto done;
    }
    if (any_overlap(b, deviation_buffers, (int)nargs))
        goto done;
    deviations_of(th->buf, bar->buf, dev->buf,
                  nargs == 4 ? b[SUMS].buf : NULL, rows, n, d);
    result = Py_NewRef(Py_None);
done:
    release(b, nargs);
    return result;
}

/* numpy's minimum(maximum(v, -c), c): a NaN v stays */
static inline double
clipped(double v, double c)
{
    v = v < -c ? -c : v;
    return v > c ? c : v;
}

/* ar_block's buffers, each its argument's position */
enum { NOISE, CLIPS, GAINS, U, STATE, X, X2, N_AR };
static const buffer_arg ar_buffers[N_AR] = {
    {NOISE, 'd', 0, "noise"}, {CLIPS, 'd', 0, "clip"},
    {GAINS, 'd', 0, "gains"}, {U, 'd', 0, "u"}, {STATE, 'd', 0, "state"},
    {X, 'd', PyBUF_WRITABLE, "x"}, {X2, 'd', PyBUF_WRITABLE, "x2"},
};

/* ar_block(noise, clip, gains, u, state, x, x2): the rest of the draw of
   a block of T steps of R AR sources of dim d, once each source's row of
   noise, (R, T, 2), holds its T pairs of standard normals. Row 0 of x,
   (rows + 1, R, d), takes state, (R, d). At step t, with w0 and w1 the
   noise pair of source r clipped into [-clip[r], clip[r]], and g and u
   its rows of gains, (R, d - 1), and u, (R, d), row t + 1 of x gets
   (w0, g_0 x(t)_0, ..., g_{d-2} x(t)_{d-2}) from its row t, x(t), and
   x2[t], (rows, R), gets ((+0.0 + x_0 u_0) + x_1 u_1) + ... + w1 over
   that new row x: the products and the chain of Chain that the numpy
   draw forms. */
static PyObject *
ar_block(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[N_AR];
    PyObject *result = NULL;
    if (nargs != N_AR) {
        PyErr_SetString(PyExc_TypeError, "ar_block(noise, clip, gains, u, "
                        "state, x, x2) takes 7 arguments");
        return NULL;
    }
    if (get_arrays(args, ar_buffers, N_AR, b) < 0)
        return NULL;
    const Py_buffer *noise = &b[NOISE], *u = &b[U];
    Py_ssize_t R = noise->ndim == 3 ? noise->shape[0] : 0,
        T = noise->ndim == 3 ? noise->shape[1] : 0,
        d = u->ndim == 2 ? u->shape[1] : 0;
    if (R < 1 || d < 1 || !shaped(noise, 3, (Py_ssize_t[]){R, T, 2})
            || !shaped(&b[CLIPS], 1, (Py_ssize_t[]){R})
            || !shaped(&b[GAINS], 2, (Py_ssize_t[]){R, d - 1})
            || !shaped(u, 2, (Py_ssize_t[]){R, d})
            || !shaped(&b[STATE], 2, (Py_ssize_t[]){R, d})
            || !shaped(&b[X], 3, (Py_ssize_t[]){-1, R, d})
            || !shaped(&b[X2], 2, (Py_ssize_t[]){-1, R})
            || b[X].shape[0] <= T || b[X2].shape[0] < T) {
        PyErr_SetString(PyExc_ValueError, "noise must be (R, T, 2) and u "
                        "(R, d) with R, d >= 1, clip (R,), gains (R, d - "
                        "1), state (R, d), x (rows + 1, R, d) and x2 "
                        "(rows, R) with rows >= T");
        goto done;
    }
    if (any_overlap(b, ar_buffers, N_AR))
        goto done;
    const double *w = noise->buf, *c = b[CLIPS].buf, *gains = b[GAINS].buf,
        *us = u->buf;
    double *x = b[X].buf, *x2 = b[X2].buf;
    memcpy(x, b[STATE].buf, (size_t)(R * d) * sizeof(double));
    for (Py_ssize_t t = 0; t < T; t++, x += R * d, x2 += R)
        for (Py_ssize_t r = 0; r < R; r++) {
            const double *p = x + r * d, *g = gains + r * (d - 1),
                *ur = us + r * d, *pair = w + (r * T + t) * 2;
            double *o = x + (R + r) * d, s = 0.0;
            o[0] = clipped(pair[0], c[r]);
            for (Py_ssize_t m = 1; m < d; m++)
                o[m] = g[m - 1] * p[m - 1];
            for (Py_ssize_t m = 0; m < d; m++)
                s = s + o[m] * ur[m];
            x2[r] = s + clipped(pair[1], c[r]);
        }
    result = Py_NewRef(Py_None);
done:
    release(b, N_AR);
    return result;
}

/* mdp_walk's buffers, each its argument's position; actions and
   n_actions, the first two, are not buffers */
enum { AFTER, NEXT_STATES, REWARDS, STARTS, STATES, WALK, REWARD, N_MDP };
static const buffer_arg mdp_buffers[N_MDP] = {
    {2, 'n', 0, "after"}, {3, 'n', 0, "next_states"},
    {4, 'd', 0, "rewards"}, {5, 'n', 0, "starts"},
    {6, 'n', PyBUF_WRITABLE, "state"}, {7, 'n', PyBUF_WRITABLE, "walk"},
    {8, 'd', PyBUF_WRITABLE, "reward"},
};

/* The error, or NULL, of a walk of R sources from state by the actions,
   A of them, in each source r's table, the entries [starts[r],
   starts[r + 1]) of after, next_states and rewards, of L entries each:
   every table must lie in [0, L) and hold whole rows of A, every state
   and every entry of its after table must lie in [0, cells), for the
   table's cells = (starts[r + 1] - starts[r]) / A, and every action in
   [0, A). So every index the walk reads, starts[r] + s A + a, lies in its
   table. */
static const char *
walk_error(const Py_buffer *acts, const Py_ssize_t *starts,
           const Py_ssize_t *state, const Py_ssize_t *after, Py_ssize_t R,
           Py_ssize_t A, Py_ssize_t L)
{
    for (Py_ssize_t r = 0; r < R; r++) {
        Py_ssize_t lo = starts[r], hi = starts[r + 1];
        const Py_ssize_t *a = acts[r].buf;
        if (lo < 0 || hi < lo || hi > L || (hi - lo) % A)
            return "starts must rise within the tables by rows of "
                   "n_actions";
        Py_ssize_t cells = (hi - lo) / A;
        if (state[r] < 0 || state[r] >= cells)
            return "a state lies beyond its source's table";
        for (Py_ssize_t i = lo; i < hi; i++)
            if (after[i] < 0 || after[i] >= cells)
                return "an after entry lies beyond its source's table";
        for (Py_ssize_t t = 0, T = items(&acts[r]); t < T; t++)
            if (a[t] < 0 || a[t] >= A)
                return "an action lies outside [0, n_actions)";
    }
    return NULL;
}

/* mdp_walk(actions, n_actions, after, next_states, rewards, starts, state,
   walk, reward): the rest of the draw of a block of T steps of R
   GridWorld sources, once actions holds each source's T actions, an intp
   array each. Each source r walks its table (see walk_error) from its
   state: at step t, with a its action and i = starts[r] + s A + a for
   its state s, walk (rows, 3, R) gets s, a and next_states[i] in row t's
   three columns, reward (rows, R) gets rewards[i], and the state becomes
   after[i]. state then holds the sources' new states. Every index is
   checked before the first write, and a bad one raises ValueError with
   the buffers and states as they were. */
static PyObject *
mdp_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[N_MDP], *acts = NULL;
    PyObject *seq = NULL, *result = NULL;
    Py_ssize_t R = 0, got = 0;
    if (nargs != 9) {
        PyErr_SetString(PyExc_TypeError, "mdp_walk(actions, n_actions, "
                        "after, next_states, rewards, starts, state, walk, "
                        "reward) takes 9 arguments");
        return NULL;
    }
    Py_ssize_t A = PyLong_AsSsize_t(args[1]);
    if ((A == -1 && PyErr_Occurred())
            || get_arrays(args, mdp_buffers, N_MDP, b) < 0)
        return NULL;
    seq = PySequence_Fast(args[0], "actions must be a sequence of arrays");
    if (seq == NULL)
        goto done;
    R = PySequence_Fast_GET_SIZE(seq);
    acts = PyMem_New(Py_buffer, R ? R : 1);
    if (acts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; got < R; got++)
        if (get_array(PySequence_Fast_GET_ITEM(seq, got), &acts[got], 'n',
                      0, "actions") < 0)
            goto done;
    Py_ssize_t T = R ? items(&acts[0]) : 0, L = items(&b[AFTER]);
    int ok = R >= 1 && A >= 1 && items(&b[STATES]) == R
        && items(&b[STARTS]) == R + 1 && items(&b[NEXT_STATES]) == L
        && items(&b[REWARDS]) == L
        && shaped(&b[WALK], 3, (Py_ssize_t[]){-1, 3, R})
        && shaped(&b[REWARD], 2, (Py_ssize_t[]){-1, R})
        && b[WALK].shape[0] >= T && b[REWARD].shape[0] >= T;
    for (Py_ssize_t r = 0; ok && r < R; r++)
        ok = shaped(&acts[r], 1, (Py_ssize_t[]){T});
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "actions must be R >= 1 1-D "
                        "arrays of T each, n_actions >= 1, state (R,), "
                        "starts (R + 1,), after, next_states and rewards "
                        "of one length, walk (rows, 3, R) and reward (rows, "
                        "R) with rows >= T");
        goto done;
    }
    if (any_overlap(b, mdp_buffers, N_MDP))
        goto done;
    for (Py_ssize_t r = 0; r < R; r++)
        for (int k = STATES; k < N_MDP; k++)
            if (overlap(&acts[r], &b[k])) {
                PyErr_Format(PyExc_ValueError, "actions and %s must not "
                             "overlap", mdp_buffers[k].name);
                goto done;
            }
    const Py_ssize_t *starts = b[STARTS].buf, *after = b[AFTER].buf,
        *next_states = b[NEXT_STATES].buf;
    const double *rewards = b[REWARDS].buf;
    Py_ssize_t *state = b[STATES].buf, *walk = b[WALK].buf;
    double *reward = b[REWARD].buf;
    const char *error = walk_error(acts, starts, state, after, R, A, L);
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        goto done;
    }
    for (Py_ssize_t t = 0; t < T; t++, walk += 3 * R, reward += R)
        for (Py_ssize_t r = 0; r < R; r++) {
            Py_ssize_t a = ((const Py_ssize_t *)acts[r].buf)[t],
                i = starts[r] + state[r] * A + a;
            walk[r] = state[r];
            walk[R + r] = a;
            walk[2 * R + r] = next_states[i];
            reward[r] = rewards[i];
            state[r] = after[i];
        }
    result = Py_NewRef(Py_None);
done:
    release(acts, got);
    PyMem_Free(acts);
    Py_XDECREF(seq);
    release(b, N_MDP);
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
    {"ar_block", (PyCFunction)(void (*)(void))ar_block, METH_FASTCALL,
     "ar_block(noise, clip, gains, u, state, x, x2): a block of AR "
     "samples after their standard normals."},
    {"mdp_walk", (PyCFunction)(void (*)(void))mdp_walk, METH_FASTCALL,
     "mdp_walk(actions, n_actions, after, next_states, rewards, starts, "
     "state, walk, reward): a block of GridWorld samples after their "
     "actions."},
    {"deviations", (PyCFunction)(void (*)(void))deviations, METH_FASTCALL,
     "deviations(thetas, theta_bar, dev[, S]): the agents' mean, the "
     "squared deviations from it and, with S, their row sums."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_step",
    .m_doc = "The draws and steps of a block of dcsa's iteration, and "
              "its deviations from the agents' mean, in C.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__step(void)
{
    return PyModule_Create(&module);
}
