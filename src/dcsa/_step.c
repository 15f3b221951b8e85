/* The batched drift step of dcsa.operators in one C call per step.

   quadratic(theta, x1, x2, eps, out) and qlearning(theta, index, reward,
   gamma, eps, out) add eps times every agent's drift row to out, which
   holds W Theta, in place. Each rounds as the numpy step of
   quadratic_block_drift and qlearning_block_drift does, one IEEE operation
   at a time in the same order, so both give the same bytes; the build
   flags keep it so (-ffp-contract=off: no fused multiply-add).

   Arrays come in through the buffer protocol as C-contiguous float64 (or
   intp) buffers, so no numpy header is needed. dcsa._build compiles this
   file when dcsa.operators is imported. */

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

/* For each of the n = len(x2) rows of theta, x1 and out (n x d):
   s = ((0 + x1_0 theta_0) + x1_1 theta_1) + ..., r = (x2 - s) * 2, and
   out_j = out_j + (r x1_j) eps. */
static PyObject *
quadratic(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4];   /* theta, x1, x2, out */
    static const char *names[] = {"theta", "x1", "x2", "out"};
    static const int where[] = {0, 1, 2, 4};
    double eps;
    int got = 0;
    PyObject *result = NULL;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "quadratic(theta, x1, x2, eps, "
                        "out) takes 5 arguments");
        return NULL;
    }
    if (get_double(args[3], &eps) < 0)
        return NULL;
    for (; got < 4; got++)
        if (get_array(args[where[got]], &b[got], 'd',
                      got == 3 ? PyBUF_WRITABLE : 0, names[got]) < 0)
            goto done;
    Py_ssize_t size = b[0].len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n = b[2].len / (Py_ssize_t)sizeof(double);
    if (b[1].len != b[0].len || b[3].len != b[0].len
            || (n ? size % n : size)) {
        PyErr_SetString(PyExc_ValueError, "theta, x1 and out must be "
                        "(n, d) arrays for the n entries of x2");
        goto done;
    }
    Py_ssize_t d = n ? size / n : 0;
    const double *theta = b[0].buf, *x1 = b[1].buf, *x2 = b[2].buf;
    double *out = b[3].buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *t = theta + i * d, *x = x1 + i * d;
        double *o = out + i * d;
        double s = 0.0;
        for (Py_ssize_t j = 0; j < d; j++)
            s = s + x[j] * t[j];
        double r = (x2[i] - s) * 2.0;
        for (Py_ssize_t j = 0; j < d; j++)
            o[j] = o[j] + r * x[j] * eps;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    while (got--)
        PyBuffer_Release(&b[got]);
    return result;
}

/* For each agent i of n = len(reward), with A + 1 rows of n indices into
   the flat tables theta and out (the A actions' Q(s', a) indices, then the
   slot Q(s, a)): m = the maximum of theta at the A action indices, taken in
   action order as np.maximum does, so m keeps the first NaN and a tie
   takes the later entry; then out[slot] = out[slot] +
   ((((m gamma) + reward) - theta[slot]) eps). */
static PyObject *
qlearning(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4];   /* theta, index, reward, out */
    static const char *names[] = {"theta", "index", "reward", "out"};
    static const int where[] = {0, 1, 2, 5};
    static const char kinds[] = {'d', 'n', 'd', 'd'};
    double gamma, eps;
    int got = 0;
    PyObject *result = NULL;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "qlearning(theta, index, reward, "
                        "gamma, eps, out) takes 6 arguments");
        return NULL;
    }
    if (get_double(args[3], &gamma) < 0 || get_double(args[4], &eps) < 0)
        return NULL;
    for (; got < 4; got++)
        if (get_array(args[where[got]], &b[got], kinds[got],
                      got == 3 ? PyBUF_WRITABLE : 0, names[got]) < 0)
            goto done;
    Py_ssize_t size = b[0].len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n = b[2].len / (Py_ssize_t)sizeof(double);
    Py_ssize_t rows = n ? b[1].len / (Py_ssize_t)sizeof(Py_ssize_t) / n : 0;
    if (b[3].len != b[0].len || !size
            || (n && (rows < 2 || rows * n * (Py_ssize_t)sizeof(Py_ssize_t)
                                  != b[1].len))) {
        PyErr_SetString(PyExc_ValueError, "theta and out must be one table, "
                        "and index (A + 1, n) for the n entries of reward");
        goto done;
    }
    const double *theta = b[0].buf, *reward = b[2].buf;
    const Py_ssize_t *index = b[1].buf, *slots = index + (rows - 1) * n;
    double *out = b[3].buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        double m = theta[clip(index[i], size)];
        for (Py_ssize_t a = 1; a < rows - 1; a++) {
            double v = theta[clip(index[a * n + i], size)];
            if (!(m > v) && m == m)
                m = v;
        }
        Py_ssize_t slot = clip(slots[i], size);
        out[slot] = out[slot] + (m * gamma + reward[i] - theta[slot]) * eps;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    while (got--)
        PyBuffer_Release(&b[got]);
    return result;
}

static PyMethodDef methods[] = {
    {"quadratic", (PyCFunction)(void (*)(void))quadratic, METH_FASTCALL,
     "quadratic(theta, x1, x2, eps, out): the quadratic-gradient step."},
    {"qlearning", (PyCFunction)(void (*)(void))qlearning, METH_FASTCALL,
     "qlearning(theta, index, reward, gamma, eps, out): the Q-learning "
     "step."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_step",
    .m_doc = "The batched drift step of dcsa.operators in C.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__step(void)
{
    return PyModule_Create(&module);
}
