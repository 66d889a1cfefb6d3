/* Compiled census kernels; kernel.py falls back to _purekernel without them.

The same functions, walk and bounds guard as _purekernel: every function
derives from mark(), which keeps x**2 mod n by adding 2x-1 and subtracting
n at most once.  Where _purekernel spends a byte per value of [0, n),
mark() sets one bit, in residue_bitmap's layout (bit y & 7 of byte y >> 3),
so a table takes n/8 bytes.  With n < 2**31 every value and every census
sum fits a signed 64-bit integer.  census_tallies returns the four values
the walk gives, (r_b, r_h, sum_rb, sum_rh); kernel.census_tallies derives
the other six from n, and census.small_zero_roots gives the zero-square
roots.  kernel.dense_modulus checks every modulus with the user-facing
texts before it reaches a backend; each function here keeps only the
guard before it allocates.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <string.h>

#define MAX_DENSE_MODULUS (1LL << 31)

typedef long long i64;

/* The memory guard before a table is allocated: odd 3 <= lo <= hi < 2**31. */
static int
out_of_range(i64 lo, i64 hi)
{
    if (lo % 2 && hi % 2 && 3 <= lo && lo <= hi && hi < MAX_DENSE_MODULUS)
        return 0;
    PyErr_Format(PyExc_ValueError, "need odd 3 <= lo <= hi with n < 2**31, got [%lld, %lld]",
                 lo, hi);
    return 1;
}

/* Bytes of a bit table over [0, n). */
#define TABLE_BYTES(n) ((size_t)((n) >> 3) + 1)

/* The square walk into the bit table over [0, n): bit y is set at every
   nonzero x**2 mod n for x in [1, (n-1)/2], clear elsewhere. */
static void
mark(unsigned char *table, i64 n)
{
    i64 s = 0;
    memset(table, 0, TABLE_BYTES(n));
    for (i64 add = 1; add < n - 1; add += 2) {
        s += add;
        s -= s >= n ? n : 0;
        table[s >> 3] |= (unsigned char)(1u << (s & 7));
    }
    table[0] &= 0xfe;
}

static int
bit(const unsigned char *table, i64 y)
{
    return (table[y >> 3] >> (y & 7)) & 1;
}

static i64
popcount(unsigned long long x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}

/* The set bits of the table below `end`, eight bytes at a time. */
static i64
count_below(const unsigned char *table, i64 end)
{
    i64 count = 0, full = end >> 3, i = 0;
    for (; i + 8 <= full; i += 8) {
        unsigned long long word;
        memcpy(&word, table + i, 8);
        count += popcount(word);
    }
    for (; i < full; i++)
        count += popcount(table[i]);
    return count + popcount(table[full] & ((1u << (end & 7)) - 1));
}

static unsigned char *
new_table(i64 n)
{
    unsigned char *table = PyMem_Malloc(TABLE_BYTES(n));
    if (table == NULL)
        PyErr_NoMemory();
    return table;
}

static PyObject *
small_residue_counts(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"lo", "hi", NULL};
    i64 lo, hi;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "LL", names, &lo, &hi) || out_of_range(lo, hi))
        return NULL;
    unsigned char *table = new_table(hi);
    PyObject *out = table == NULL ? NULL : PyList_New(0);
    for (i64 n = lo; out != NULL && n <= hi; n += 2) {
        mark(table, n);
        PyObject *item = PyLong_FromLongLong(count_below(table, ((n - 1) >> 1) + 1));
        if (item == NULL || PyList_Append(out, item) < 0)
            Py_CLEAR(out);
        Py_XDECREF(item);
    }
    PyMem_Free(table);
    return out;
}

static PyObject *
census_tallies(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"n", NULL};
    i64 n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "L", names, &n) || out_of_range(n, n))
        return NULL;
    i64 half = (n - 1) >> 1;
    unsigned char *table = new_table(n);
    if (table == NULL)
        return NULL;
    mark(table, n);
    i64 r_b = count_below(table, half + 1), r_h = count_below(table, n) - r_b;
    i64 sum_rb = 0, sum_rh = 0;
    for (i64 y = 1; y <= half; y++)
        sum_rb += y * bit(table, y);
    for (i64 y = half + 1; y < n; y++)
        sum_rh += y * bit(table, y);
    PyMem_Free(table);
    return Py_BuildValue("(LLLL)", r_b, r_h, sum_rb, sum_rh);
}

static PyObject *
residue_bitmap(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"n", NULL};
    i64 n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "L", names, &n) || out_of_range(n, n))
        return NULL;
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)TABLE_BYTES(n));
    if (out != NULL)
        mark((unsigned char *)PyBytes_AS_STRING(out), n);
    return out;
}

static PyMethodDef methods[] = {
    {"small_residue_counts", (PyCFunction)(void (*)(void))small_residue_counts,
     METH_VARARGS | METH_KEYWORDS,
     "small_residue_counts(lo, hi)\n--\n\n"
     "r_b(n) for every odd n in [lo, hi], by the square walk."},
    {"census_tallies", (PyCFunction)(void (*)(void))census_tallies,
     METH_VARARGS | METH_KEYWORDS,
     "census_tallies(n)\n--\n\n"
     "The walk's residue counts and sums of each half of [1, n-1]:\n"
     "(r_b, r_h, sum_rb, sum_rh)."},
    {"residue_bitmap", (PyCFunction)(void (*)(void))residue_bitmap,
     METH_VARARGS | METH_KEYWORDS,
     "residue_bitmap(n)\n--\n\n"
     "Bit-packed residue membership: bit y is set iff y in [1, n-1] is a\n"
     "nonzero quadratic residue of n."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "qrcensus._speedups",
    "Compiled census kernels, with the contract of qrcensus._purekernel.", -1, methods,
};

static int
add_i64(PyObject *m, const char *name, i64 v)
{
    PyObject *obj = PyLong_FromLongLong(v);
    int rc = PyModule_AddObjectRef(m, name, obj);
    Py_XDECREF(obj);
    return rc;
}

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL
        || PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
        || add_i64(m, "MAX_DENSE_MODULUS", MAX_DENSE_MODULUS) < 0) {
        Py_XDECREF(m);
        return NULL;
    }
    return m;
}
