# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled census kernels; kernel.py falls back to _purekernel without them.

The incremental-square walk keeps x**2 mod n by adding 2x+1 and subtracting
n at most once (2x+1 < n whenever x < (n-1)/2), so with n < 2**62 every
intermediate fits a signed 64-bit accumulator and the inner loop is free of
multiplications and wide divisions.
"""

from cpython.bytes cimport PyBytes_FromStringAndSize
from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memset

BACKEND = "compiled"

# Same ceiling as the pure backend: dense marking plus 64-bit census sums.
MAX_DENSE_MODULUS = 1 << 31

ctypedef long long i64


def small_residue_counts(long long lo, long long hi):
    """r_b(n) for every odd n in [lo, hi], by the incremental-square walk."""
    if lo % 2 == 0 or hi % 2 == 0 or not 3 <= lo <= hi:
        raise ValueError(f"need odd 3 <= lo <= hi, got [{lo}, {hi}]")
    cdef size_t nbytes = <size_t>(((hi - 1) >> 1) >> 3) + 1
    cdef unsigned char *seen = <unsigned char *>malloc(nbytes)
    if seen == NULL:
        raise MemoryError()
    cdef i64 n = lo
    cdef i64 half, x, s, add, count, byte_i
    cdef unsigned char bit
    out = []
    try:
        while n <= hi:
            half = (n - 1) >> 1
            count = 0
            with nogil:
                memset(seen, 0, <size_t>(half >> 3) + 1)
                s = 0
                add = -1
                for x in range(half):
                    add += 2
                    s += add
                    if s >= n:
                        s -= n
                    if s != 0 and s <= half:
                        byte_i = s >> 3
                        bit = <unsigned char>(1 << (s & 7))
                        if not (seen[byte_i] & bit):
                            seen[byte_i] = seen[byte_i] | bit
                            count += 1
            out.append(count)
            n += 2
    finally:
        free(seen)
    return out


cdef unsigned char *_mark(i64 n, list zeros) except NULL:
    """Bit-packed table of nonzero squares of [1, (n-1)/2]; zero-square x
    values are appended to `zeros`.  Caller frees."""
    cdef size_t nbytes = <size_t>(n >> 3) + 1
    cdef unsigned char *marked = <unsigned char *>calloc(nbytes, 1)
    if marked == NULL:
        raise MemoryError()
    cdef i64 half = (n - 1) >> 1
    cdef i64 x, s, add
    s = 0
    add = -1
    for x in range(1, half + 1):
        add += 2
        s += add
        if s >= n:
            s -= n
        if s != 0:
            marked[s >> 3] |= <unsigned char>(1 << (s & 7))
        else:
            zeros.append(x)
    return marked


cdef int _check_modulus(i64 n) except -1:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if n >= MAX_DENSE_MODULUS:
        raise ValueError(f"dense census supports n < 2**31, got {n}")
    return 0


def census_tallies(long long n):
    """Counts and sums of the residue census of n.

    Returns (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh,
    sum_nh, zero_square_roots) where the roots are the x <= (n-1)/2 with
    x**2 = 0 mod n.
    """
    _check_modulus(n)
    cdef list zeros = []
    cdef unsigned char *marked = _mark(n, zeros)
    cdef i64 half = (n - 1) >> 1
    cdef i64 y, r_b = 0, r_h = 0, sum_rb = 0, sum_rh = 0
    try:
        with nogil:
            for y in range(1, half + 1):
                if marked[y >> 3] & (1 << (y & 7)):
                    r_b += 1
                    sum_rb += y
            for y in range(half + 1, n):
                if marked[y >> 3] & (1 << (y & 7)):
                    r_h += 1
                    sum_rh += y
    finally:
        free(marked)
    cdef i64 n_b = half - r_b
    cdef i64 n_h = (n - 1 - half) - r_h
    sum_r = sum_rb + sum_rh
    sum_n = n * (n - 1) // 2 - sum_r
    sum_nb = half * (half + 1) // 2 - sum_rb
    sum_nh = sum_n - sum_nb
    return (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh, sum_nh, zeros)


def residue_bitmap(long long n):
    """Bit-packed residue membership: bit y is set iff y in [1, n-1] is a
    nonzero quadratic residue of n."""
    _check_modulus(n)
    cdef list zeros = []
    cdef unsigned char *marked = _mark(n, zeros)
    try:
        return PyBytes_FromStringAndSize(<char *>marked, <Py_ssize_t>((n >> 3) + 1))
    finally:
        free(marked)
