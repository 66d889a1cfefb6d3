"""Pure-Python census kernels, the fallback when the compiled module is absent.

Same contract as the compiled backend (see kernel.py).  Every function
derives from one square walk, _mark(n), which has no branch beyond the
reduction mod n.  Its table spends a byte per value of [0, n) where the
compiled backend spends a bit: the walk then stores without bit arithmetic,
and the counts and sums come from bytearray.count and itertools.compress
instead of a Python loop.  residue_bitmap packs the bytes into the compiled
backend's bit layout, so both return equal bytes.  The zero-square roots of
census_tallies come from the factorization of n, not from the walk.
"""

from itertools import compress

from qrcensus.modmath import factorize as _factorize

BACKEND = "pure"

# Dense marking needs n bytes here (n/8 in the compiled backend) and the
# census sums must stay meaningful alongside the compiled path, so both
# backends refuse the same range.
MAX_DENSE_MODULUS = 1 << 31

# Maps the table's 0/1 bytes to the ASCII digits that int(..., 2) reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _check_odd_range(lo, hi):
    if lo % 2 == 0 or hi % 2 == 0 or not 3 <= lo <= hi:
        raise ValueError(f"need odd 3 <= lo <= hi, got [{lo}, {hi}]")


def _check_modulus(n):
    if n % 2 == 0 or n < 3:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if n >= MAX_DENSE_MODULUS:
        raise ValueError(f"dense census supports n < 2**31, got {n}")


def _mark(n):
    """The square walk: a byte per value of [0, n), set at every nonzero
    x**2 mod n for x in [1, (n-1)/2].

    x**2 mod n is maintained by adding 2x-1 and conditionally subtracting
    n once; the loop contains no multiplication, and it stores every
    square unconditionally, so a square that is 0 mod n marks byte 0,
    which is cleared once at the end.
    """
    marked = bytearray(n)
    s = 0
    for add in range(1, n - 1, 2):
        s += add
        if s >= n:
            s -= n
        marked[s] = 1
    marked[0] = 0
    return marked


def small_residue_counts(lo, hi):
    """r_b(n) for every odd n in [lo, hi], by the square walk."""
    _check_odd_range(lo, hi)
    return [_mark(n).count(1, 1, (n + 1) >> 1) for n in range(lo, hi + 1, 2)]


def census_tallies(n):
    """Counts and sums of the residue census of n.

    Returns (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh,
    sum_nh, zero_square_roots) where the roots are the x <= (n-1)/2 with
    x**2 = 0 mod n.  Those come from the factorization rather than the
    walk: p**e divides x**2 exactly when p**ceil(e/2) divides x, so the
    roots are the multiples of m = prod p**ceil(e/2) up to (n-1)/2.
    """
    _check_modulus(n)
    half = (n - 1) >> 1
    marked = _mark(n)
    r_b = marked.count(1, 0, half + 1)
    r_h = marked.count(1, half + 1, n)
    sum_rb = sum(compress(range(half + 1), marked))
    sum_r = sum(compress(range(n), marked))
    n_b = half - r_b
    n_h = (n - 1 - half) - r_h
    sum_rh = sum_r - sum_rb
    sum_n = n * (n - 1) // 2 - sum_r
    sum_nb = half * (half + 1) // 2 - sum_rb
    sum_nh = sum_n - sum_nb
    m = 1
    for p, e in _factorize(n).items():
        m *= p ** ((e + 1) >> 1)
    zeros = list(range(m, half + 1, m))
    return (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh, sum_nh, zeros)


def residue_bitmap(n):
    """Bit-packed residue membership: bit y is set iff y in [1, n-1] is a
    nonzero quadratic residue of n."""
    _check_modulus(n)
    marked = _mark(n)
    # Byte y of the table becomes bit y of one integer, least significant
    # first; base-2 parsing is linear and has no digit limit.
    return int(marked[::-1].translate(_DIGITS), 2).to_bytes((n >> 3) + 1, "little")
