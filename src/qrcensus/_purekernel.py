"""Pure-Python census kernels, the fallback when the compiled module is absent.

Same contract as the compiled backend (see kernel.py).  Every function
derives from one square walk, _mark(n).  Its table spends a byte per value
of [0, n) where the compiled backend spends a bit: the walk then stores
without bit arithmetic, and the counts and sums come from bytearray.count
and itertools.compress instead of a Python loop.  residue_bitmap packs the
bytes into the compiled backend's bit layout, so both return equal bytes.
"""

from itertools import compress

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
    x**2 mod n for x in [1, (n-1)/2], plus the x whose square is 0.

    x**2 mod n is maintained by adding 2x+1 and conditionally subtracting
    n once; the loop contains no multiplication.
    """
    half = (n - 1) >> 1
    marked = bytearray(n)
    zeros = []
    s = 0
    add = -1
    for x in range(1, half + 1):
        add += 2
        s += add
        if s >= n:
            s -= n
        if s:
            marked[s] = 1
        else:
            zeros.append(x)
    return marked, zeros


def small_residue_counts(lo, hi):
    """r_b(n) for every odd n in [lo, hi], by the square walk."""
    _check_odd_range(lo, hi)
    return [_mark(n)[0].count(1, 1, (n + 1) >> 1) for n in range(lo, hi + 1, 2)]


def census_tallies(n):
    """Counts and sums of the residue census of n.

    Returns (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh,
    sum_nh, zero_square_roots) where the roots are the x <= (n-1)/2 with
    x**2 = 0 mod n.
    """
    _check_modulus(n)
    half = (n - 1) >> 1
    marked, zeros = _mark(n)
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
    return (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh, sum_nh, zeros)


def residue_bitmap(n):
    """Bit-packed residue membership: bit y is set iff y in [1, n-1] is a
    nonzero quadratic residue of n."""
    _check_modulus(n)
    marked, _ = _mark(n)
    # Byte y of the table becomes bit y of one integer, least significant
    # first; base-2 parsing is linear and has no digit limit.
    return int(marked[::-1].translate(_DIGITS), 2).to_bytes((n >> 3) + 1, "little")
