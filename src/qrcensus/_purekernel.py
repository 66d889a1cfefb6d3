"""Pure-Python census kernels, the fallback when the compiled module is absent.

The compiled backend's functions, walk and bounds guard (see kernel.py):
the square walk and what it counts, nothing more.  census_tallies returns
the four values the walk gives, (r_b, r_h, sum_rb, sum_rh), and
kernel.census_tallies derives the other six from n.  kernel.dense_modulus
checks every modulus with the user-facing texts before it reaches a
backend, and census.small_zero_roots gives the zero-square roots, which
come from the factorization of n.  Every function derives from one walk,
_mark(n), which has no branch beyond the reduction mod n.  Its table spends a byte
per value of [0, n) where the compiled backend spends a bit: the walk
then stores without bit arithmetic, and the counts and sums come from
bytearray.count and itertools.compress instead of a Python loop.
residue_bitmap packs the bytes into the compiled backend's bit layout, so
both return equal bytes.
"""

from itertools import compress

BACKEND = "pure"

# Dense marking needs n bytes here (n/8 in the compiled backend) and the
# census sums must stay meaningful alongside the compiled path, so both
# backends refuse the same range.
MAX_DENSE_MODULUS = 1 << 31

# Maps the table's 0/1 bytes to the ASCII digits that int(..., 2) reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _guard(lo, hi):
    """The memory guard before a table is allocated."""
    if not (lo & hi & 1 and 3 <= lo <= hi < MAX_DENSE_MODULUS):
        raise ValueError(f"need odd 3 <= lo <= hi with n < 2**31, got [{lo}, {hi}]")


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
    _guard(lo, hi)
    return [_mark(n).count(1, 1, (n + 1) >> 1) for n in range(lo, hi + 1, 2)]


def census_tallies(n):
    """The walk's residue counts and sums of each half of [1, n-1]:
    (r_b, r_h, sum_rb, sum_rh)."""
    _guard(n, n)
    marked = _mark(n)
    cut = (n + 1) >> 1  # the first value of the large half
    small, large = marked[:cut], marked[cut:]
    return (small.count(1), large.count(1),
            sum(compress(range(cut), small)), sum(compress(range(cut, n), large)))


def residue_bitmap(n):
    """Bit-packed residue membership: bit y is set iff y in [1, n-1] is a
    nonzero quadratic residue of n."""
    _guard(n, n)
    marked = _mark(n)
    # Byte y of the table becomes bit y of one integer, least significant
    # first; base-2 parsing is linear and has no digit limit.
    return int(marked[::-1].translate(_DIGITS), 2).to_bytes((n >> 3) + 1, "little")
