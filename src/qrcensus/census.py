"""Quadratic-residue census of an odd modulus.

A nonzero y is a residue of n when some x has x**2 = y mod n; non-unit
residues (gcd(y, n) > 1) count too.  "Small" means 1 <= y <= (n-1)/2,
"large" means (n-1)/2 < y <= n-1; n is odd so there is never a tie.
Values of x whose square is 0 are tracked separately and never counted
as residues, yet the small ys they occupy still count as non-residues.
"""

from functools import lru_cache
from itertools import compress
from typing import Iterator, NamedTuple, Optional

from qrcensus import kernel
from qrcensus.modmath import factorize


class CensusTallies(NamedTuple):
    """The ten counts and sums of one census, as the kernel's walk gives them."""

    r_b: int
    n_b: int
    r_h: int
    n_h: int
    sum_r: int
    sum_n: int
    sum_rb: int
    sum_nb: int
    sum_rh: int
    sum_nh: int


class ResidueDetail(NamedTuple):
    y: int
    smallest_root: int


class ResidueCensus(NamedTuple):
    n: int
    residues: frozenset
    r_b: int
    n_b: int
    r_h: int
    n_h: int
    sum_r: int
    sum_n: int
    sum_rb: int
    sum_nb: int
    sum_rh: int
    sum_nh: int
    zero_square_roots: frozenset
    details: Optional[tuple] = None


def least_zero_root(factors) -> int:
    """The least x >= 1 with x**2 = 0 mod n, given n's factorization {p: e}.

    p**e divides x**2 exactly when p**ceil(e/2) divides x, so that x is
    m = prod p**ceil(e/2) and the zero-square roots are the multiples of m
    below n; squarefree n gives m = n and none.
    """
    m = 1
    for p, e in factors.items():
        m *= p ** ((e + 1) >> 1)
    return m


def small_zero_roots(n) -> range:
    """The x in [1, (n-1)/2] with x**2 = 0 mod n: the multiples of
    least_zero_root below n/2.  n must have passed the census gate."""
    m = least_zero_root(factorize(n))
    return range(m, (n + 1) >> 1, m)


@lru_cache(maxsize=65536)
def _tallies(n):
    return CensusTallies._make(kernel.census_tallies(n))


def tallies(n) -> CensusTallies:
    """Census counts and sums without materializing the residue set.

    The kernel maintains x**2 mod n by adding 2x-1 and conditionally
    subtracting n; the tests check it against the brute force in
    tests/oracle.py, which squares outright.  The census gate checks n
    before it walks.
    """
    return _tallies(kernel.dense_modulus(n))


# Maps bin()'s digits to the 0/1 flags that itertools.compress reads.  Read
# backwards, digit y is bit y of residue_bitmap: the inverse of the packing
# in _purekernel.residue_bitmap.
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def quadratic_residue_set(n) -> frozenset:
    """All nonzero quadratic residues of n, i.e. {x**2 mod n} \\ {0} for
    x in [1, (n-1)/2] (x and n-x square to the same value)."""
    bits = bin(int.from_bytes(kernel.residue_bitmap(n), "little"))[:1:-1]
    return frozenset(compress(range(n), bits.encode().translate(_FLAGS)))


def census(n, want_details: bool = False) -> ResidueCensus:
    """The full census record of n; want_details adds (y, smallest_root)
    rows for every residue, and the residue set then comes from those rows
    instead of a second walk."""
    n = kernel.dense_modulus(n)
    details = residue_details(n) if want_details else None
    residues = frozenset(d.y for d in details) if want_details else quadratic_residue_set(n)
    return ResidueCensus(n, residues, *tallies(n), frozenset(small_zero_roots(n)), details)


def small_squares(n) -> Iterator[tuple]:
    """(x, x**2 mod n) for every x in [1, (n-1)/2] whose square is nonzero.

    The one square walk behind residue_details, collision_pairs and
    collision_classes.  The census gate checks n before it walks.
    """
    n = kernel.dense_modulus(n)
    return ((x, s) for x in range(1, (n - 1) // 2 + 1) if (s := x * x % n))


def residue_details(n) -> tuple:
    """(y, smallest_root) for every residue of n, ascending by y."""
    first = {}
    for x, s in small_squares(n):
        if s not in first:
            first[s] = x
    return tuple(ResidueDetail(y, first[y]) for y in sorted(first))


def smallest_sqrt(y: int, n) -> Optional[int]:
    """Least x >= 1 with x**2 = y mod n, or None when y is a non-residue.

    Roots come in mirror pairs x and n-x, so the least one always lies in
    the small half.  The walk is up to (n-1)/2 steps, so n passes the
    census gate like every other census.
    """
    n = kernel.dense_modulus(n)
    if not 1 <= y <= n - 1:
        raise ValueError(f"y must be in [1, {n - 1}], got {y}")
    return next((x for x, s in small_squares(n) if s == y), None)


def small_residue_count(n) -> int:
    """r_b(n): how many residues lie in [1, (n-1)/2]."""
    return tallies(n).r_b


def n_h(n) -> int:
    """Count of large non-residues: y in ((n-1)/2, n-1] with no square root."""
    return tallies(n).n_h
