"""Square collisions: why composite moduli have few distinct residues.

For composite n, distinct a, b <= (n-1)/2 can share a square; each such
collision removes one candidate residue.  The witness is the identity
a**2 - b**2 = (a-b)(a+b): n divides that product without dividing either
factor's matching power, which is only possible when n is composite.
"""

from typing import NamedTuple

from qrcensus.census import least_zero_root, small_squares
from qrcensus.kernel import dense_modulus
from qrcensus.modmath import as_modulus, factorize


class _CollisionPairFields(NamedTuple):
    n: int
    a: int
    b: int
    shared_square: int


class CollisionPair(_CollisionPairFields):
    """a and its least partner b with a**2 = b**2 mod n, 1 <= b < a <= (n-1)/2.

    Validation runs in __new__, so construction, _make, _replace and
    unpickling all reject an inconsistent pair.
    """

    __slots__ = ()

    def __new__(cls, n, a, b, shared_square):
        m = as_modulus(n)
        if not 1 <= b < a <= (m - 1) // 2:
            raise ValueError(f"need 1 <= b < a <= {(m - 1) // 2}, got a={a}, b={b}")
        if a * a % m != b * b % m:
            raise ValueError(f"{a}**2 and {b}**2 differ mod {m}")
        if shared_square != a * a % m:
            raise ValueError(f"shared_square {shared_square} is not {a}**2 mod {m}")
        return super().__new__(cls, n, a, b, shared_square)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def witness_low(self) -> int:
        return self.a - self.b

    @property
    def witness_high(self) -> int:
        return self.a + self.b


class WitnessCheck(NamedTuple):
    factor_low: int
    factor_high: int
    product: int
    modulus_divides: bool


def collision_pairs(n) -> list:
    """One pair (a, min b) for each a in [2, (n-1)/2] that repeats a smaller
    value's square, ascending by a.  Primes yield the empty list."""
    n = dense_modulus(n)
    first = {}
    out = []
    for x, s in small_squares(n):
        b = first.get(s)
        if b is None:
            first[s] = x
        else:
            out.append(CollisionPair(n, x, b, s))
    return out


def collision_classes(n) -> list:
    """Alternate presentation: (shared_square, members) for every square
    shared by at least two values of [1, (n-1)/2], ascending members."""
    groups = {}
    for x, s in small_squares(n):
        groups.setdefault(s, []).append(x)
    return [(s, members) for s, members in sorted(groups.items()) if len(members) > 1]


def zero_square_roots(n) -> frozenset:
    """All x in [1, n-1] with x**2 = 0 mod n: the multiples of
    least_zero_root; squarefree n has none.  The census gate checks n
    before it is factored."""
    n = dense_modulus(n)
    m = least_zero_root(factorize(n))
    return frozenset(range(m, n, m))


def witness(pair: CollisionPair) -> WitnessCheck:
    """The (a-b, a+b) divisibility certificate, re-verified rather than
    assumed from the pair."""
    if (pair.a * pair.a - pair.b * pair.b) % pair.n != 0:
        raise ValueError(f"invalid pair: {pair.a}**2 != {pair.b}**2 mod {pair.n}")
    low = pair.witness_low
    high = pair.witness_high
    product = low * high
    return WitnessCheck(low, high, product, product % pair.n == 0)
