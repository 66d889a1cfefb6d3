"""Exact modular arithmetic and the primality oracle.

Everything here works on plain Python integers, so no operation can
overflow.  The modulus ceiling of 2**62 is the contract of these helpers
alone, well inside the range the Miller-Rabin witnesses cover; anything
that censuses a modulus has the lower ceiling kernel.MAX_DENSE_MODULUS
= 2**31, which kernel.dense_modulus checks.
"""

import operator
from typing import NamedTuple

MAX_MODULUS = 1 << 62  # exclusive

#: Below this, is_prime_oracle uses trial division instead of Miller-Rabin.
TRIAL_DIVISION_CUTOFF = 1 << 16

# Deterministic Miller-Rabin witness set: no composite below 2**64 passes
# all seven, so the whole supported modulus range is covered with margin.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


class _OddModulusFields(NamedTuple):
    n: int


class OddModulus(_OddModulusFields):
    """A validated odd modulus n with 3 <= n < 2**62.

    2**62 is the ceiling of the arithmetic helpers.  Everything that
    censuses n (census, tallies, classify, residue_details,
    collision_pairs, collision_classes, zero_square_roots, sweep, the
    laws) has the lower ceiling kernel.MAX_DENSE_MODULUS = 2**31 and
    passes n through kernel.dense_modulus before it factors or walks.

    Validation runs in __new__, so construction, _make, _replace and
    unpickling all reject a bad n.
    """

    __slots__ = ()

    def __new__(cls, n):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"modulus must be an int, got {type(n).__name__}")
        if n % 2 == 0:
            raise ValueError(f"modulus must be odd, got {n}")
        if not 3 <= n < MAX_MODULUS:
            raise ValueError(f"modulus must be in [3, 2**62), got {n}")
        return super().__new__(cls, n)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __int__(self) -> int:
        return self.n

    def __index__(self) -> int:
        return self.n


def as_modulus(n) -> int:
    """Validate n (an int or OddModulus) and return it as a plain int."""
    # The common case, a plain int already in range, builds no record; a
    # bool, an int subclass or an __index__ object takes the checks below.
    if type(n) is int and n & 1 and 3 <= n < MAX_MODULUS:
        return n
    if isinstance(n, OddModulus):
        return n.n
    return OddModulus(operator.index(n)).n


def _any_modulus(n) -> int:
    # mul_mod/pow_mod are general modular plumbing: parity does not matter
    # to them, only the census machinery insists on odd moduli.
    if isinstance(n, OddModulus):
        return n.n
    n = operator.index(n)
    if not 2 <= n < MAX_MODULUS:
        raise ValueError(f"modulus must be in [2, 2**62), got {n}")
    return n


def mul_mod(a: int, b: int, n) -> int:
    """a*b mod n for 0 <= a, b < n.

    Python integers are unbounded, so the double-width intermediate the
    contract asks for is automatic here.
    """
    n = _any_modulus(n)
    if not 0 <= a < n or not 0 <= b < n:
        raise ValueError(f"operands must be in [0, {n}), got {a}, {b}")
    return a * b % n


def pow_mod(a: int, e: int, n) -> int:
    """a**e mod n; e = 0 yields 1, also for a = 0."""
    n = _any_modulus(n)
    if not 0 <= a < n:
        raise ValueError(f"base must be in [0, {n}), got {a}")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return pow(a, e, n)


def legendre_euler(a: int, p, *, validate: bool = False) -> int:
    """Legendre symbol of a mod an odd prime p via the Euler power.

    Returns 0 when p divides a, +1 when a is a nonzero square mod p, -1
    otherwise.  Primality of p is the caller's responsibility on hot
    paths; pass validate=True to have it re-checked.  Either way, a power
    landing outside {0, 1, p-1} proves p composite and raises ValueError.
    """
    p = as_modulus(p)
    if validate and not is_prime_oracle(p):
        raise ValueError(f"modulus {p} is not prime")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(
        f"a**((p-1)/2) mod p = {r} is outside {{0, 1, p-1}}: {p} is not prime"
    )


def is_prime_oracle(n: int) -> bool:
    """Exact primality for 1 <= n < 2**62.

    Trial division below TRIAL_DIVISION_CUTOFF, deterministic Miller-Rabin above.
    """
    n = operator.index(n)
    if not 1 <= n < MAX_MODULUS:
        raise ValueError(f"need 1 <= n < 2**62, got {n}")
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    if n < TRIAL_DIVISION_CUTOFF:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i in range(2, limit + 1) if flags[i]]


def factorize(n: int) -> dict:
    """Prime factorization {p: e} by trial division.

    It runs once per census that needs the zero-square roots
    (census.small_zero_roots, redundancy.zero_square_roots): up to
    sqrt(n)/2 trial divisors, against the n/2 steps of the square walk
    that census makes, and no table of its own.  A sweep factors its
    moduli from kernel.small_residue_counts' rolling sieve instead.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
