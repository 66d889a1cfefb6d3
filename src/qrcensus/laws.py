"""The residue-count primality test, its threshold variants, and the law catalogue.

The classifier compares r_b(n), the number of quadratic residues of n in
[1, (n-1)/2], against a quarter of n.  Three inequalities are on offer
because the obvious one is subtly wrong:

* strict (4*r_b > n) misclassifies every prime p = 1 (mod 4), whose r_b
  is exactly (p-1)/4 and so never beats p/4;
* floor (r_b >= n//4) admits the composites 9, 15 and 27;
* corrected (4*r_b >= n-1) accepts both prime families and fails only at
  n = 9 over the verified range.  It is the default.

check_law() evaluates one named identity, recurrence or inequality at one
parameter tuple, with exact integer or rational sides.  Approximation laws
(A1, A2, and A3's estimate) never gate anything: they report a relative
error so drift stays visible.  sweep() runs the classifier against the
primality oracle over a range, in parallel if asked, with atomic resumable
checkpoints.
"""

import contextlib
import enum
import itertools
import json
import math
import os
import time
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from qrcensus import kernel
from qrcensus.census import tallies
from qrcensus.modmath import as_modulus, is_prime_oracle, sieve_primes

CHECKPOINT_SCHEMA_VERSION = 1
DEFAULT_CHUNK = 2048
DEFAULT_CHECKPOINT_EVERY = 4096

# The walk steps ((n-1)/2 per modulus) from which a sweep's pool beats one
# process, by kernel backend.  Strict sweeps from 3 on 2 CPUs: compiled,
# medians of 15, serial and pooled cross near 1.25e7 steps (3..10001: 58
# against 56 ms; 3..16001, 3.2e7 steps: 82 against 69 ms); pure, chunks of
# 512, medians of 9, between 1.1e6 and 2.0e6 steps (3..3001: 48 against
# 55 ms; 3..4001: 101 against 66 ms).  A one-shot command also spends
# 20-30 ms importing the pool.
_POOL_MIN_STEPS = {"compiled": 1 << 25, "pure": 1 << 21}[kernel.BACKEND]


class ThresholdMode(enum.Enum):
    """Which inequality turns (r_b, n) into a primality verdict."""

    STRICT_QUARTER = "strict"  # 4*r_b > n
    FLOOR_GEQ = "floor"  # r_b >= n//4
    CORRECTED = "corrected"  # 4*r_b >= n-1


class CheckpointError(RuntimeError):
    """Checkpoint file unusable: unreadable, unwritable, or inconsistent."""


class WorkerLost(RuntimeError):
    """A pool worker of a sweep died; the sweep's checkpoint, if it has one,
    holds the merged prefix."""


class Classification(NamedTuple):
    n: int
    mode: ThresholdMode
    r_b: int
    predicted_prime: bool
    oracle_prime: bool

    @property
    def agree(self) -> bool:
        return self.predicted_prime == self.oracle_prime


class LawReport(NamedTuple):
    """One law evaluated at one parameter tuple.

    For exact laws `holds` compares lhs against rhs with the law's own
    comparator (equality or strict inequality); for report-only
    approximations `holds` is None and `rel_error` carries |lhs-rhs|/rhs.
    """

    law_id: str
    params: tuple
    lhs: object
    rhs: object
    holds: Optional[bool]
    rel_error: Optional[Fraction] = None
    notes: tuple = ()


class SweepOutcome(NamedTuple):
    lo: int
    hi: int
    mode: ThresholdMode
    counterexamples: tuple
    scanned: int
    elapsed: float
    jobs: int = 1  # processes that scanned, the caller included


def predicted_prime(n: int, r_b: int, mode: ThresholdMode) -> bool:
    """The verdict is a function of (r_b, n) alone."""
    if mode is ThresholdMode.STRICT_QUARTER:
        return 4 * r_b > n
    if mode is ThresholdMode.FLOOR_GEQ:
        return r_b >= n // 4
    if mode is ThresholdMode.CORRECTED:
        return 4 * r_b >= n - 1
    raise ValueError(f"unknown mode {mode!r}")


def classify(n, mode: ThresholdMode = ThresholdMode.CORRECTED) -> Classification:
    n = as_modulus(n)
    r_b = tallies(n).r_b
    return Classification(
        n, mode, r_b, predicted_prime(n, r_b, mode), is_prime_oracle(n)
    )


# --------------------------------------------------------------------------
# Law catalogue
#
# One record per law.  Its family fixes the parameter names and their shape
# (which values are odd primes, p < q, exponents >= 1), the modulus the law
# censuses, and every tuple of that shape up to a bound.  The record adds
# the side condition, whether the law is exact, and the evaluation.
# check_law validates and qualifying_params enumerates through the same
# shape and condition, so the two cannot drift.


# The shape checks run once per reported tuple, so each builds its error
# text only when it raises.
def _odd_prime(p, law: str):
    p = as_modulus(p)
    if not is_prime_oracle(p):
        raise ValueError(f"{law}: {p} is not prime")
    return p


def _prime_shape(law, p):
    return (_odd_prime(p, law),)


def _power_shape(law, p, k):
    p = _odd_prime(p, law)
    if not k >= 1:
        raise ValueError(f"{law}: need k >= 1, got k={k}")
    return p, k


def _semiprime_shape(law, p, q):
    p, q = _odd_prime(p, law), _odd_prime(q, law)
    if not p < q:
        raise ValueError(f"{law}: need p < q, got p={p}, q={q}")
    return p, q


def _product_shape(law, p, q, m, k):
    p, q = _semiprime_shape(law, p, q)
    if not (m >= 1 and k >= 1):
        raise ValueError(f"{law}: need m, k >= 1, got m={m}, k={k}")
    return p, q, m, k


def _primes_between(a, b):
    """The odd primes in [a, b]: a window of b - a + 1 flags, sieved by the
    primes up to isqrt(b)."""
    a = max(a, 3)
    if a > b:
        return []
    flags = bytearray([1]) * (b - a + 1)
    for p in sieve_primes(math.isqrt(b)):
        first = max(p * p, -(-a // p) * p) - a
        flags[first::p] = bytes(len(range(first, b - a + 1, p)))
    return list(itertools.compress(range(a, b + 1), flags))


def _prime_powers(lo, hi):
    # p**k <= hi with k >= 2 needs p <= isqrt(hi); a larger p comes in only
    # as p itself, from the window [lo, hi].
    root = math.isqrt(hi)
    for p in _primes_between(3, root):
        k = 1
        while p**k <= hi:
            yield p, k
            k += 1
    for p in _primes_between(max(lo, root + 1), hi):
        yield p, 1


def _iroot(x, k):
    """floor(x ** (1/k)) for x >= 0, exactly."""
    r = round(x ** (1 / k))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _prime_products(lo, hi):
    # For fixed p < q, m and k, p**m * q**k is in [lo, hi] exactly when q**k
    # is in [a, b] = [max(ceil(lo/p**m), 1), hi // p**m], so when q is in the
    # window [iroot(a - 1, k) + 1, iroot(b, k)].  Each p's tuples are
    # merged into (q, m, k) order.
    for p in _primes_between(3, math.isqrt(hi)):
        found = []
        m = 1
        while p**m * (p + 2) <= hi:
            a, b = max(-(-lo // p**m), 1), hi // p**m
            k = 1
            while (p + 2) ** k <= b:
                window = _primes_between(max(p + 2, _iroot(a - 1, k) + 1), _iroot(b, k))
                found += ((q, m, k) for q in window)
                k += 1
            m += 1
        for q, m, k in sorted(found):
            yield p, q, m, k


class _Family(NamedTuple):
    names: tuple  # parameter names, in report order
    shape: Callable  # (law, **params) -> validated values, or ValueError
    modulus: Optional[Callable]  # values -> the modulus censused; None: no census
    # (lo, hi) -> every tuple of the shape with modulus in [lo, hi], and
    # maybe some below lo, which qualifying_params drops
    candidates: Callable


_PRIME = _Family(("p",), _prime_shape, lambda p: p,
                 lambda lo, hi: ((p,) for p in _primes_between(lo, hi)))
_PRIME_POWER = _Family(("p", "k"), _power_shape, lambda p, k: p**k, _prime_powers)
_PRODUCT = _Family(("p", "q", "m", "k"), _product_shape,
                   lambda p, q, m, k: p**m * q**k, _prime_products)
# The semiprimes p*q are the products p**m * q**k with m = k = 1.
_SEMIPRIME = _Family(("p", "q"), _semiprime_shape, lambda p, q: p * q,
                     lambda lo, hi: ((p, q) for p, q, m, k in _prime_products(lo, hi)
                                     if m == k == 1))
_CLASS_PAIR = _Family(("a", "b"), lambda law, a, b: (a, b), None,
                      lambda lo, hi: ((3, 5), (3, 7), (5, 7)))


class _Law(NamedTuple):
    family: _Family
    exact: bool  # holds gates a run; otherwise rel_error is reported too
    evaluate: Callable  # (tallies of the modulus, *values) -> (lhs, rhs, holds, *notes)
    condition: Callable = lambda *values: True  # side condition beyond the shape
    requires: str = ""  # the condition, worded for its error message


def _class(c, m):
    """The side condition p = c (mod m), as (condition, requires)."""
    return (lambda p: p % m == c), f"p = {c} (mod {m})"


def _eq(lhs, rhs, *notes):
    return (lhs, rhs, lhs == rhs, *notes)


def _lt(lhs, rhs):
    return lhs, rhs, lhs < rhs


def _rel_error(lhs, rhs) -> Fraction:
    return Fraction(abs(lhs - rhs), rhs)


def _leb_diff(t, p, c):
    """L4 (c = 1) and L6 (c = 3): c*(sum_n - sum_r)/p = r_b - n_b."""
    diff = c * (t.sum_n - t.sum_r)
    return _eq(Fraction(diff, p), t.r_b - t.n_b, ("difference_divisible_by_p", diff % p == 0))


def _rb_prime_square(p: int) -> int:
    """r_b(p**2) for an odd prime p, from the census of p alone.

    By Hensel's lemma a unit is a square mod p**2 iff it is a square mod
    p, and no nonzero multiple of p is a square mod p**2 (p | x**2 forces
    p**2 | x**2).  So the residues of p**2 are the units whose class mod p
    is a residue.  [1, (p**2-1)/2] holds (p-1)/2 full blocks of p, each
    with (p-1)/2 such units, plus one half block [kp+1, kp + (p-1)/2],
    k = (p-1)/2, that counts r_b(p).  No census goes above p.
    """
    return ((p - 1) // 2) ** 2 + tallies(p).r_b


_CATALOGUE = {
    "L1_EXACT_4K1": _Law(_PRIME, True, lambda t, p: _eq(t.r_b, (p - 1) // 4), *_class(1, 4)),
    "L2_DIRICHLET_POS": _Law(
        _PRIME, True, lambda t, p: (t.r_b - t.n_b, 0, t.r_b > t.n_b), *_class(3, 4)
    ),
    "L3_LEB_7MOD8_SUMS": _Law(_PRIME, True, lambda t, p: _eq(t.sum_rb, t.sum_nb), *_class(7, 8)),
    "L4_LEB_7MOD8_DIFF": _Law(_PRIME, True, lambda t, p: _leb_diff(t, p, 1), *_class(7, 8)),
    # Implemented orientation: sum_n - sum_r = sum_rb - sum_nb, the one that
    # holds on data; the reversed sign is recorded in the notes.
    "L5_LEB_3MOD8_SUMS": _Law(
        _PRIME,
        True,
        lambda t, p: _eq(
            t.sum_n - t.sum_r,
            t.sum_rb - t.sum_nb,
            ("reversed_orientation_holds", t.sum_r - t.sum_n == t.sum_rb - t.sum_nb),
        ),
        *_class(3, 8),
    ),
    "L6_LEB_3MOD8_DIFF": _Law(_PRIME, True, lambda t, p: _leb_diff(t, p, 3), *_class(3, 8)),
    # (p-1)(p+1)/16 is integral for p = 7 (mod 8): 8 | p+1 and 2 | p-1.
    "L7_SUMRB_7MOD8": _Law(
        _PRIME, True, lambda t, p: _eq(t.sum_rb, (p - 1) * (p + 1) // 16), *_class(7, 8)
    ),
    # The bound only concerns proper powers: at k = 1 every p = 3 (mod 4)
    # prime has r_b > (p-1)/4 (that is L2), and r_b(9) = (9-1)/4 exactly,
    # so strictness starts at k = 2 generally and k = 3 for p = 3 (both
    # boundaries confirmed by brute force over every power up to 30000).
    "L8_PRIMEPOWER_BOUND": _Law(
        _PRIME_POWER,
        True,
        lambda t, p, k: _lt(t.r_b, Fraction(p**k - 1, 4)),
        lambda p, k: p % 4 == 3 and k >= (3 if p == 3 else 2),
        "p = 3 (mod 4) and k >= 2 (k >= 3 for p = 3)",
    ),
    # Strictness has exactly one boundary case below 30000 (confirmed by
    # scanning all 7111 tuples): r_b(15) = 3 = 3*r_b(5).  The smallest
    # semiprime sits outside the law's scope, like 9 does for L8.
    "L9_PRODUCT_INEQ": _Law(
        _PRODUCT,
        True,
        lambda t, p, q, m, k: _lt(t.r_b, p * tallies(p ** (m - 1) * q**k).r_b),
        lambda *values: values != (3, 5, 1, 1),
        "modulus != 15, which attains equality (r_b(15) = 3*r_b(5))",
    ),
    # The mod-8 class triangle: multiplying members of two of {3, 5, 7}
    # lands in the third class, 15 - a%8 - b%8.
    "L10_MOD8_TRIANGLE": _Law(
        _CLASS_PAIR,
        True,
        lambda t, a, b: _eq(a * b % 8, 15 - a % 8 - b % 8),
        lambda a, b: a % 8 != b % 8 and {a % 8, b % 8} <= {3, 5, 7},
        "a and b in distinct classes of {3, 5, 7} (mod 8)",
    ),
    "A1_NH_PRIMEPOWER": _Law(
        _PRIME_POWER,
        False,
        lambda t, p, k: (t.n_h, p * tallies(p ** (k - 1)).n_h, None),
        lambda p, k: k >= 2,
        "k >= 2",
    ),
    "A2_NH_PRODUCT": _Law(
        _PRODUCT, False, lambda t, p, q, m, k: (t.n_h, p * tallies(p ** (m - 1) * q**k).n_h, None)
    ),
    # The estimate (r_b(p^2) + r_b(q^2))/4 is report-only, but the bound
    # r_b(pq) < pq/4 is pass/fail.
    "A3_RB_SEMIPRIME": _Law(
        _SEMIPRIME,
        False,
        lambda t, p, q: (
            t.r_b,
            Fraction(_rb_prime_square(p) + _rb_prime_square(q), 4),
            4 * t.r_b < p * q,
        ),
    ),
}

LAW_IDS = tuple(_CATALOGUE)
_SHORT_IDS = {law.split("_", 1)[0]: law for law in LAW_IDS}

#: Laws whose `holds` gates a verification run; the others only report.
EXACT_LAW_IDS = tuple(law for law, rec in _CATALOGUE.items() if rec.exact)


def resolve_law_id(law_id: str) -> str:
    key = law_id.upper()
    key = _SHORT_IDS.get(key, key)
    if key not in _CATALOGUE:
        raise ValueError(f"unknown law {law_id!r}; known: {', '.join(LAW_IDS)}")
    return key


def check_law(law_id: str, **params) -> LawReport:
    """Evaluate one law; violated side conditions raise ValueError."""
    law_id = resolve_law_id(law_id)
    law = _CATALOGUE[law_id]
    family = law.family
    values = family.shape(law_id, **params)
    named = tuple(zip(family.names, values))
    if not law.condition(*values):
        got = ", ".join(f"{name}={v}" for name, v in named)
        raise ValueError(f"{law_id}: need {law.requires}, got {got}")
    t = tallies(family.modulus(*values)) if family.modulus else None
    lhs, rhs, holds, *notes = law.evaluate(t, *values)
    rel_error = None if law.exact else _rel_error(lhs, rhs)
    return LawReport(law_id, named, lhs, rhs, holds, rel_error, tuple(notes))


def qualifying_params(law_id: str, lo: int, hi: int) -> Iterator[dict]:
    """Parameter tuples whose modulus lies in [lo, hi] and whose side
    conditions hold.  L10's three class pairs ignore the range unless it
    is empty (hi < lo), which gives L10 no tuple, as it gives every law.
    Every other law censuses its modulus, so hi must stay below the dense
    census ceiling (ValueError before the first tuple)."""
    law_id = resolve_law_id(law_id)
    law = _CATALOGUE[law_id]
    modulus = law.family.modulus
    if modulus and hi >= kernel.MAX_DENSE_MODULUS:
        raise ValueError(
            f"{law_id} supports hi < 2**31 (the dense census ceiling), got {hi}"
        )
    if hi < lo:
        return
    for values in law.family.candidates(lo, hi):
        if (modulus is None or modulus(*values) >= lo) and law.condition(*values):
            yield dict(zip(law.family.names, values))


def rb_prime_power_predicted(p: int, m: int) -> int:
    """Closed recurrence for r_b(p**m), valid for p = 1 (mod 4) and p = 3.

    With Q = (p-1)/4 (so Q = 1/2 for p = 3): R(0) = 0, R(1) = ceil(Q),
    R(m) = ceil(Q * p**(m-1)) + R(m-2).  The ceiling only bites for p = 3.
    There is no exact recurrence for the other p = 3 (mod 4) primes, only
    the A1/A2 approximations.
    """
    p = as_modulus(p)
    if not (is_prime_oracle(p) and (p == 3 or p % 4 == 1)):
        raise ValueError(f"recurrence needs a prime p = 1 (mod 4) or p = 3, got {p}")
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    if m == 0:
        return 0
    prev2, prev1 = 0, (p + 2) // 4  # ceil((p-1)/4)
    for j in range(2, m + 1):
        prev2, prev1 = prev1, ((p - 1) * p ** (j - 1) + 3) // 4 + prev2
    return prev1


# --------------------------------------------------------------------------
# Range sweep


def _scan_chunk(lo, hi, mode):
    counts = kernel.small_residue_counts(lo, hi)
    bad = []
    n = lo
    for r_b in counts:
        if predicted_prime(n, r_b, mode) != is_prime_oracle(n):
            bad.append(n)
        n += 2
    return bad


def _steps_below(n):
    """Walk steps of the odd moduli in [3, n): modulus m costs (m-1)/2
    steps, so those below n = 2k+1 cost k(k-1)/2."""
    k = (n - 1) // 2
    return k * (k - 1) // 2


def _chunk_ranges(start, hi, chunk_size, parts=1):
    """Contiguous chunks (a, b) of the odd n in [start, hi], each of at most
    chunk_size moduli and, give or take one modulus, at most 1/parts of the
    range's walk steps.  Where chunk_size moduli at the top of the range
    hold more than 1/parts of the steps, a chunk also ends at each of
    `parts` equal shares of them, the last modulus within a share being one
    isqrt away; elsewhere, and always with parts=1, the cut is by moduli
    alone, so a long range keeps its chunks."""
    base = _steps_below(start)
    total = _steps_below(hi + 2) - base
    # The next share boundary to cut at; none where chunk_size moduli of at
    # most (hi-1)/2 steps each already fit within a share.
    share = parts if parts * chunk_size * ((hi - 1) // 2) <= total else 1
    a = start
    while a <= hi:
        b = min(a + 2 * (chunk_size - 1), hi)
        while share < parts:
            # k is the largest with k(k-1)/2 <= t: the moduli up to 2k-1 fit.
            t = base + share * total // parts
            end = (1 + math.isqrt(1 + 8 * t)) // 2 * 2 - 1
            if end >= a:
                b = min(b, end)
                break
            share += 1
        yield a, b
        a = b + 2


def _ignore_interrupts():
    """Pool worker initializer: a terminal's Ctrl-C reaches the whole process
    group, and only the caller should handle it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextlib.contextmanager
def _checkpoint_tmp(path):
    """The temp name a checkpoint of path is written to; an OSError inside
    removes it and becomes a CheckpointError.  The name is per process, so
    two writers never share a half-written file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"checkpoint write to {path} failed: {exc}") from exc


def _write_checkpoint(path, mode, lo, hi, next_unscanned, counterexamples):
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "mode": mode.value,
        "lo": lo,
        "hi": hi,
        "next_unscanned": next_unscanned,
        "counterexamples": list(counterexamples),
    }
    # fsync before the rename, so a crash leaves the old or the new
    # checkpoint on disk, never an empty one.
    with _checkpoint_tmp(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


def _load_checkpoint(path, mode, lo, hi):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"checkpoint read from {path} failed: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path}: not a JSON object")
    # JSON true/false load as bools, which pass for 1/0 in every int test.
    ces = doc.get("counterexamples")
    ints = [doc.get(k) for k in ("schema_version", "lo", "hi", "next_unscanned")]
    if any(isinstance(v, bool) for v in ints + (ces if isinstance(ces, list) else [])):
        raise CheckpointError(f"checkpoint {path}: a bool where an int belongs")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: unsupported schema_version "
            f"{doc.get('schema_version')!r}"
        )
    if doc.get("mode") != mode.value:
        raise CheckpointError(
            f"checkpoint {path}: mode {doc.get('mode')!r} does not match {mode.value!r}"
        )
    if doc.get("lo") != lo or doc.get("hi") != hi:
        raise CheckpointError(
            f"checkpoint {path}: range [{doc.get('lo')}, {doc.get('hi')}] "
            f"does not match [{lo}, {hi}]"
        )
    nxt = doc.get("next_unscanned")
    if (
        not isinstance(nxt, int)
        or nxt % 2 == 0
        or not lo <= nxt <= hi + 2
        or not isinstance(ces, list)
        or any(not isinstance(c, int) for c in ces)
        or ces != sorted(set(ces))
        or any(c >= nxt or c < lo for c in ces)
    ):
        raise CheckpointError(f"checkpoint {path}: inconsistent progress fields")
    return nxt, ces


def wait(fs, return_when):
    """concurrent.futures.wait, imported on first use like the pool.  The pool
    loop calls it through this module name, so perfbench/tracer.py can time
    the waits."""
    from concurrent.futures import wait as futures_wait

    return futures_wait(fs, return_when=return_when)


def sweep(
    lo,
    hi,
    mode: ThresholdMode = ThresholdMode.CORRECTED,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    *,
    resume: bool = False,
    on_counterexample: Optional[Callable] = None,
) -> SweepOutcome:
    """Classify every odd n in [lo, hi]; collect the n where verdict and
    oracle disagree, ascending regardless of worker scheduling.

    The range is cut into contiguous chunks of at most DEFAULT_CHUNK moduli,
    read when sweep is called, like DEFAULT_CHECKPOINT_EVERY.
    With workers > 1, clamped to the usable CPUs, the calling process scans
    chunks beside a pool of workers - 1 processes.  workers=1, a range that
    fits one chunk, and one of fewer walk steps ((n-1)/2 per modulus) than
    the kernel backend's _POOL_MIN_STEPS stay in-process.  The caller scans
    the last chunk, and a short range is also cut at each of `workers` equal shares
    of its walk steps, so that no one chunk holds most of its work.
    Results merge in range order, so on_counterexample fires in ascending
    order too, and the outcome's jobs counts the processes that scanned,
    the caller included.
    With a checkpoint path, progress is persisted atomically (temp file +
    rename) by the merge of a chunk that reaches DEFAULT_CHECKPOINT_EVERY
    moduli since the last write or ends the range, and, for the merged
    prefix, before a KeyboardInterrupt propagates or a dead pool worker
    raises WorkerLost; resume=True picks an interrupted run back up and
    rejects any checkpoint whose schema, mode or range does not match.  A
    checkpoint path that cannot be written raises CheckpointError before
    the first chunk is scanned.
    """
    lo = as_modulus(lo)
    hi = kernel.dense_modulus(hi)
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if resume and not checkpoint:
        raise ValueError("resume=True needs a checkpoint path")
    # The pool forks all of its workers at the first submit, so it gets no
    # more of them than there are CPUs this process may run on.
    if hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    else:
        workers = min(workers, os.cpu_count() or 1)

    t0 = time.perf_counter()
    start = lo
    found: list = []
    if resume and os.path.exists(checkpoint):
        start, prior = _load_checkpoint(checkpoint, mode, lo, hi)
        found = list(prior)
    if checkpoint and start <= hi:
        with _checkpoint_tmp(checkpoint) as tmp:
            open(tmp, "wb").close()
            os.remove(tmp)

    next_unscanned = start
    since_checkpoint = 0

    def merge(bad, chunk_end):
        nonlocal next_unscanned, since_checkpoint
        for n in bad:
            found.append(n)
            if on_counterexample is not None:
                on_counterexample(n)
        since_checkpoint += (chunk_end + 2 - next_unscanned) // 2
        next_unscanned = chunk_end + 2
        if checkpoint and (since_checkpoint >= DEFAULT_CHECKPOINT_EVERY or chunk_end == hi):
            _write_checkpoint(checkpoint, mode, lo, hi, next_unscanned, found)
            since_checkpoint = 0

    # A long sweep has millions of chunks: generate them as they are
    # scanned, never as a list.  A rest of the range that fits one chunk
    # gains nothing from a pool, nor does one of fewer walk steps than the
    # backend's _POOL_MIN_STEPS: starting the pool costs more than it saves.
    aborts = (KeyboardInterrupt,)  # and BrokenProcessPool once a pool runs
    pool = None
    try:
        if (workers == 1 or start + 2 * (DEFAULT_CHUNK - 1) >= hi
                or _steps_below(hi + 2) - _steps_below(start) < _POOL_MIN_STEPS):
            workers = 1
            for a, b in _chunk_ranges(start, hi, DEFAULT_CHUNK):
                merge(_scan_chunk(a, b, mode), b)
        else:
            # Imported here: concurrent.futures (with logging and threading)
            # and multiprocessing would slow the start-up of every other
            # command.
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            aborts += (BrokenProcessPool,)
            # The caller is one of the scanning processes.  The pool keeps
            # each of its workers two chunks ahead; while that window is
            # full, the caller scans the next chunk itself, and waits on the
            # pool only when it has run a window's worth of chunks ahead of
            # the merge.  The last chunk is always the caller's: queued
            # behind the pool's, it would leave the caller idle at the end.
            # A short range is also cut at equal shares of the walk steps,
            # one per process.  A range of at most window + 2 chunks gives
            # the pool the first chunks and the caller the rest, always the
            # same ones: for 3..10001 with two processes, half of the steps
            # each.
            chunks = _chunk_ranges(start, hi, DEFAULT_CHUNK, workers)
            window = 2 * (workers - 1)
            pool = ProcessPoolExecutor(max_workers=workers - 1, initializer=_ignore_interrupts)
            inflight = {}  # future -> (chunk index, chunk end)
            results = {}  # chunk index -> (bad, chunk end)
            next_merge = 0

            def collect(done):
                nonlocal next_merge
                for fut in done:
                    j, end = inflight.pop(fut)
                    results[j] = fut.result(), end
                while next_merge in results:
                    merge(*results.pop(next_merge))
                    next_merge += 1

            for i, (a, b) in enumerate(chunks):
                if len(inflight) < window and b < hi:
                    inflight[pool.submit(_scan_chunk, a, b, mode)] = i, b
                elif len(results) < window or b == hi:
                    results[i] = _scan_chunk(a, b, mode), b
                    collect([fut for fut in inflight if fut.done()])
                else:
                    collect(wait(inflight, return_when=FIRST_COMPLETED)[0])
                    inflight[pool.submit(_scan_chunk, a, b, mode)] = i, b
            while inflight:
                collect(wait(inflight, return_when=FIRST_COMPLETED)[0])
    except aborts as exc:
        # Interrupted, or a pool worker died: keep the merged prefix, before
        # the pool below waits for its running chunks.  A merge cut short may
        # already list counterexamples past next_unscanned.
        if checkpoint:
            _write_checkpoint(checkpoint, mode, lo, hi, next_unscanned,
                              [n for n in found if n < next_unscanned])
        if isinstance(exc, KeyboardInterrupt):
            raise
        raise WorkerLost("a pool worker died") from exc
    finally:
        if pool is not None:
            # After an abort the queued chunks are of no use; after a full
            # run there are none.
            pool.shutdown(cancel_futures=True)

    return SweepOutcome(
        lo=lo,
        hi=hi,
        mode=mode,
        counterexamples=tuple(found),
        scanned=(hi - lo) // 2 + 1,
        elapsed=time.perf_counter() - t0,
        jobs=workers,
    )
