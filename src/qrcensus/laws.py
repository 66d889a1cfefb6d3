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
import json
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


class ThresholdMode(enum.Enum):
    """Which inequality turns (r_b, n) into a primality verdict."""

    STRICT_QUARTER = "strict"  # 4*r_b > n
    FLOOR_GEQ = "floor"  # r_b >= n//4
    CORRECTED = "corrected"  # 4*r_b >= n-1


class CheckpointError(RuntimeError):
    """Checkpoint file unusable: unreadable, unwritable, or inconsistent."""


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


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _odd_prime(p, law: str):
    p = as_modulus(p)
    _require(is_prime_oracle(p), f"{law}: {p} is not prime")
    return p


def _prime_shape(law, p):
    return (_odd_prime(p, law),)


def _power_shape(law, p, k):
    p = _odd_prime(p, law)
    _require(k >= 1, f"{law}: need k >= 1, got k={k}")
    return p, k


def _semiprime_shape(law, p, q):
    p, q = _odd_prime(p, law), _odd_prime(q, law)
    _require(p < q, f"{law}: need p < q, got p={p}, q={q}")
    return p, q


def _product_shape(law, p, q, m, k):
    p, q = _semiprime_shape(law, p, q)
    _require(m >= 1 and k >= 1, f"{law}: need m, k >= 1, got m={m}, k={k}")
    return p, q, m, k


def _odd_primes(hi):
    return [p for p in sieve_primes(hi) if p > 2]


def _prime_powers(hi):
    for p in _odd_primes(hi):
        k = 1
        while p**k <= hi:
            yield p, k
            k += 1


def _prime_pairs(hi):
    # p < q are odd primes, so p >= 3 and q <= hi/3.
    primes = _odd_primes(hi // 3)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > hi:
                break
            yield p, q


def _prime_products(hi):
    for p, q in _prime_pairs(hi):
        m = 1
        while p**m * q <= hi:
            k = 1
            while p**m * q**k <= hi:
                yield p, q, m, k
                k += 1
            m += 1


class _Family(NamedTuple):
    names: tuple  # parameter names, in report order
    shape: Callable  # (law, **params) -> validated values, or ValueError
    modulus: Optional[Callable]  # values -> the modulus censused; None: no census
    candidates: Callable  # hi -> every tuple of the shape with modulus <= hi


_PRIME = _Family(("p",), _prime_shape, lambda p: p,
                 lambda hi: ((p,) for p in _odd_primes(hi)))
_PRIME_POWER = _Family(("p", "k"), _power_shape, lambda p, k: p**k, _prime_powers)
_PRODUCT = _Family(("p", "q", "m", "k"), _product_shape,
                   lambda p, q, m, k: p**m * q**k, _prime_products)
_SEMIPRIME = _Family(("p", "q"), _semiprime_shape, lambda p, q: p * q, _prime_pairs)
_CLASS_PAIR = _Family(("a", "b"), lambda law, a, b: (a, b), None,
                      lambda hi: ((3, 5), (3, 7), (5, 7)))


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
    conditions hold.  L10's three class pairs ignore the range; every other
    law censuses its modulus, so hi must stay below the dense census
    ceiling (ValueError before the first tuple)."""
    law_id = resolve_law_id(law_id)
    law = _CATALOGUE[law_id]
    modulus = law.family.modulus
    if modulus and hi >= kernel.MAX_DENSE_MODULUS:
        raise ValueError(
            f"{law_id} supports hi < 2**31 (the dense census ceiling), got {hi}"
        )
    if hi < lo:
        return
    for values in law.family.candidates(hi):
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
    _require(
        is_prime_oracle(p) and (p == 3 or p % 4 == 1),
        f"recurrence needs a prime p = 1 (mod 4) or p = 3, got {p}",
    )
    _require(m >= 0, f"exponent must be >= 0, got {m}")
    if m == 0:
        return 0
    prev2, prev1 = 0, (p + 2) // 4  # ceil((p-1)/4)
    for j in range(2, m + 1):
        prev2, prev1 = prev1, ((p - 1) * p ** (j - 1) + 3) // 4 + prev2
    return prev1


# --------------------------------------------------------------------------
# Range sweep


def _scan_chunk(args):
    lo, hi, mode_value = args
    mode = ThresholdMode(mode_value)
    counts = kernel.small_residue_counts(lo, hi)
    bad = []
    n = lo
    for r_b in counts:
        if predicted_prime(n, r_b, mode) != is_prime_oracle(n):
            bad.append(n)
        n += 2
    return bad


def _chunk_ranges(start, hi, chunk_size):
    a = start
    while a <= hi:
        b = min(a + 2 * (chunk_size - 1), hi)
        yield a, b
        a = b + 2


def _write_checkpoint(path, mode, lo, hi, next_unscanned, counterexamples):
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "mode": mode.value,
        "lo": lo,
        "hi": hi,
        "next_unscanned": next_unscanned,
        "counterexamples": list(counterexamples),
    }
    # Per-process temp name: two writers never share a half-written file.
    # fsync before the rename, so a crash leaves the old or the new
    # checkpoint on disk, never an empty one.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"checkpoint write to {path} failed: {exc}") from exc


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
    chunk_size: int = DEFAULT_CHUNK,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    on_counterexample: Optional[Callable] = None,
) -> SweepOutcome:
    """Classify every odd n in [lo, hi]; collect the n where verdict and
    oracle disagree, ascending regardless of worker scheduling.

    The range is cut into contiguous chunks.  With workers > 1, clamped to
    the usable CPUs, the calling process scans chunks beside a pool of
    workers - 1 processes (workers=1, or a range that fits one chunk,
    stays in-process).  Results merge in range order, so on_counterexample
    fires in ascending order too, and the outcome's jobs counts the
    processes that scanned, the caller included.  With a checkpoint path,
    progress is persisted atomically (temp file + rename) every
    checkpoint_every moduli; resume=True picks an interrupted run back up
    and rejects any checkpoint whose schema, mode or range does not match.
    """
    lo = as_modulus(lo)
    hi = as_modulus(hi)
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if hi >= kernel.MAX_DENSE_MODULUS:
        raise ValueError(
            f"sweep supports hi < 2**31 (the dense census ceiling), got {hi}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1 or checkpoint_every < 1:
        raise ValueError("chunk_size and checkpoint_every must be >= 1")
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
        if checkpoint and since_checkpoint >= checkpoint_every:
            _write_checkpoint(checkpoint, mode, lo, hi, next_unscanned, found)
            since_checkpoint = 0

    # A long sweep has millions of chunks: generate them as they are
    # scanned, never as a list.  A rest of the range that fits one chunk
    # gains nothing from a pool.
    chunks = _chunk_ranges(start, hi, chunk_size)
    if workers == 1 or start + 2 * (chunk_size - 1) >= hi:
        workers = 1
        for a, b in chunks:
            merge(_scan_chunk((a, b, mode.value)), b)
    else:
        # Imported here: concurrent.futures (with logging and threading) and
        # multiprocessing would slow the start-up of every other command.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor

        # The caller is one of the scanning processes.  The pool keeps each
        # of its workers two chunks ahead; while that window is full, the
        # caller scans the next chunk itself, and waits on the pool only when
        # it has run a window's worth of chunks ahead of the merge.
        window = 2 * (workers - 1)
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
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
                if len(inflight) < window:
                    inflight[pool.submit(_scan_chunk, (a, b, mode.value))] = i, b
                elif len(results) < window:
                    results[i] = _scan_chunk((a, b, mode.value)), b
                    collect([fut for fut in inflight if fut.done()])
                else:
                    collect(wait(inflight, return_when=FIRST_COMPLETED)[0])
                    inflight[pool.submit(_scan_chunk, (a, b, mode.value))] = i, b
            while inflight:
                collect(wait(inflight, return_when=FIRST_COMPLETED)[0])

    if checkpoint:
        _write_checkpoint(checkpoint, mode, lo, hi, hi + 2, found)
    return SweepOutcome(
        lo=lo,
        hi=hi,
        mode=mode,
        counterexamples=tuple(found),
        scanned=(hi - lo) // 2 + 1,
        elapsed=time.perf_counter() - t0,
        jobs=workers,
    )
