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
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

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


class SweepInterrupted(RuntimeError):
    """Raised by the injected-abort test hook partway through a sweep."""


@dataclass(frozen=True)
class Classification:
    n: int
    mode: ThresholdMode
    r_b: int
    predicted_prime: bool
    oracle_prime: bool

    @property
    def agree(self) -> bool:
        return self.predicted_prime == self.oracle_prime


@dataclass(frozen=True)
class LawReport:
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


@dataclass(frozen=True)
class SweepOutcome:
    lo: int
    hi: int
    mode: ThresholdMode
    counterexamples: tuple
    scanned: int
    elapsed: float


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


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _odd_prime(p, law: str):
    p = as_modulus(p)
    _require(is_prime_oracle(p), f"{law}: {p} is not prime")
    return p


def _rel_error(lhs, rhs) -> Fraction:
    return Fraction(abs(lhs - rhs), rhs)


def _law_l1(p) -> LawReport:
    p = _odd_prime(p, "L1_EXACT_4K1")
    _require(p % 4 == 1, f"L1_EXACT_4K1: need p = 1 (mod 4), got {p}")
    lhs = tallies(p).r_b
    rhs = (p - 1) // 4
    return LawReport("L1_EXACT_4K1", (("p", p),), lhs, rhs, lhs == rhs)


def _law_l2(p) -> LawReport:
    p = _odd_prime(p, "L2_DIRICHLET_POS")
    _require(p % 4 == 3, f"L2_DIRICHLET_POS: need p = 3 (mod 4), got {p}")
    t = tallies(p)
    lhs = t.r_b - t.n_b
    return LawReport("L2_DIRICHLET_POS", (("p", p),), lhs, 0, lhs > 0)


def _law_l3(p) -> LawReport:
    p = _odd_prime(p, "L3_LEB_7MOD8_SUMS")
    _require(p % 8 == 7, f"L3_LEB_7MOD8_SUMS: need p = 7 (mod 8), got {p}")
    t = tallies(p)
    return LawReport(
        "L3_LEB_7MOD8_SUMS", (("p", p),), t.sum_rb, t.sum_nb, t.sum_rb == t.sum_nb
    )


def _law_l4(p) -> LawReport:
    p = _odd_prime(p, "L4_LEB_7MOD8_DIFF")
    _require(p % 8 == 7, f"L4_LEB_7MOD8_DIFF: need p = 7 (mod 8), got {p}")
    t = tallies(p)
    diff = t.sum_n - t.sum_r
    lhs = Fraction(diff, p)
    rhs = t.r_b - t.n_b
    return LawReport(
        "L4_LEB_7MOD8_DIFF",
        (("p", p),),
        lhs,
        rhs,
        lhs == rhs,
        notes=(("difference_divisible_by_p", diff % p == 0),),
    )


def _law_l5(p) -> LawReport:
    # Implemented orientation: sum_n - sum_r = sum_rb - sum_nb, the one that
    # holds on data; the reversed sign is recorded in the notes.
    p = _odd_prime(p, "L5_LEB_3MOD8_SUMS")
    _require(p % 8 == 3, f"L5_LEB_3MOD8_SUMS: need p = 3 (mod 8), got {p}")
    t = tallies(p)
    lhs = t.sum_n - t.sum_r
    rhs = t.sum_rb - t.sum_nb
    return LawReport(
        "L5_LEB_3MOD8_SUMS",
        (("p", p),),
        lhs,
        rhs,
        lhs == rhs,
        notes=(("reversed_orientation_holds", t.sum_r - t.sum_n == rhs),),
    )


def _law_l6(p) -> LawReport:
    p = _odd_prime(p, "L6_LEB_3MOD8_DIFF")
    _require(p % 8 == 3, f"L6_LEB_3MOD8_DIFF: need p = 3 (mod 8), got {p}")
    t = tallies(p)
    diff = t.sum_n - t.sum_r
    lhs = Fraction(3 * diff, p)
    rhs = t.r_b - t.n_b
    return LawReport(
        "L6_LEB_3MOD8_DIFF",
        (("p", p),),
        lhs,
        rhs,
        lhs == rhs,
        notes=(("difference_divisible_by_p", (3 * diff) % p == 0),),
    )


def _law_l7(p) -> LawReport:
    p = _odd_prime(p, "L7_SUMRB_7MOD8")
    _require(p % 8 == 7, f"L7_SUMRB_7MOD8: need p = 7 (mod 8), got {p}")
    lhs = tallies(p).sum_rb
    # (p-1)(p+1)/16 is integral for p = 7 (mod 8): 8 | p+1 and 2 | p-1.
    rhs = (p - 1) * (p + 1) // 16
    return LawReport("L7_SUMRB_7MOD8", (("p", p),), lhs, rhs, lhs == rhs)


def _law_l8(p, k) -> LawReport:
    # The bound only concerns proper powers: at k = 1 every p = 3 (mod 4)
    # prime has r_b > (p-1)/4 (that is L2), and r_b(9) = (9-1)/4 exactly,
    # so strictness starts at k = 2 generally and k = 3 for p = 3 (both
    # boundaries confirmed by brute force over every power up to 30000).
    p = _odd_prime(p, "L8_PRIMEPOWER_BOUND")
    _require(p % 4 == 3, f"L8_PRIMEPOWER_BOUND: need p = 3 (mod 4), got {p}")
    least_k = 3 if p == 3 else 2
    _require(
        k >= least_k,
        f"L8_PRIMEPOWER_BOUND: p = {p} needs k >= {least_k}, got k={k}",
    )
    m = p**k
    lhs = tallies(m).r_b
    rhs = Fraction(m - 1, 4)
    return LawReport("L8_PRIMEPOWER_BOUND", (("p", p), ("k", k)), lhs, rhs, lhs < rhs)


def _distinct_odd_primes(p, q, law: str):
    p = _odd_prime(p, law)
    q = _odd_prime(q, law)
    _require(p < q, f"{law}: need p < q, got p={p}, q={q}")
    return p, q


def _law_l9(p, q, m, k) -> LawReport:
    # Strictness has exactly one boundary case below 30000 (confirmed by
    # scanning all 7111 tuples): r_b(15) = 3 = 3*r_b(5).  The smallest
    # semiprime sits outside the law's scope, like 9 does for L8.
    p, q = _distinct_odd_primes(p, q, "L9_PRODUCT_INEQ")
    _require(m >= 1 and k >= 1, f"L9_PRODUCT_INEQ: need m, k >= 1, got m={m}, k={k}")
    _require(
        (p, q, m, k) != (3, 5, 1, 1),
        "L9_PRODUCT_INEQ: modulus 15 attains equality (r_b(15) = 3*r_b(5)) "
        "and is excluded",
    )
    lhs = tallies(p**m * q**k).r_b
    rhs = p * tallies(p ** (m - 1) * q**k).r_b
    return LawReport(
        "L9_PRODUCT_INEQ",
        (("p", p), ("q", q), ("m", m), ("k", k)),
        lhs,
        rhs,
        lhs < rhs,
    )


def _law_l10(a, b) -> LawReport:
    # The mod-8 class triangle: multiplying members of two of {3, 5, 7}
    # lands in the third class.
    ra, rb = a % 8, b % 8
    _require(
        ra in (3, 5, 7) and rb in (3, 5, 7) and ra != rb,
        f"L10_MOD8_TRIANGLE: need distinct classes from {{3, 5, 7}} (mod 8), "
        f"got {a} = {ra} and {b} = {rb}",
    )
    lhs = (a * b) % 8
    (rhs,) = {3, 5, 7} - {ra, rb}
    return LawReport("L10_MOD8_TRIANGLE", (("a", a), ("b", b)), lhs, rhs, lhs == rhs)


def _law_a1(p, k) -> LawReport:
    p = _odd_prime(p, "A1_NH_PRIMEPOWER")
    _require(k >= 2, f"A1_NH_PRIMEPOWER: need k >= 2, got k={k}")
    lhs = tallies(p**k).n_h
    rhs = p * tallies(p ** (k - 1)).n_h
    return LawReport(
        "A1_NH_PRIMEPOWER",
        (("p", p), ("k", k)),
        lhs,
        rhs,
        None,
        rel_error=_rel_error(lhs, rhs),
    )


def _law_a2(p, q, m, k) -> LawReport:
    p, q = _distinct_odd_primes(p, q, "A2_NH_PRODUCT")
    _require(m >= 1 and k >= 1, f"A2_NH_PRODUCT: need m, k >= 1, got m={m}, k={k}")
    lhs = tallies(p**m * q**k).n_h
    rhs = p * tallies(p ** (m - 1) * q**k).n_h
    return LawReport(
        "A2_NH_PRODUCT",
        (("p", p), ("q", q), ("m", m), ("k", k)),
        lhs,
        rhs,
        None,
        rel_error=_rel_error(lhs, rhs),
    )


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


def _law_a3(p, q) -> LawReport:
    # The estimate (r_b(p^2) + r_b(q^2))/4 is report-only, but the bound
    # r_b(pq) < pq/4 is pass/fail.
    p, q = _distinct_odd_primes(p, q, "A3_RB_SEMIPRIME")
    lhs = tallies(p * q).r_b
    rhs = Fraction(_rb_prime_square(p) + _rb_prime_square(q), 4)
    return LawReport(
        "A3_RB_SEMIPRIME",
        (("p", p), ("q", q)),
        lhs,
        rhs,
        4 * lhs < p * q,
        rel_error=_rel_error(lhs, rhs),
    )


_LAWS: dict = {
    "L1_EXACT_4K1": _law_l1,
    "L2_DIRICHLET_POS": _law_l2,
    "L3_LEB_7MOD8_SUMS": _law_l3,
    "L4_LEB_7MOD8_DIFF": _law_l4,
    "L5_LEB_3MOD8_SUMS": _law_l5,
    "L6_LEB_3MOD8_DIFF": _law_l6,
    "L7_SUMRB_7MOD8": _law_l7,
    "L8_PRIMEPOWER_BOUND": _law_l8,
    "L9_PRODUCT_INEQ": _law_l9,
    "L10_MOD8_TRIANGLE": _law_l10,
    "A1_NH_PRIMEPOWER": _law_a1,
    "A2_NH_PRODUCT": _law_a2,
    "A3_RB_SEMIPRIME": _law_a3,
}

LAW_IDS = tuple(_LAWS)
_SHORT_IDS = {law.split("_", 1)[0]: law for law in LAW_IDS}

#: Laws whose `holds` gates a verification run; the others only report.
EXACT_LAW_IDS = tuple(law for law in LAW_IDS if not law.startswith("A"))


def resolve_law_id(law_id: str) -> str:
    key = law_id.upper()
    key = _SHORT_IDS.get(key, key)
    if key not in _LAWS:
        raise ValueError(f"unknown law {law_id!r}; known: {', '.join(LAW_IDS)}")
    return key


def check_law(law_id: str, **params) -> LawReport:
    """Evaluate one law; violated side conditions raise ValueError."""
    return _LAWS[resolve_law_id(law_id)](**params)


def qualifying_params(law_id: str, lo: int, hi: int) -> Iterator[dict]:
    """Parameter tuples whose modulus lies in [lo, hi] and whose side
    conditions hold.  L10's three class pairs ignore the range."""
    law = resolve_law_id(law_id)
    if hi < lo:
        return
    if law == "L10_MOD8_TRIANGLE":
        for a, b in ((3, 5), (3, 7), (5, 7)):
            yield {"a": a, "b": b}
        return
    primes = [p for p in sieve_primes(hi) if p > 2]
    if law in ("L1_EXACT_4K1", "L2_DIRICHLET_POS", "L3_LEB_7MOD8_SUMS",
               "L4_LEB_7MOD8_DIFF", "L5_LEB_3MOD8_SUMS", "L6_LEB_3MOD8_DIFF",
               "L7_SUMRB_7MOD8"):
        mod, cls = {
            "L1_EXACT_4K1": (4, 1),
            "L2_DIRICHLET_POS": (4, 3),
            "L3_LEB_7MOD8_SUMS": (8, 7),
            "L4_LEB_7MOD8_DIFF": (8, 7),
            "L5_LEB_3MOD8_SUMS": (8, 3),
            "L6_LEB_3MOD8_DIFF": (8, 3),
            "L7_SUMRB_7MOD8": (8, 7),
        }[law]
        for p in primes:
            if p >= lo and p % mod == cls:
                yield {"p": p}
    elif law == "L8_PRIMEPOWER_BOUND":
        for p in primes:
            if p % 4 != 3:
                continue
            k = 3 if p == 3 else 2
            while p**k <= hi:
                if p**k >= lo:
                    yield {"p": p, "k": k}
                k += 1
    elif law == "A1_NH_PRIMEPOWER":
        for p in primes:
            k = 2
            while p**k <= hi:
                if p**k >= lo:
                    yield {"p": p, "k": k}
                k += 1
    elif law in ("L9_PRODUCT_INEQ", "A2_NH_PRODUCT"):
        skip_boundary = law == "L9_PRODUCT_INEQ"
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                if p * q > hi:
                    break
                m = 1
                while p**m * q <= hi:
                    k = 1
                    while p**m * q**k <= hi:
                        if p**m * q**k >= lo:
                            params = {"p": p, "q": q, "m": m, "k": k}
                            if not (skip_boundary and (p, q, m, k) == (3, 5, 1, 1)):
                                yield params
                        k += 1
                    m += 1
    elif law == "A3_RB_SEMIPRIME":
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                if p * q > hi:
                    break
                if p * q >= lo:
                    yield {"p": p, "q": q}
    else:  # pragma: no cover - the catalogue above is exhaustive
        raise AssertionError(law)


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
    ces = doc.get("counterexamples")
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
    _abort_after_chunks: Optional[int] = None,
) -> SweepOutcome:
    """Classify every odd n in [lo, hi]; collect the n where verdict and
    oracle disagree, ascending regardless of worker scheduling.

    The range is cut into contiguous chunks consumed by a process pool
    (workers=1 stays in-process); results merge in range order, so
    on_counterexample fires in ascending order too.  With a checkpoint
    path, progress is persisted atomically (temp file + rename) every
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

    t0 = time.perf_counter()
    start = lo
    found: list = []
    if resume and os.path.exists(checkpoint):
        start, prior = _load_checkpoint(checkpoint, mode, lo, hi)
        found = list(prior)

    next_unscanned = start
    since_checkpoint = 0
    merged_chunks = 0

    def merge(bad, chunk_end):
        nonlocal next_unscanned, since_checkpoint, merged_chunks
        for n in bad:
            found.append(n)
            if on_counterexample is not None:
                on_counterexample(n)
        since_checkpoint += (chunk_end + 2 - next_unscanned) // 2
        next_unscanned = chunk_end + 2
        merged_chunks += 1
        if checkpoint and since_checkpoint >= checkpoint_every:
            _write_checkpoint(checkpoint, mode, lo, hi, next_unscanned, found)
            since_checkpoint = 0
        if _abort_after_chunks is not None and merged_chunks >= _abort_after_chunks:
            raise SweepInterrupted(f"aborted after {merged_chunks} chunks")

    chunks = list(_chunk_ranges(start, hi, chunk_size))
    if workers == 1 or len(chunks) <= 1:
        for a, b in chunks:
            merge(_scan_chunk((a, b, mode.value)), b)
    else:
        # Imported here: loading multiprocessing costs every other command.
        from concurrent.futures import ProcessPoolExecutor

        window = workers * 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            inflight = {}
            results = {}
            submitted = 0
            next_merge = 0
            while next_merge < len(chunks):
                while submitted < len(chunks) and len(inflight) < window:
                    a, b = chunks[submitted]
                    inflight[pool.submit(_scan_chunk, (a, b, mode.value))] = submitted
                    submitted += 1
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    results[inflight.pop(fut)] = fut.result()
                while next_merge in results:
                    merge(results.pop(next_merge), chunks[next_merge][1])
                    next_merge += 1

    if checkpoint:
        _write_checkpoint(checkpoint, mode, lo, hi, hi + 2, found)
    return SweepOutcome(
        lo=lo,
        hi=hi,
        mode=mode,
        counterexamples=tuple(found),
        scanned=(hi - lo) // 2 + 1,
        elapsed=time.perf_counter() - t0,
    )
