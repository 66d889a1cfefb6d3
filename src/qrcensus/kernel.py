"""Census kernel backend selection, and the range counts built on it.

The compiled extension runs exactly when it imports, that is when
setup.py found Cython at build time; otherwise the pure-Python
implementation takes over with the same contract, held to the brute
force in tests/oracle.py.  FALLBACK_REASON keeps the ImportError text
that forced the fallback (None for compiled), and `qrcensus --version`
prints both.

small_residue_counts walks only primes and proper prime powers.  By the
CRT, y is a square mod n (0 included) exactly when y mod q is a square mod
q for every prime power q exactly dividing n, so a composite's r_b is the
count of y in [1, (n-1)/2] that pass the square table of each such q.  The
tables come from the backend's residue_bitmap, so every walk is the
backend's own; one call walks each table once while it keeps it, and it
keeps at most hi bits of tables.  It calls the backend through _impl,
never through the names exported below: a profiler that wraps those names
(as perfbench/tracer.py does) then sees one kernel call per range.
"""

from qrcensus.modmath import factorize

try:
    import qrcensus._speedups as _impl

    FALLBACK_REASON = None
except ImportError as exc:
    from qrcensus import _purekernel as _impl  # type: ignore[no-redef]

    FALLBACK_REASON = str(exc)

BACKEND = _impl.BACKEND
MAX_DENSE_MODULUS = _impl.MAX_DENSE_MODULUS
census_tallies = _impl.census_tallies
residue_bitmap = _impl.residue_bitmap


def _squares(q):
    """The squares mod q, 0 included, as the bits of one int: bit y is set
    iff y in [0, q) is a square mod q."""
    return int.from_bytes(_impl.residue_bitmap(q), "little") | 1


def small_residue_counts(lo, hi):
    """r_b(n) for every odd n in [lo, hi]: the backend's walk for primes
    and proper prime powers, the CRT over prime-power tables otherwise.

    The census ceiling is checked here, for both backends, before either
    allocates its per-modulus table.  A prime-power table is built once
    per call and kept while a later modulus of the range can still use
    it: a factor q of n while n + 2q <= hi, a walked prime power n while
    3n <= hi (its count then comes from its own table).  The kept tables
    are bit-packed and hold at most hi bits together; a table that does
    not fit serves its modulus and is dropped.
    """
    if hi >= MAX_DENSE_MODULUS:
        raise ValueError(f"dense census supports n < 2**31, got {hi}")
    if lo % 2 == 0 or hi % 2 == 0 or not 3 <= lo <= hi:
        raise ValueError(f"need odd 3 <= lo <= hi, got [{lo}, {hi}]")
    counts = []
    tables = {}  # q -> _squares(q)
    room = hi  # bits the kept tables may still take
    for n in range(lo, hi + 1, 2):
        width = (n + 1) >> 1  # y in [0, (n-1)/2]
        factors = factorize(n)
        if len(factors) == 1:
            if 3 * n <= hi and n <= room:
                table = _squares(n)
                counts.append((table & ((1 << width) - 1)).bit_count() - 1)
                tables[n] = table
                room -= n
            else:
                counts.append(_impl.small_residue_counts(n, n)[0])
            continue
        both = (1 << width) - 1
        for p, e in factors.items():
            q = p**e
            table = tables.get(q)
            if table is None:
                table = _squares(q)
                if n + 2 * q <= hi and q <= room:
                    tables[q] = table
                    room -= q
            elif n + 2 * q > hi:
                del tables[q]
                room += q
            span = q
            while span < width:
                table |= table << span
                span <<= 1
            both &= table
        counts.append(both.bit_count() - 1)  # y = 0 is always a square
    return counts


__all__ = [
    "BACKEND",
    "FALLBACK_REASON",
    "MAX_DENSE_MODULUS",
    "small_residue_counts",
    "census_tallies",
    "residue_bitmap",
]
