"""Census kernel backend selection.

The compiled extension runs exactly when it imports, that is when
setup.py found Cython at build time; otherwise the pure-Python
implementation takes over with the same contract, held to the brute
force in tests/oracle.py.  FALLBACK_REASON keeps the ImportError text
that forced the fallback (None for compiled), and `qrcensus --version`
prints both.
"""

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


def small_residue_counts(lo, hi):
    """r_b(n) for every odd n in [lo, hi], by the backend's walk.

    The census ceiling is checked here, for both backends, before either
    allocates its per-modulus table.
    """
    if hi >= MAX_DENSE_MODULUS:
        raise ValueError(f"dense census supports n < 2**31, got {hi}")
    return _impl.small_residue_counts(lo, hi)


__all__ = [
    "BACKEND",
    "FALLBACK_REASON",
    "MAX_DENSE_MODULUS",
    "small_residue_counts",
    "census_tallies",
    "residue_bitmap",
]
