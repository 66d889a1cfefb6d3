"""Census kernel backend selection.

The compiled extension is picked when it imports; otherwise the
pure-Python implementation takes over with the same contract.  Set
QRCENSUS_PURE=1 to force the fallback (perfbench/ times the backend a
build yields, layer by layer).
"""

import os

if os.environ.get("QRCENSUS_PURE"):
    from qrcensus import _purekernel as _impl
else:
    try:
        from qrcensus import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        from qrcensus import _purekernel as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND
MAX_DENSE_MODULUS = _impl.MAX_DENSE_MODULUS
mul_mod = _impl.mul_mod
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
    "MAX_DENSE_MODULUS",
    "mul_mod",
    "small_residue_counts",
    "census_tallies",
    "residue_bitmap",
]
