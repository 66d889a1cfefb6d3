"""Contract parity between the compiled and pure census kernels."""

import functools
import inspect
import pathlib
import random
import re
import tracemalloc
import types

import pytest

from oracle import brute_census, brute_kernel_census
from qrcensus import _purekernel, kernel
from qrcensus.laws import _chunk_ranges
from qrcensus.modmath import factorize


@functools.cache
def _walked(lo, hi):
    """r_b by the pure walk, one modulus at a time."""
    return _purekernel.small_residue_counts(lo, hi)


def test_a_backend_was_selected():
    assert kernel.BACKEND in ("compiled", "pure")
    assert callable(kernel.small_residue_counts)


def test_counts_match_brute_force(backend):
    counts = backend.small_residue_counts(3, 301)
    for n, r_b in zip(range(3, 302, 2), counts):
        assert r_b == brute_census(n)["r_b"], n


def test_tallies_match_brute_force(backend):
    # The prime powers and products of squares check the zero-square roots,
    # which the pure kernel takes from the factorization: the multiples of
    # prod p**ceil(e/2).
    for n in list(range(3, 502, 2)) + [3757, 3**12, 5**8, 7**6, 11**5,
                                       3**4 * 5**3 * 7**2, 9 * 25 * 49 * 121]:
        assert backend.census_tallies(n) == brute_kernel_census(n)[0], n


def test_bitmap_matches_brute_force(backend):
    for n in list(range(3, 502, 2)) + [999]:
        assert backend.residue_bitmap(n) == brute_kernel_census(n)[1], n


def test_crt_counts_match_the_walk():
    # Composites take the CRT over prime-power tables, prime powers the walk.
    # A call keeps a table while a later modulus of its range may use it:
    # one call per sweep chunk of 1 modulus keeps none, of 7 keeps the
    # tables of 3 and 5 for a few moduli, of 2048 wants more tables in its
    # first chunk than hi bits hold and builds the rest per use.  Near 10**6
    # only factors up to 500 have a later multiple in the window.
    ref = _walked(3, 20001)
    assert kernel.small_residue_counts(3, 20001) == ref
    for c in (1, 7, 2048):
        for a, b in _chunk_ranges(3, 20001, c):
            assert kernel.small_residue_counts(a, b) == ref[(a - 3) // 2 : (b - 1) // 2], (a, b)
    assert kernel.small_residue_counts(999001, 1000001) == _walked(999001, 1000001)
    for n in (3**12, 5**8, 9 * 25 * 49, 3 * 5 * 7 * 11 * 13 * 17, 3**5 * 5**3):
        assert kernel.small_residue_counts(n, n) == _purekernel.small_residue_counts(n, n), n


def test_range_counts_keep_tables_within_hi_bits(monkeypatch):
    # The backend's answers are computed up front, so that only the range
    # call's own allocations are traced.  Without the bound, the tables of
    # every prime up to hi/3 are alive at once near n = hi/3: over 300 kB
    # at this hi.  With it, the kept tables take at most hi bits; the rest
    # is their int and dict headers and a few tiled tables of hi/2 bits.
    hi = 20001
    ref = _walked(3, hi)
    bitmaps = {q: _purekernel.residue_bitmap(q) for q in range(3, hi // 3 + 1, 2)
               if len(factorize(q)) == 1}
    stand_in = types.SimpleNamespace(
        residue_bitmap=bitmaps.__getitem__,
        small_residue_counts=lambda a, b: ref[(a - 3) // 2 : (b - 1) // 2],
    )
    monkeypatch.setattr(kernel, "_impl", stand_in)
    tracemalloc.start()
    try:
        counts = kernel.small_residue_counts(3, hi)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == ref
    assert peak - held < hi // 8 + (16 << 10)


def test_range_counts_make_no_nested_kernel_calls(monkeypatch):
    # The benchmark's tracer wraps the kernel's exported names; a range call
    # that went through them would record nested kernel spans.
    def refuse(*args):
        raise AssertionError("called through the exported name")

    monkeypatch.setattr(kernel, "residue_bitmap", refuse)
    monkeypatch.setattr(kernel, "census_tallies", refuse)
    assert kernel.small_residue_counts(3, 301) == _purekernel.small_residue_counts(3, 301)


def test_backends_agree_pairwise():
    impls = [_purekernel]
    try:
        from qrcensus import _speedups
        impls.append(_speedups)
    except ImportError:
        pytest.skip("compiled backend not built")
    a, b = impls
    assert a.small_residue_counts(3, 1001) == b.small_residue_counts(3, 1001)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(3, 5001, 2)
        assert a.census_tallies(n) == b.census_tallies(n), n
        assert a.residue_bitmap(n) == b.residue_bitmap(n), n


def test_compiled_source_keeps_the_pure_contract():
    # The .pyx is compiled only where Cython is installed; read as text, it
    # must still define the pure kernel's public functions and constants.
    pyx = (pathlib.Path(_purekernel.__file__).parent / "_speedups.pyx").read_text()
    compiled = {
        name: [p.split("=")[0].split()[-1] for p in params.split(",") if p.strip()]
        for name, params in re.findall(r"^def (\w+)\(([^)]*)\):", pyx, re.M)
    }
    pure = {
        name: list(inspect.signature(fn).parameters)
        for name, fn in vars(_purekernel).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    }
    assert compiled == pure
    for const in ("BACKEND", "MAX_DENSE_MODULUS"):
        assert re.search(rf"^{const} = ", pyx, re.M), const


def test_range_validation(backend):
    for impl in (backend, kernel):
        with pytest.raises(ValueError):
            impl.small_residue_counts(4, 9)
        with pytest.raises(ValueError):
            impl.small_residue_counts(9, 3)
    with pytest.raises(ValueError):
        backend.census_tallies(22)
    with pytest.raises(ValueError):
        backend.residue_bitmap(1)


def test_census_modulus_guard(backend):
    with pytest.raises(ValueError):
        backend.census_tallies((1 << 31) + 1)
    with pytest.raises(ValueError):
        backend.residue_bitmap((1 << 31) + 1)


def test_range_counts_ceiling_checked_before_allocating(backend, monkeypatch):
    # kernel.small_residue_counts guards every backend; without the check
    # the pure walk allocates a ~1 GB table for this modulus.
    monkeypatch.setattr(kernel, "_impl", backend)
    n = kernel.MAX_DENSE_MODULUS + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n < 2\*\*31"):
            kernel.small_residue_counts(n, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
