"""Contract parity between the compiled and pure census kernels."""

import inspect
import pathlib
import random
import re
import tracemalloc

import pytest

from oracle import brute_census, brute_kernel_census
from qrcensus import _purekernel, kernel


def test_a_backend_was_selected():
    assert kernel.BACKEND in ("compiled", "pure")
    assert callable(kernel.small_residue_counts)


def test_counts_match_brute_force(backend):
    counts = backend.small_residue_counts(3, 301)
    for n, r_b in zip(range(3, 302, 2), counts):
        assert r_b == brute_census(n)["r_b"], n


def test_tallies_match_brute_force(backend):
    for n in list(range(3, 502, 2)) + [3757]:
        assert backend.census_tallies(n) == brute_kernel_census(n)[0], n


def test_bitmap_matches_brute_force(backend):
    for n in list(range(3, 502, 2)) + [999]:
        assert backend.residue_bitmap(n) == brute_kernel_census(n)[1], n


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
    with pytest.raises(ValueError):
        backend.small_residue_counts(4, 9)
    with pytest.raises(ValueError):
        backend.small_residue_counts(9, 3)
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
