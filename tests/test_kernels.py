"""Contract parity between the compiled and pure census kernels."""

import functools
import hashlib
import inspect
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import types

import pytest

from oracle import brute_census, brute_kernel_census, walk_values
from qrcensus import _purekernel, kernel
from qrcensus.laws import _chunk_ranges
from qrcensus.modmath import factorize


@functools.cache
def _walked(lo, hi):
    """r_b by the selected backend's walk, one modulus at a time."""
    return kernel._impl.small_residue_counts(lo, hi)


def test_a_backend_was_selected():
    assert kernel.BACKEND in ("compiled", "pure")
    assert callable(kernel.small_residue_counts)


def test_counts_match_brute_force(backend):
    counts = backend.small_residue_counts(3, 301)
    for n, r_b in zip(range(3, 302, 2), counts):
        assert r_b == brute_census(n)["r_b"], n


def test_tallies_match_brute_force(backend, monkeypatch):
    # The prime powers and products of squares walk through many squares
    # that are 0 mod n, which the walk stores and then clears.  The backend
    # returns the walk's four values; kernel.census_tallies derives all ten.
    monkeypatch.setattr(kernel, "_impl", backend)
    for n in list(range(3, 502, 2)) + [3757, 3**12, 5**8, 7**6, 11**5,
                                       3**4 * 5**3 * 7**2, 9 * 25 * 49 * 121]:
        want = brute_kernel_census(n)[0]
        assert backend.census_tallies(n) == walk_values(want), n
        assert kernel.census_tallies(n) == want, n


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
    # test_backends_agree_pairwise holds the selected backend's walk to the
    # pure one; one short window here checks the CRT against the pure walk.
    assert kernel.small_residue_counts(999001, 999041) == _purekernel.small_residue_counts(
        999001, 999041)
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


# Windows at the edges of the range's prime sieve, which holds the odd primes
# up to isqrt(hi), each filed at its first odd multiple of at least
# max(lo, p*p): lo = hi on a prime, on p*p with p = isqrt(hi), and on p*q
# with 97 <= isqrt(9991) = 99 < 103; a window far above isqrt(hi); and one
# whose first modulus, 35 = 5 * 7, is a multiple of 7 below 7 * 7.
@pytest.mark.parametrize("lo, hi", [
    (10007, 10007), (101 * 101, 101 * 101), (97 * 103, 97 * 103), (1001, 1201), (35, 99),
])
def test_range_counts_at_the_sieve_edges(backend, monkeypatch, lo, hi):
    monkeypatch.setattr(kernel, "_impl", backend)
    assert kernel.small_residue_counts(lo, hi) == [
        brute_census(n)["r_b"] for n in range(lo, hi + 1, 2)]


def test_range_counts_walk_only_prime_powers(monkeypatch):
    # A prime the sieve failed to pop would stay in the cofactor of n, and
    # the CRT would still count right over that composite's table, or the
    # walk of n itself, at the cost of a longer walk.  So every table and
    # every walk of a range must be of a prime power.  Tables of all ones
    # skip the walks; the other tests hold the counts.
    walked = []
    stand_in = types.SimpleNamespace(
        residue_bitmap=lambda q: walked.append(q) or b"\xff" * ((q >> 3) + 1),
        small_residue_counts=lambda a, b: walked.append(a) or [0],
    )
    monkeypatch.setattr(kernel, "_impl", stand_in)
    for lo, hi in ((3, 20001), (35, 99), (1001, 1201), (999001, 1003001)):
        walked.clear()
        kernel.small_residue_counts(lo, hi)
        assert [q for q in walked if len(factorize(q)) > 1] == [], (lo, hi)


# sha256 of the comma-separated r_b of the odd n in [999001, 1003001], from
# the compiled backend's walk, one modulus at a time.
_NEAR_A_MILLION = "68d0b156049a2b2db251ced8a98c865a1f4f7594aa54f07e8e1bad78fef293be"


def _digest(counts):
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()


def test_range_counts_near_a_million(backend, monkeypatch):
    # A sweep chunk near 10**6: the sieve holds the odd primes up to 1001,
    # and every composite takes the CRT over the backend's tables.  Where
    # the compiled backend is built, the digest is held to its walk too.
    lo, hi = 999001, 1003001
    monkeypatch.setattr(kernel, "_impl", backend)
    assert _digest(kernel.small_residue_counts(lo, hi)) == _NEAR_A_MILLION
    if backend.BACKEND == "compiled":
        assert _digest(_walked(lo, hi)) == _NEAR_A_MILLION


def test_range_counts_keep_tables_within_hi_bits_at_a_high_window(monkeypatch):
    # Far from 3, the tiling of each table to (n+1)/2 bits outweighs the
    # kept tables: at its last doubling the table, its shifted copy and
    # their union (below 1, 2 and 2 times (n+1)/2 bits) live beside `both`
    # ((n+1)/2 bits), 3 hi bits, and the kept tables take at most hi bits
    # more.  The rest is headers and the sieve, one entry per odd prime up
    # to isqrt(hi).  Tables of all ones keep every table's size without a
    # walk; this test holds the memory, the others the counts.
    lo, hi = 10**6 + 1, 10**6 + 20001
    stand_in = types.SimpleNamespace(
        residue_bitmap=lambda q: b"\xff" * ((q >> 3) + 1),
        small_residue_counts=lambda a, b: [0],
    )
    monkeypatch.setattr(kernel, "_impl", stand_in)
    tracemalloc.start()
    try:
        counts = kernel.small_residue_counts(lo, hi)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == (hi - lo) // 2 + 1
    assert peak - held < hi // 2 + (32 << 10)


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
    # The C file is compiled only where a C compiler works; read as text, its
    # method table must still list the pure kernel's public functions, each
    # with the pure parameters in its docstring signature, and its module
    # must add the pure kernel's constants.
    src = (pathlib.Path(_purekernel.__file__).parent / "_speedups.c").read_text()
    table = re.findall(r'^    \{"(\w+)", ', src, re.M)
    compiled = {
        name: [p.strip() for p in params.split(",")]
        for name, params in re.findall(r'^     "(\w+)\(([^)]*)\)\\n--', src, re.M)
    }
    pure = {
        name: list(inspect.signature(fn).parameters)
        for name, fn in vars(_purekernel).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    }
    assert sorted(table) == sorted(compiled) and compiled == pure
    for const in ("BACKEND", "MAX_DENSE_MODULUS"):
        assert re.search(rf'\(m, "{const}", ', src), const
        assert hasattr(_purekernel, const), const
    assert "#define MAX_DENSE_MODULUS (1LL << 31)" in src
    assert _purekernel.MAX_DENSE_MODULUS == 1 << 31


_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Run in the built copy: the compiled module against the brute force.
_BUILT_MATCHES_ORACLE = """
from oracle import brute_kernel_census, walk_values
from qrcensus import _speedups, kernel
assert kernel.BACKEND == "compiled", kernel.FALLBACK_REASON
want = [brute_kernel_census(n) for n in range(3, 502, 2)]
assert _speedups.small_residue_counts(3, 501) == [t[0] for t, _ in want]
for n, (tallies, bitmap) in zip(range(3, 502, 2), want):
    assert _speedups.census_tallies(n) == walk_values(tallies), n
    assert kernel.census_tallies(n) == tallies, n
    assert _speedups.residue_bitmap(n) == bitmap, n
"""


@pytest.mark.skipif(shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) is None,
                    reason="no C compiler")
@pytest.mark.parametrize("cc", [None, "false"], ids=["system-cc", "no-cc"])
def test_build_with_and_without_a_c_compiler(tmp_path, cc):
    # A build of a copy of the sources compiles the kernel; without a C
    # compiler it still succeeds, and the package runs pure.
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(_ROOT / name, tmp_path)
    shutil.copytree(_ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path / "src"), str(_ROOT / "tests")]))
    env.pop("CC", None)
    if cc:
        env["CC"] = cc
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    package = tmp_path / "src" / "qrcensus"
    if cc:
        assert {p.name for p in package.glob("_speedups*")} == {"_speedups.c"}
        out = subprocess.run([sys.executable, "-m", "qrcensus", "--version"], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert "kernel: pure" in out
    else:
        subprocess.run([sys.executable, "-c", _BUILT_MATCHES_ORACLE], env=env, check=True)


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
    # kernel.small_residue_counts and each backend's own check the ceiling
    # first.  Without the check the pure walk allocates a 2 GB table for
    # this modulus, and the compiled one a 256 MB table (PyMem_Malloc, which
    # tracemalloc sees) before it walks 10**9 steps.
    monkeypatch.setattr(kernel, "_impl", backend)
    n = kernel.MAX_DENSE_MODULUS + 1
    for impl in (kernel, backend):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n < 2\*\*31"):
                impl.small_residue_counts(n, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, impl
