"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one PASS/FAIL line
per criterion (pytest's own -v lines mirror them).  The full desk-scale
hypothesis sweep runs here; the 300k long-running mode is gated behind
QRCENSUS_FULL_SWEEP=1.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import load_fixture
from oracle import brute_census, brute_is_prime, brute_kernel_census, brute_zero_square_roots
from qrcensus import kernel
from qrcensus.census import census, tallies
from qrcensus.laws import (
    ThresholdMode,
    check_law,
    qualifying_params,
    rb_prime_power_predicted,
    sweep,
)
from qrcensus.modmath import legendre_euler, sieve_primes
from qrcensus.redundancy import collision_pairs, witness, zero_square_roots
from qrcensus.report import (
    Ordering,
    highlight_set,
    mult_table_grid,
    render_annex2,
)
from test_report import GRID_FIXTURES, parse_grid_fixture

ANNEX1_PAIRS = [
    (16, 9), (20, 15), (23, 2), (25, 10), (30, 5), (32, 18), (37, 12),
    (39, 11), (40, 5), (41, 34), (44, 19), (45, 10), (46, 4), (48, 27),
    (50, 15), (51, 26), (53, 3), (55, 15), (57, 43), (58, 33), (60, 10),
    (62, 13), (64, 36), (65, 5), (66, 59), (67, 17), (69, 6), (71, 29),
    (72, 47), (73, 52), (74, 24), (75, 5), (76, 1), (78, 22), (79, 54),
    (80, 10), (81, 31), (82, 68), (83, 8), (85, 15), (86, 61), (87, 38),
]

SUM_RB_7MOD8 = {7: 3, 23: 33, 31: 60, 47: 138, 71: 315, 79: 390,
                103: 663, 9967: 6208818}

RB_PRIME_POWER = {
    9: 2, 27: 6, 81: 16, 243: 47, 729: 138, 2187: 412, 6561: 1232, 19683: 3693,
    25: 5, 125: 26, 625: 130, 3125: 651, 15625: 3255,
    169: 39, 2197: 510, 28561: 6630,
}

NH_VALUES = {
    7: 2, 49: 14, 343: 97, 2401: 676,
    11: 4, 121: 34, 1331: 363,
    21: 7, 63: 25, 147: 52, 441: 178,
    35: 13, 175: 68, 245: 91, 1225: 494,
    221: 79, 2873: 1081, 3757: 1399,
}

RB_PRODUCTS = {
    21: 4, 63: 9, 147: 22, 441: 45,
    35: 7, 175: 24, 245: 34, 1225: 123,
    221: 31, 2873: 355, 3757: 479,
}


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}  "
          f"({time.perf_counter() - t0:.2f}s)", flush=True)


def test_c01_annex2_golden_reproduction():
    with criterion(1, "annex 2 listing regenerated byte-identically (3..51)"):
        t0 = time.perf_counter()
        doc = render_annex2()
        elapsed = time.perf_counter() - t0
        assert doc == load_fixture("annex2_golden.txt")
        assert len(doc.splitlines()) == 25
        assert tallies(47).r_b == 14
        assert tallies(45).r_b == 6
        assert elapsed < 1.0


def test_c02_annex1_golden_reproduction():
    with criterion(2, "annex 1 collisions for 175: 42 pairs, zero squares, witnesses"):
        t0 = time.perf_counter()
        pairs = collision_pairs(175)
        assert [(p.a, p.b) for p in pairs] == ANNEX1_PAIRS
        assert [p.a for p in pairs] == sorted(p.a for p in pairs)
        assert {z for z in zero_square_roots(175) if z <= 87} == {35, 70}
        for pair in pairs:
            assert witness(pair).modulus_divides
        assert time.perf_counter() - t0 < 1.0


def test_c03_hypothesis_sweep_desk_scale(small_chunks):
    with criterion(3, "corrected sweep 3..50001 finds exactly [9] in < 180s"):
        out = sweep(3, 50001, ThresholdMode.CORRECTED, workers=1)
        assert out.counterexamples == (9,)
        assert out.scanned == 25000
        assert out.elapsed < 180.0
        workers = min(8, os.cpu_count() or 1)
        if workers > 1:
            small_chunks(512)
            par = sweep(3, 50001, ThresholdMode.CORRECTED, workers=workers)
            assert par.counterexamples == (9,)
            print(f"  [backend={kernel.BACKEND}] serial {out.elapsed:.2f}s, "
                  f"{workers} workers {par.elapsed:.2f}s "
                  f"(speedup x{out.elapsed / par.elapsed:.1f}, informational)")


@pytest.mark.skipif(not os.environ.get("QRCENSUS_FULL_SWEEP"),
                    reason="long-running full-range sweep; set QRCENSUS_FULL_SWEEP=1")
def test_c03b_hypothesis_sweep_full_scale():
    with criterion(3, "corrected sweep 3..300001 finds exactly [9] (full range)"):
        out = sweep(3, 300001, ThresholdMode.CORRECTED,
                    workers=min(8, os.cpu_count() or 1))
        assert out.counterexamples == (9,)


def test_c04_literal_threshold_audit():
    with criterion(4, "strict mode disagrees exactly on 4k+1 primes; "
                      "floor mode exactly on brute-confirmed {9, 15, 27}"):
        strict = sweep(3, 10001, ThresholdMode.STRICT_QUARTER)
        want = tuple(p for p in sieve_primes(10001) if p % 4 == 1 and p > 2)
        assert strict.counterexamples == want
        assert len(want) == 609

        floor = sweep(3, 10001, ThresholdMode.FLOOR_GEQ)
        assert floor.counterexamples == (9, 15, 27)
        for n in floor.counterexamples:
            b = brute_census(n)
            assert not brute_is_prime(n)
            assert b["r_b"] >= n // 4  # genuinely predicted prime


def test_c05_exact_laws_all_qualifying_primes():
    with criterion(5, "L1..L7 hold for every qualifying prime < 10000 in < 120s"):
        t0 = time.perf_counter()
        checked = 0
        for law in ("L1_EXACT_4K1", "L2_DIRICHLET_POS", "L3_LEB_7MOD8_SUMS",
                    "L4_LEB_7MOD8_DIFF", "L5_LEB_3MOD8_SUMS",
                    "L6_LEB_3MOD8_DIFF", "L7_SUMRB_7MOD8"):
            for params in qualifying_params(law, 3, 9999):
                assert check_law(law, **params).holds, (law, params)
                checked += 1
        assert checked > 2000
        for p, f in SUM_RB_7MOD8.items():
            rep = check_law("L7_SUMRB_7MOD8", p=p)
            assert rep.lhs == f and rep.rhs == f and rep.holds
        assert time.perf_counter() - t0 < 120.0


def test_c06_recurrence_agreement():
    with criterion(6, "closed recurrence matches census for every prime power "
                      "<= 30000 (p = 1 mod 4 or p = 3)"):
        for n, want in RB_PRIME_POWER.items():
            assert tallies(n).r_b == want, n
        checked = 0
        for p in sieve_primes(30000):
            if p == 2 or (p != 3 and p % 4 != 1):
                continue
            m = 1
            while p**m <= 30000:
                assert rb_prime_power_predicted(p, m) == tallies(p**m).r_b, (p, m)
                checked += 1
                m += 1
        assert checked > 1600
        assert rb_prime_power_predicted(5, 0) == 0


def test_c07_value_table_agreement():
    with criterion(7, "census reproduces every archived N_h and R_b value"):
        for n, want in NH_VALUES.items():
            assert tallies(n).n_h == want, n
        for n, want in RB_PRODUCTS.items():
            assert tallies(n).r_b == want, n


def test_c08_inequality_laws():
    with criterion(8, "L8 and L9 hold for every qualifying tuple <= 30000"):
        l8 = list(qualifying_params("L8_PRIMEPOWER_BOUND", 3, 29999))
        assert {"p": 3, "k": 3} in l8 and {"p": 7, "k": 2} in l8
        for params in l8:
            assert check_law("L8_PRIMEPOWER_BOUND", **params).holds, params
        # boundary behavior (brute-confirmed): equality at 9, and k = 1
        # always exceeds the bound because of L2
        assert tallies(9).r_b == Fraction(9 - 1, 4)
        for p in (7, 11, 19, 23):
            assert tallies(p).r_b > Fraction(p - 1, 4)
        l9 = list(qualifying_params("L9_PRODUCT_INEQ", 3, 29999))
        assert len(l9) == 7110
        for params in l9:
            assert check_law("L9_PRODUCT_INEQ", **params).holds, params
        # the lone boundary (brute-confirmed over all 7111 raw tuples):
        # r_b(15) equals 3*r_b(5) instead of beating it, so 15 is excluded
        assert {"p": 3, "q": 5, "m": 1, "k": 1} not in l9
        assert tallies(15).r_b == 3 == 3 * tallies(5).r_b


def test_c09_strategy_and_oracle_equivalence():
    with criterion(9, "kernel census == brute-force census for odd n <= 10001; "
                      "Euler criterion == set membership for primes < 10000"):
        for n in range(3, 10002, 2):
            want, bitmap = brute_kernel_census(n)
            assert kernel.census_tallies(n) == want, n
            assert kernel.residue_bitmap(n) == bitmap, n
            assert census(n).zero_square_roots == set(brute_zero_square_roots(n)), n
        for p in sieve_primes(9999):
            if p == 2:
                continue
            bitmap = kernel.residue_bitmap(p)
            for a in range(1, p):
                member = bool(bitmap[a >> 3] & (1 << (a & 7)))
                assert legendre_euler(a, p) == (1 if member else -1), (p, a)


def test_c10_table_rendering():
    with criterion(10, "archived grids match cell-for-cell incl. highlights; "
                       "mirror symmetry on 200 random prime tables"):
        import random

        for name, n, ordering, mode in GRID_FIXTURES:
            head, fixture_rows = parse_grid_fixture(name)
            labels, rows, residues, _ = mult_table_grid(n, ordering)
            marks = highlight_set(n, mode, residues)
            assert head == labels
            assert [lab for lab, _ in fixture_rows] == labels
            for (_, fcells), row in zip(fixture_rows, rows):
                assert [v for v, _ in fcells] == row
                assert [s for _, s in fcells] == [v in marks for v in row]

        rng = random.Random(20260810)
        primes = [p for p in sieve_primes(1000) if p > 2]
        for i in range(200):
            p = rng.choice(primes)
            ordering = Ordering.RESIDUES_FIRST if i % 2 else Ordering.NATURAL
            labels, rows, _, _ = mult_table_grid(p, ordering)
            col = {b: j for j, b in enumerate(labels)}
            for row in rows:
                for b in labels:
                    assert row[col[p - b]] == p - row[col[b]], (p, ordering)
            if ordering is Ordering.NATURAL or p % 4 == 3:
                # Reversing the label order complements it in natural order
                # and, residues first, for p = 3 (mod 4), where negation swaps
                # the residue and non-residue blocks; there reversing the
                # columns complements each row visually.
                assert [p - b for b in reversed(labels)] == labels
                for row in rows:
                    assert row[::-1] == [p - v for v in row], (p, ordering)
