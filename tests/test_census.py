import random
import sys

import pytest

from oracle import brute_census, brute_smallest_root, brute_zero_square_roots
from qrcensus import kernel
from qrcensus.census import (
    CensusTallies,
    census,
    n_h,
    quadratic_residue_set,
    residue_details,
    small_residue_count,
    smallest_sqrt,
    tallies,
)
from qrcensus.modmath import sieve_primes


class TestResidueSet:
    def test_pinned_sets(self):
        assert quadratic_residue_set(7) == {1, 2, 4}
        assert quadratic_residue_set(5) == {1, 4}
        assert quadratic_residue_set(9) == {1, 4, 7}

    def test_non_unit_residues_counted(self):
        # 6 = 6**2 mod 15 even though gcd(6, 15) = 3
        assert 6 in quadratic_residue_set(15)

    def test_matches_brute_force(self):
        for n in range(3, 502, 2):
            assert quadratic_residue_set(n) == brute_census(n)["residues"], n

    def test_last_table_byte_without_residues(self):
        # The residue table's last byte is zero here, so its bits stop
        # short of n: the largest residues are 7 mod 9, 30 mod 35, 85 mod 95
        # and 100 mod 105.
        for n, top in ((9, 7), (35, 30), (95, 85), (105, 100)):
            assert kernel.residue_bitmap(n)[-1] == 0, n
            assert quadratic_residue_set(n) == brute_census(n)["residues"], n
            assert max(quadratic_residue_set(n)) == top, n

    def test_half_range_is_enough(self):
        # x and n-x share a square, so [1, (n-1)/2] already covers everything
        for n in range(3, 302, 2):
            full = {x * x % n for x in range(1, n)} - {0}
            assert quadratic_residue_set(n) == full, n


class TestCensusRecord:
    def test_pinned_counts(self):
        assert census(35).r_b == 7
        assert census(47).r_b == 14
        c23 = census(23)
        assert (c23.sum_rb, c23.sum_nb) == (33, 33)
        c11 = census(11)
        assert (c11.sum_r, c11.sum_n) == (22, 33)

    def test_pinned_4k3_prime_power_counts(self):
        # powers of 7 and 11: no exact recurrence exists for these, so the
        # values are pinned directly
        for n, want in {7: 2, 49: 11, 343: 76, 2401: 526, 16807: 3678,
                        11: 4, 121: 29, 1331: 308, 14641: 3358}.items():
            assert tallies(n).r_b == want, n

    def test_matches_brute_force(self):
        sample = list(range(3, 402, 2)) + [175, 1225, 2873, 3757]
        for n in sample:
            c = census(n)
            want = brute_census(n)
            for field in ("r_b", "n_b", "r_h", "n_h", "sum_r", "sum_n",
                          "sum_rb", "sum_nb", "sum_rh", "sum_nh"):
                assert getattr(c, field) == want[field], (n, field)
            assert c.residues == want["residues"]
            assert c.zero_square_roots == want["zero_square_roots"]

    def test_zero_square_roots_match_brute_force(self):
        # The roots come from the factorization: the multiples of
        # prod p**ceil(e/2).  Prime powers and products of squares put many
        # of them in the small half; test_c09 covers every odd n <= 10001.
        for n in (3**12, 5**8, 7**6, 11**5, 3**4 * 5**3 * 7**2, 9 * 25 * 49 * 121):
            assert census(n).zero_square_roots == set(brute_zero_square_roots(n)), n

    def test_tallies_are_the_kernel_counts_without_factoring(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"tallies factored {n}")

        census_module = sys.modules["qrcensus.census"]
        monkeypatch.setattr(census_module, "factorize", refuse)
        monkeypatch.setattr(kernel, "factorize", refuse)
        census_module._tallies.cache_clear()
        assert CensusTallies._fields == (
            "r_b", "n_b", "r_h", "n_h", "sum_r", "sum_n",
            "sum_rb", "sum_nb", "sum_rh", "sum_nh",
        )
        for n in (3, 9, 175, 3**7, 1225, 2873, 3757, 9973, 3**4 * 5**3 * 7**2):
            got = tallies(n)
            assert type(got) is CensusTallies
            assert tuple(got) == kernel.census_tallies(n), n

    def test_internal_consistency(self):
        rng = random.Random(5)
        for n in [rng.randrange(3, 20_001, 2) for _ in range(60)]:
            c = census(n)
            half = (n - 1) // 2
            assert c.r_b + c.n_b == half
            assert c.r_b + c.r_h == len(c.residues)
            assert c.sum_rb + c.sum_rh == c.sum_r
            assert c.sum_nb + c.sum_nh == c.sum_n
            assert c.sum_r + c.sum_n == n * (n - 1) // 2
            assert 0 not in c.residues

    def test_details(self):
        c = census(11, want_details=True)
        assert [(d.y, d.smallest_root) for d in c.details] == [
            (1, 1), (3, 5), (4, 2), (5, 4), (9, 3)
        ]
        assert census(11).details is None

    def test_detailed_census_walks_n_once(self, monkeypatch):
        # The residue set comes from the details' walk, not from a second
        # walk through the kernel's table.
        moduli = (9, 35, 175, 2187, 9973)
        plain = {n: census(n) for n in moduli}

        def refuse(n):
            raise AssertionError(f"walked {n} again for its residue set")

        monkeypatch.setattr(kernel, "residue_bitmap", refuse)
        for n in moduli:
            c = census(n, want_details=True)
            assert c.residues == brute_census(n)["residues"], n
            assert c._replace(details=None) == plain[n], n
            least = {}
            for x in range(n - 1, 0, -1):
                least[x * x % n] = x
            assert c.details == tuple((y, least[y]) for y in sorted(c.residues)), n


class TestPrimeSymmetries:
    def test_negation_symmetry(self):
        for p in sieve_primes(2000):
            if p < 3:
                continue
            residues = quadratic_residue_set(p)
            if p % 4 == 1:
                assert all((p - y) in residues for y in residues)
            else:
                assert all((p - y) not in residues for y in residues)

    def test_multiplicativity(self):
        for p in sieve_primes(500):
            if p < 3:
                continue
            residues = quadratic_residue_set(p)
            is_res = bytearray(p)
            for y in residues:
                is_res[y] = 1
            for x in range(1, p):
                for y in range(x, p):
                    prod_res = is_res[x * y % p]
                    same_class = is_res[x] == is_res[y]
                    assert bool(prod_res) == same_class, (p, x, y)

    def test_small_half_partition(self):
        for p in sieve_primes(1000):
            if p < 3:
                continue
            t = tallies(p)
            assert t.r_b + t.n_b == (p - 1) // 2


def test_four_is_always_a_small_residue():
    for n in range(9, 2001, 2):
        t = tallies(n)
        assert 4 in quadratic_residue_set(n)
        assert 4 <= (n - 1) // 2


class TestSmallestSqrt:
    def test_pinned_roots(self):
        assert smallest_sqrt(3, 11) == 5
        assert smallest_sqrt(25, 51) == 5
        assert smallest_sqrt(2, 7) == 3
        for n in (3, 9, 35, 101):
            assert smallest_sqrt(1, n) == 1

    def test_least_root_of_4_mod_33_is_2(self):
        # the archived annex listing prints 13 here; the math says 2
        assert smallest_sqrt(4, 33) == 2

    def test_nonresidue_gives_none(self):
        assert smallest_sqrt(2, 11) is None
        assert smallest_sqrt(5, 9) is None

    def test_always_in_small_half(self):
        for n in range(3, 302, 2):
            for y in range(1, n):
                root = smallest_sqrt(y, n)
                assert root == brute_smallest_root(y, n)
                if root is not None:
                    assert root <= (n - 1) // 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            smallest_sqrt(0, 11)
        with pytest.raises(ValueError):
            smallest_sqrt(11, 11)

    def test_refuses_modulus_above_census_ceiling(self):
        # 4 has the root 2 at any modulus, so a missing check fails here
        # at once instead of walking 2**60 steps in the call below.
        with pytest.raises(ValueError, match=r"n < 2\*\*31"):
            smallest_sqrt(4, kernel.MAX_DENSE_MODULUS + 1)
        with pytest.raises(ValueError, match=r"n < 2\*\*31"):
            smallest_sqrt(3, 2**61 + 1)


class TestDetailsAndCounts:
    def test_residue_details_cover_all_residues(self):
        for n in (21, 45, 175):
            det = residue_details(n)
            assert [d.y for d in det] == sorted(quadratic_residue_set(n))
            for d in det:
                assert d.smallest_root * d.smallest_root % n == d.y
                assert d.smallest_root == brute_smallest_root(d.y, n)

    def test_n_h_pinned(self):
        assert n_h(7) == 2
        assert n_h(1331) == 363
        assert n_h(21) == 7

    def test_small_residue_count(self):
        assert small_residue_count(35) == 7
        assert small_residue_count(47) == 14
