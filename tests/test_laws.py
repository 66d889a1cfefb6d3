import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from oracle import brute_census
from qrcensus import laws
from qrcensus.census import tallies
from qrcensus.laws import (
    LAW_IDS,
    EXACT_LAW_IDS,
    ThresholdMode,
    check_law,
    classify,
    predicted_prime,
    qualifying_params,
    rb_prime_power_predicted,
    resolve_law_id,
)


class TestClassify:
    def test_strict_matches_oracle_on_47(self):
        c = classify(47, ThresholdMode.STRICT_QUARTER)
        assert c.predicted_prime and c.oracle_prime and c.agree

    def test_strict_fails_on_4k1_primes(self):
        # r_b(5) = 1 and 4 < 5, so the strict quarter misses the prime 5
        c = classify(5, ThresholdMode.STRICT_QUARTER)
        assert not c.predicted_prime and c.oracle_prime and not c.agree

    def test_corrected_anomaly_at_9(self):
        c = classify(9, ThresholdMode.CORRECTED)
        assert c.r_b == 2
        assert c.predicted_prime and not c.oracle_prime and not c.agree

    @pytest.mark.parametrize("mode", list(ThresholdMode))
    def test_35_is_composite_in_every_mode(self, mode):
        c = classify(35, mode)
        assert not c.predicted_prime and not c.oracle_prime and c.agree

    def test_verdict_is_function_of_rb_and_n(self):
        for n in (9, 35, 47, 101, 121):
            c = classify(n)
            assert c.predicted_prime == predicted_prime(n, c.r_b, c.mode)
            assert c.predicted_prime == predicted_prime(n, tallies(n).r_b, c.mode)


class TestLawCatalogue:
    def test_resolve_ids(self):
        assert resolve_law_id("l7") == "L7_SUMRB_7MOD8"
        assert resolve_law_id("L7_SUMRB_7MOD8") == "L7_SUMRB_7MOD8"
        with pytest.raises(ValueError):
            resolve_law_id("L99")

    def test_l1_pinned(self):
        rep = check_law("L1", p=13)
        assert (rep.lhs, rep.rhs, rep.holds) == (3, 3, True)

    def test_l2_positive(self):
        rep = check_law("L2", p=7)
        assert rep.lhs == 1 and rep.holds

    def test_l4_pinned_at_7(self):
        # residues of 7: {1,2,4}; sums: R=7, N=14; (14-7)/7 = 1 = 2-1
        rep = check_law("L4", p=7)
        assert rep.lhs == 1 and rep.rhs == 1 and rep.holds
        assert dict(rep.notes)["difference_divisible_by_p"] is True

    def test_l5_orientation(self):
        # residues of 11: {1,3,4,5,9}; N-R = 33-22 = 11 = 13-2 = Rb-Nb
        rep = check_law("L5", p=11)
        assert rep.lhs == 11 and rep.rhs == 11 and rep.holds
        assert dict(rep.notes)["reversed_orientation_holds"] is False

    def test_l6_pinned_at_11(self):
        rep = check_law("L6", p=11)
        assert rep.lhs == 3 and rep.rhs == 3 and rep.holds

    def test_l7_known_values(self):
        for p, f in [(7, 3), (23, 33), (31, 60), (47, 138), (71, 315),
                     (79, 390), (103, 663), (9967, 6208818)]:
            rep = check_law("L7", p=p)
            assert rep.lhs == f and rep.rhs == f and rep.holds, p

    def test_l8_pinned(self):
        assert check_law("L8", p=3, k=3).holds  # r_b(27) = 6 < 6.5
        rep = check_law("L8", p=7, k=2)  # r_b(49) = 11 < 12
        assert rep.lhs == 11 and rep.rhs == Fraction(48, 4) and rep.holds

    def test_l8_boundary_side_conditions(self):
        # k = 1 can never qualify: L2 says r_b(p) > (p-1)/4 there, and
        # r_b(9) = (9-1)/4 exactly, so p = 3 additionally needs k >= 3
        with pytest.raises(ValueError):
            check_law("L8", p=7, k=1)
        with pytest.raises(ValueError):
            check_law("L8", p=3, k=2)
        with pytest.raises(ValueError):
            check_law("L8", p=3, k=1)
        with pytest.raises(ValueError):
            check_law("L8", p=5, k=2)  # 5 = 1 (mod 4)

    def test_l9_pinned(self):
        # r_b(63) = 9 < 3 * r_b(21) = 12
        rep = check_law("L9", p=3, q=7, m=2, k=1)
        assert rep.lhs == 9 and rep.rhs == 12 and rep.holds

    def test_l9_boundary_equality_excluded(self):
        # r_b(15) = 3 = 3*r_b(5): the one equality among all tuples <= 30000
        with pytest.raises(ValueError, match="15"):
            check_law("L9", p=3, q=5, m=1, k=1)
        assert tallies(15).r_b == 3 == 3 * tallies(5).r_b
        assert check_law("L9", p=3, q=5, m=1, k=2).holds  # 75 is back in scope
        assert check_law("L9", p=3, q=5, m=2, k=1).holds  # 45 too

    def test_l10_triangle(self):
        assert check_law("L10", a=3, b=7).lhs == 5
        assert check_law("L10", a=3, b=5).lhs == 7
        assert check_law("L10", a=5, b=7).lhs == 3
        assert check_law("L10", a=11, b=23).lhs == 5  # 11=3, 23=7 (mod 8)
        for rep in (check_law("L10", a=3, b=7),):
            assert rep.holds
        with pytest.raises(ValueError):
            check_law("L10", a=3, b=11)  # same class twice
        with pytest.raises(ValueError):
            check_law("L10", a=1, b=3)

    def test_a1_reports_only(self):
        rep = check_law("A1", p=7, k=2)
        assert rep.holds is None
        assert rep.lhs == 14 and rep.rhs == 14 and rep.rel_error == 0

    def test_a2_reports_only(self):
        # n_h(3**2 * 7) = 25 vs 3 * n_h(3 * 7) = 21
        rep = check_law("A2", p=3, q=7, m=2, k=1)
        assert rep.holds is None
        assert rep.lhs == 25 and rep.rhs == 21
        assert rep.rel_error == Fraction(4, 21)

    def test_a3_pinned_at_5_7(self):
        rep = check_law("A3", p=5, q=7)
        assert rep.lhs == 7
        assert rep.rhs == Fraction(5 + 11, 4)
        assert rep.holds  # 4*7 < 35
        assert rep.rel_error == Fraction(3, 4)

    def test_a3_quarter_bound_over_range(self):
        # the pass/fail part of A3: r_b(pq) < pq/4 for every semiprime
        for params in qualifying_params("A3", 3, 2001):
            assert check_law("A3", **params).holds, params

    def test_4k1_primes_have_balanced_small_halves(self):
        # complement of L2: for p = 1 (mod 4) small residues and small
        # non-residues tie exactly
        from qrcensus.modmath import sieve_primes

        for p in sieve_primes(10_000):
            if p > 2 and p % 4 == 1:
                t = tallies(p)
                assert t.r_b == t.n_b == (p - 1) // 4, p

    def test_side_condition_violations_raise(self):
        with pytest.raises(ValueError):
            check_law("L1", p=7)  # 7 = 3 (mod 4)
        with pytest.raises(ValueError):
            check_law("L3", p=11)  # 11 = 3 (mod 8)
        with pytest.raises(ValueError):
            check_law("L7", p=15)  # composite
        with pytest.raises(ValueError):
            check_law("L9", p=7, q=5, m=1, k=1)  # needs p < q
        with pytest.raises(ValueError):
            check_law("A3", p=7, q=7)

    @pytest.mark.parametrize("law, params, text", [
        ("L8", dict(p=9, k=2), "L8_PRIMEPOWER_BOUND: 9 is not prime"),
        ("L8", dict(p=7, k=0), "L8_PRIMEPOWER_BOUND: need k >= 1, got k=0"),
        ("L9", dict(p=7, q=5, m=1, k=1), "L9_PRODUCT_INEQ: need p < q, got p=7, q=5"),
        ("L9", dict(p=3, q=7, m=0, k=1), "L9_PRODUCT_INEQ: need m, k >= 1, got m=0, k=1"),
        ("L8", dict(p=5, k=2), "L8_PRIMEPOWER_BOUND: need p = 3 (mod 4) and k >= 2 "
                               "(k >= 3 for p = 3), got p=5, k=2"),
    ])
    def test_error_texts(self, law, params, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            check_law(law, **params)

    def test_exact_laws_listed(self):
        assert set(EXACT_LAW_IDS) == {law for law in LAW_IDS if law.startswith("L")}


def _odd_primes_below(bound):
    from qrcensus.modmath import sieve_primes

    return [p for p in sieve_primes(bound - 1) if p > 2]


class TestPrimeSquareIdentity:
    """A3's estimate uses r_b(p**2) = ((p-1)/2)**2 + r_b(p)."""

    def test_matches_brute_force(self):
        for p in _odd_primes_below(60):
            assert laws._rb_prime_square(p) == brute_census(p * p)["r_b"], p

    def test_matches_census_of_square(self, backend):
        for p in _odd_primes_below(400):
            r_b_p = backend.census_tallies(p)[0]
            r_b_square = backend.census_tallies(p * p)[0]
            assert ((p - 1) // 2) ** 2 + r_b_p == r_b_square, p
            assert laws._rb_prime_square(p) == r_b_square, p

    def test_range_bounds_every_censused_modulus(self, monkeypatch):
        seen = []
        real = laws.tallies

        def recording(n, *args, **kwargs):
            seen.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(laws, "tallies", recording)
        for law in LAW_IDS:
            for params in qualifying_params(law, 3, 1001):
                check_law(law, **params)
        assert seen and max(seen) <= 1001


class TestQualifyingParams:
    def test_l7_enumeration(self):
        ps = [d["p"] for d in qualifying_params("L7", 3, 103)]
        assert ps == [7, 23, 31, 47, 71, 79, 103]

    def test_l8_enumeration_respects_boundaries(self):
        tuples = list(qualifying_params("L8", 3, 400))
        assert {"p": 3, "k": 3} in tuples
        assert {"p": 7, "k": 2} in tuples
        assert {"p": 19, "k": 2} in tuples
        assert all(d["k"] >= (3 if d["p"] == 3 else 2) for d in tuples)

    def test_l9_enumeration_in_range(self):
        tuples = list(qualifying_params("L9", 3, 200))
        assert {"p": 3, "q": 7, "m": 1, "k": 1} in tuples
        assert {"p": 3, "q": 7, "m": 2, "k": 1} in tuples  # 63
        for d in tuples:
            assert 3 <= d["p"] ** d["m"] * d["q"] ** d["k"] <= 200
            assert d["p"] < d["q"]

    def test_l10_enumeration_is_fixed(self):
        assert list(qualifying_params("L10", 3, 9)) == [
            {"a": 3, "b": 5}, {"a": 3, "b": 7}, {"a": 5, "b": 7}
        ]

    def test_catalogue_counts_pinned(self):
        # tuple counts per law over [3, 3001]; each one must also validate
        want = {
            "L1_EXACT_4K1": 212, "L2_DIRICHLET_POS": 218,
            "L3_LEB_7MOD8_SUMS": 109, "L4_LEB_7MOD8_DIFF": 109,
            "L5_LEB_3MOD8_SUMS": 109, "L6_LEB_3MOD8_DIFF": 109,
            "L7_SUMRB_7MOD8": 109, "L8_PRIMEPOWER_BOUND": 15,
            "L9_PRODUCT_INEQ": 777, "L10_MOD8_TRIANGLE": 3,
            "A1_NH_PRIMEPOWER": 26, "A2_NH_PRODUCT": 778,
            "A3_RB_SEMIPRIME": 587,
        }
        assert tuple(want) == LAW_IDS
        for law in LAW_IDS:
            tuples = list(qualifying_params(law, 3, 3001))
            assert len(tuples) == want[law], law
            for params in tuples:
                check_law(law, **params)  # must not raise

    def test_range_above_census_ceiling_rejected_before_any_tuple(self):
        for law in LAW_IDS:
            if law == "L10_MOD8_TRIANGLE":  # censuses nothing
                continue
            with pytest.raises(ValueError, match=law):
                next(qualifying_params(law, 3, laws.kernel.MAX_DENSE_MODULUS))

    def test_a3_window_enumerates_within_400_mb(self):
        # 2000000001 = 3 * 666666667: the partner prime comes from a window
        # of q, not from a sieve of every integer up to hi // 3.  The prime
        # powers of L8 and A1 come from the primes up to isqrt(hi) and a
        # window of primes p = p**1; the products of L9 and A2 from a window
        # of q**k for each p**m.
        pytest.importorskip("resource")
        code = (
            "import json, resource; "
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)); "
            "from qrcensus.laws import qualifying_params; "
            "print(json.dumps({law: list(qualifying_params(law, 2000000000, 2000000001)) "
            "for law in ('A3', 'L8', 'A1', 'L9', 'A2')}))"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        product = [{"p": 3, "q": 666666667, "m": 1, "k": 1}]
        assert json.loads(out.stdout) == {"A3": [{"p": 3, "q": 666666667}], "L8": [], "A1": [],
                                          "L9": product, "A2": product}

    @pytest.mark.parametrize("law", ["A2_NH_PRODUCT", "A3_RB_SEMIPRIME", "L9_PRODUCT_INEQ"])
    def test_two_prime_families_sieve_to_a_third(self, law, monkeypatch):
        # p < q are odd primes with p*q <= hi, so q <= hi/3
        limits = []
        real = laws.sieve_primes

        def recording(limit):
            limits.append(limit)
            return real(limit)

        monkeypatch.setattr(laws, "sieve_primes", recording)
        hi = 30001
        assert list(qualifying_params(law, 3, hi))
        assert limits and max(limits) <= hi // 3

    def test_all_enumerated_params_satisfy_side_conditions(self):
        for law in LAW_IDS:
            for params in qualifying_params(law, 3, 301):
                check_law(law, **params)  # must not raise

    def test_a_lower_bound_below_three_enumerates_from_three(self):
        for law in LAW_IDS:
            want = list(qualifying_params(law, 3, 301))
            for lo in (-5, 0, 1):
                assert list(qualifying_params(law, lo, 301)) == want, (law, lo)


class TestRecurrence:
    def test_known_values(self):
        for (p, m), want in {
            (5, 3): 26, (3, 5): 47, (13, 4): 6630,
            (3, 2): 2, (5, 2): 5, (13, 2): 39,
        }.items():
            assert rb_prime_power_predicted(p, m) == want

    def test_base_cases(self):
        assert rb_prime_power_predicted(5, 0) == 0
        assert rb_prime_power_predicted(3, 1) == 1
        assert rb_prime_power_predicted(13, 1) == 3

    def test_matches_census(self):
        for p in (3, 5, 13, 17):
            m = 1
            while p**m <= 20_000:
                assert rb_prime_power_predicted(p, m) == tallies(p**m).r_b, (p, m)
                m += 1

    def test_rejects_4k3_primes_other_than_3(self):
        for p in (7, 11, 15):  # 15 is composite
            text = f"recurrence needs a prime p = 1 (mod 4) or p = 3, got {p}"
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                rb_prime_power_predicted(p, 2 if p == 7 else 1)
        with pytest.raises(ValueError, match=r"^exponent must be >= 0, got -1$"):
            rb_prime_power_predicted(5, -1)
