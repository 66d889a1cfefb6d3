import enum
import random
import re

import pytest

from oracle import brute_is_prime, brute_residues
from qrcensus.modmath import (
    MAX_MODULUS,
    TRIAL_DIVISION_CUTOFF,
    OddModulus,
    as_modulus,
    factorize,
    is_prime_oracle,
    legendre_euler,
    mul_mod,
    pow_mod,
    sieve_primes,
)


class TestOddModulus:
    def test_accepts_odd_in_range(self):
        assert OddModulus(3).n == 3
        assert int(OddModulus(35)) == 35
        assert OddModulus(MAX_MODULUS - 1).n == MAX_MODULUS - 1

    @pytest.mark.parametrize("bad", [2, 4, 100, 0, -3, 1, MAX_MODULUS, MAX_MODULUS + 1])
    def test_rejects_even_or_out_of_range(self, bad):
        with pytest.raises(ValueError):
            OddModulus(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            OddModulus(7.0)
        with pytest.raises(TypeError):
            OddModulus(True)

    def test_as_modulus_passthrough(self):
        assert as_modulus(OddModulus(9)) == 9
        assert as_modulus(9) == 9
        with pytest.raises(ValueError):
            as_modulus(8)


class TestAsModulus:
    """as_modulus answers a plain int in range at once; every other input
    keeps OddModulus's checks and texts."""

    @pytest.mark.parametrize("n", [3, MAX_MODULUS - 1])
    def test_plain_int_in_range(self, n):
        got = as_modulus(n)
        assert type(got) is int and got == n

    @pytest.mark.parametrize("bad, text", [
        (1, "modulus must be in [3, 2**62), got 1"),
        (-3, "modulus must be in [3, 2**62), got -3"),
        (8, "modulus must be odd, got 8"),
        (MAX_MODULUS, f"modulus must be odd, got {MAX_MODULUS}"),
        (MAX_MODULUS + 1, f"modulus must be in [3, 2**62), got {MAX_MODULUS + 1}"),
        (True, "modulus must be in [3, 2**62), got 1"),
        (False, "modulus must be odd, got 0"),
    ])
    def test_rejects_with_text(self, bad, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            as_modulus(bad)

    @pytest.mark.parametrize("bad", [7.0, "7"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            as_modulus(bad)

    def test_integer_like_inputs_become_plain_ints(self):
        class Seven(enum.IntEnum):
            N = 7

        class Index:
            def __index__(self):
                return 7

        for n in (Seven.N, Index(), OddModulus(7)):
            got = as_modulus(n)
            assert type(got) is int and got == 7, n


class TestMulMod:
    def test_basic(self):
        assert mul_mod(3, 4, 5) == 2

    def test_identity(self):
        for n in (3, 7, 35, 101):
            for a in range(n):
                assert mul_mod(a, 1, n) == a

    def test_big_operands_near_ceiling(self):
        # frozen from big-integer arithmetic: 2**80 mod (2**61 - 1) = 2**19
        assert mul_mod(2**40, 2**40, 2**61 - 1) == 524288

    def test_random_triples_against_bigint(self):
        rng = random.Random(0x5EED)
        for _ in range(10_000):
            n = rng.randrange(3, MAX_MODULUS, 2)
            a = rng.randrange(n)
            b = rng.randrange(n)
            assert mul_mod(a, b, n) == a * b % n

    def test_rejects_out_of_range_operands(self):
        with pytest.raises(ValueError):
            mul_mod(5, 1, 5)
        with pytest.raises(ValueError):
            mul_mod(-1, 1, 5)


class TestPowMod:
    def test_basic(self):
        assert pow_mod(2, 10, 1000) == 24

    def test_zero_exponent_is_one(self):
        assert pow_mod(0, 0, 7) == 1
        assert pow_mod(5, 0, 7) == 1

    def test_annex_consistent_power(self):
        # 3125 = 284*11 + 1, and 5 is indeed a residue of 11
        assert pow_mod(5, 5, 11) == 1

    def test_exponent_additivity(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(3, 1 << 40, 2)
            a = rng.randrange(n)
            e1 = rng.randrange(0, 1 << 20)
            e2 = rng.randrange(0, 1 << 20)
            assert pow_mod(a, e1 + e2, n) == mul_mod(
                pow_mod(a, e1, n), pow_mod(a, e2, n), n
            )

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            pow_mod(2, -1, 7)


class TestLegendreEuler:
    def test_annex_values(self):
        assert legendre_euler(3, 11) == 1  # 5**2 = 3 mod 11
        assert legendre_euler(2, 11) == -1  # residues of 11 are 1, 3, 4, 5, 9
        assert legendre_euler(-1, 13) == 1

    def test_zero_when_p_divides_a(self):
        assert legendre_euler(22, 11) == 0
        assert legendre_euler(0, 7) == 0

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 97])
    def test_minus_one_residue_iff_1_mod_4(self, p):
        assert legendre_euler(-1, p) == 1

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_minus_one_nonresidue_for_3_mod_4(self, p):
        assert legendre_euler(-1, p) == -1

    def test_minus_one_rule_all_primes_below_1e4(self):
        for p in sieve_primes(10_000):
            if p == 2:
                continue
            assert legendre_euler(-1, p) == (1 if p % 4 == 1 else -1)

    def test_matches_membership_small_primes(self):
        for p in (3, 5, 7, 11, 13, 23, 47):
            residues = brute_residues(p)
            for a in range(1, p):
                want = 1 if a in residues else -1
                assert legendre_euler(a, p) == want

    def test_composite_detected_by_power(self):
        # 2**(15-1)/2 = 2**7 = 128 = 8 mod 15, outside {0, 1, 14}
        with pytest.raises(ValueError, match="not prime"):
            legendre_euler(2, 15)

    def test_validate_flag(self):
        with pytest.raises(ValueError, match="not prime"):
            legendre_euler(2, 341, validate=True)
        assert legendre_euler(2, 7, validate=True) == 1


class TestIsPrimeOracle:
    def test_edge_values(self):
        assert is_prime_oracle(1) is False
        assert is_prime_oracle(2) is True
        assert is_prime_oracle(3) is True
        assert is_prime_oracle(35) is False
        assert is_prime_oracle(9967) is True

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime_oracle(0)
        with pytest.raises(ValueError):
            is_prime_oracle(MAX_MODULUS)

    def test_against_trial_division_to_1e4(self):
        for n in range(1, 10_001):
            assert is_prime_oracle(n) == brute_is_prime(n)

    def test_miller_rabin_path_matches_the_sieve(self):
        # every n here is above TRIAL_DIVISION_CUTOFF, so the sieve is an
        # independent reference for the Miller-Rabin path
        assert 65537 > TRIAL_DIVISION_CUTOFF
        primes = set(sieve_primes(105537))
        for n in range(65537, 105538, 2):
            assert is_prime_oracle(n) == (n in primes), n

    def test_known_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to base 2 must not fool the witness set
        for n in (2047, 3277, 4033, 4681, 8321, 3215031751):
            assert is_prime_oracle(n) is False

    def test_large_primes(self):
        assert is_prime_oracle((1 << 61) - 1) is True  # Mersenne
        assert is_prime_oracle((1 << 62) - 57) is True
        assert is_prime_oracle((1 << 62) - 59) is False


class TestSieveAndFactorize:
    def test_sieve_matches_oracle(self):
        assert sieve_primes(1) == []
        primes = sieve_primes(2000)
        assert primes[:5] == [2, 3, 5, 7, 11]
        assert primes == [n for n in range(2, 2001) if brute_is_prime(n)]

    def test_factorize(self):
        assert factorize(1) == {}
        assert factorize(175) == {5: 2, 7: 1}
        assert factorize(2873) == {13: 2, 17: 1}
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 100_000)
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert brute_is_prime(p)
                prod *= p**e
            assert prod == n
