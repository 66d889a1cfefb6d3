import tracemalloc

import pytest

from oracle import brute_census, brute_collision_pairs
from qrcensus import kernel
from qrcensus.census import quadratic_residue_set, residue_details
from qrcensus.modmath import sieve_primes
from qrcensus.redundancy import (
    CollisionPair,
    collision_classes,
    collision_pairs,
    witness,
    zero_square_roots,
)

MOD35_PAIRS = [(6, 1), (11, 4), (12, 2), (13, 8), (16, 9), (17, 3)]


class TestCollisionPairs:
    def test_mod35_pinned(self):
        got = [(p.a, p.b) for p in collision_pairs(35)]
        assert got == MOD35_PAIRS

    def test_primes_have_none(self):
        for p in sieve_primes(2000):
            if p > 2:
                assert collision_pairs(p) == [], p

    def test_b_is_minimal_partner(self):
        for pair in collision_pairs(175):
            smaller = [
                b for b in range(1, pair.a)
                if b * b % 175 == pair.a * pair.a % 175
            ]
            assert smaller and pair.b == smaller[0]

    def test_matches_brute_force(self):
        for n in range(3, 1002, 2):
            assert [(p.a, p.b) for p in collision_pairs(n)] == brute_collision_pairs(n), n

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            CollisionPair(35, 6, 2, 1)  # 6**2 != 2**2 (mod 35)
        with pytest.raises(ValueError):
            CollisionPair(35, 1, 6, 1)  # needs b < a
        with pytest.raises(ValueError):
            CollisionPair(35, 18, 1, 1)  # a beyond the small half
        with pytest.raises(ValueError):
            CollisionPair(35, 6, 1, 2)  # wrong shared square


class TestWitness:
    def test_pinned_witnesses_mod35(self):
        by_a = {p.a: p for p in collision_pairs(35)}
        w = witness(by_a[16])
        assert (w.factor_low, w.factor_high, w.product) == (7, 25, 175)
        assert w.modulus_divides
        w = witness(by_a[6])
        assert (w.factor_low, w.factor_high, w.product) == (5, 7, 35)
        w = witness(by_a[17])
        assert (w.factor_low, w.factor_high, w.product) == (14, 20, 280)

    def test_every_pair_verifies(self):
        for n in (35, 175, 441, 1225):
            for pair in collision_pairs(n):
                assert witness(pair).modulus_divides


class TestZeroSquares:
    def test_pinned(self):
        assert zero_square_roots(175) == {35, 70, 105, 140}
        assert zero_square_roots(35) == frozenset()
        assert zero_square_roots(9) == {3, 6}

    def test_small_half_restriction(self):
        zeros = zero_square_roots(175)
        assert {z for z in zeros if z <= 87} == {35, 70}
        assert {z for z in zero_square_roots(9) if z <= 4} == {3}

    def test_matches_brute_force(self):
        for n in range(3, 1002, 2):
            assert zero_square_roots(n) == brute_census(n)["zero_square_roots_full"], n


class TestClasses:
    def test_classes_mirror_pairs(self):
        classes = collision_classes(35)
        assert (1, [1, 6]) in classes
        assert all(len(members) > 1 for _, members in classes)
        n_pairs = sum(len(members) - 1 for _, members in classes)
        assert n_pairs == len(collision_pairs(35))


@pytest.mark.parametrize("helper", [collision_classes, collision_pairs, residue_details])
def test_census_ceiling_checked_before_the_walk(helper):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n < 2\*\*31"):
            helper(kernel.MAX_DENSE_MODULUS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_collision_census_reconciles_with_residue_census():
    # small candidates split into: first occurrences (distinct residues),
    # repeats (one per collision pair), and zero squares
    for n in range(3, 5001, 2):
        half = (n - 1) // 2
        pairs = collision_pairs(n)
        zeros_small = sum(1 for z in zero_square_roots(n) if z <= half)
        assert half - len(pairs) - zeros_small == len(quadratic_residue_set(n)), n
