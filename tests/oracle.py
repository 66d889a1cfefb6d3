"""Brute-force reference implementations, straight from the definitions.

Deliberately independent of the library's shortcuts: residues come from
squaring every x in [1, n-1] (no half-range trick, no incremental walk),
primality is trial division.  Frozen expected values in the tests were
computed with these.
"""


def brute_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_residues(n):
    """{x**2 mod n : x in [1, n-1]} minus {0}."""
    return {x * x % n for x in range(1, n)} - {0}


def brute_census(n):
    half = (n - 1) // 2
    residues = brute_residues(n)
    smalls = {y for y in residues if y <= half}
    zero_roots = {x for x in range(1, n) if x * x % n == 0}
    return {
        "residues": residues,
        "r_b": len(smalls),
        "n_b": half - len(smalls),
        "r_h": len(residues) - len(smalls),
        "n_h": (n - 1 - half) - (len(residues) - len(smalls)),
        "sum_r": sum(residues),
        "sum_n": n * (n - 1) // 2 - sum(residues),
        "sum_rb": sum(smalls),
        "sum_nb": half * (half + 1) // 2 - sum(smalls),
        "sum_rh": sum(residues) - sum(smalls),
        "sum_nh": (n * (n - 1) // 2 - sum(residues))
        - (half * (half + 1) // 2 - sum(smalls)),
        "zero_square_roots": {x for x in zero_roots if x <= half},
        "zero_square_roots_full": zero_roots,
    }


def brute_kernel_census(n):
    """brute_census(n) in the kernel's formats: kernel.census_tallies'
    tuple of ten counts and sums, and the residue_bitmap bytes.  A
    backend's census_tallies returns only the walk's four of the ten; see
    walk_values."""
    c = brute_census(n)
    tallies = tuple(c[k] for k in (
        "r_b", "n_b", "r_h", "n_h", "sum_r", "sum_n", "sum_rb", "sum_nb",
        "sum_rh", "sum_nh",
    ))
    bitmap = bytearray((n >> 3) + 1)
    for y in c["residues"]:
        bitmap[y >> 3] |= 1 << (y & 7)
    return tallies, bytes(bitmap)


def walk_values(tallies):
    """(r_b, r_h, sum_rb, sum_rh) of a ten-value census_tallies tuple: what
    a backend's census_tallies returns."""
    return tallies[0], tallies[2], tallies[6], tallies[8]


def brute_zero_square_roots(n):
    """The x in [1, (n-1)/2] with x**2 = 0 mod n, ascending, as
    census.small_zero_roots gives them."""
    return tuple(x for x in range(1, (n - 1) // 2 + 1) if x * x % n == 0)


def brute_smallest_root(y, n):
    for x in range(1, n):
        if x * x % n == y:
            return x
    return None


def brute_collision_pairs(n):
    first = {}
    pairs = []
    for x in range(1, (n - 1) // 2 + 1):
        s = x * x % n
        if s == 0:
            continue
        if s in first:
            pairs.append((x, first[s]))
        else:
            first[s] = x
    return pairs
