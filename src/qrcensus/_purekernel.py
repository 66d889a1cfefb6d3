"""Pure-Python census kernels, the fallback when the compiled module is absent.

Same contract as the compiled backend (see kernel.py).  One deliberate
difference: the per-modulus scratch table spends a byte per candidate
instead of a bit, because dropping two bit-twiddling operations from the
innermost loop is worth 150 KB at the default sweep bound; the compiled
backend keeps the bit-packed layout.
"""

BACKEND = "pure"

# Dense marking needs n bytes here (n/8 in the compiled backend) and the
# census sums must stay meaningful alongside the compiled path, so both
# backends refuse the same range.
MAX_DENSE_MODULUS = 1 << 31


def _check_odd_range(lo, hi):
    if lo % 2 == 0 or hi % 2 == 0 or not 3 <= lo <= hi:
        raise ValueError(f"need odd 3 <= lo <= hi, got [{lo}, {hi}]")


def _check_modulus(n):
    if n % 2 == 0 or n < 3:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if n >= MAX_DENSE_MODULUS:
        raise ValueError(f"dense census supports n < 2**31, got {n}")


def small_residue_counts(lo, hi):
    """r_b(n) for every odd n in [lo, hi], by the incremental-square walk.

    x**2 mod n is maintained by adding 2x+1 and conditionally subtracting
    n once; the loop contains no multiplication.
    """
    _check_odd_range(lo, hi)
    out = []
    for n in range(lo, hi + 1, 2):
        half = (n - 1) >> 1
        seen = bytearray(half + 1)
        count = 0
        s = 0
        add = -1
        for _ in range(half):
            add += 2
            s += add
            if s >= n:
                s -= n
            if s and s <= half and not seen[s]:
                seen[s] = 1
                count += 1
        out.append(count)
    return out


def _mark(n, naive):
    """Byte-per-value table of nonzero squares of [1, (n-1)/2], plus the
    x values whose square is 0."""
    half = (n - 1) >> 1
    marked = bytearray(n)
    zeros = []
    if naive:
        for x in range(1, half + 1):
            s = x * x % n
            if s:
                marked[s] = 1
            else:
                zeros.append(x)
    else:
        s = 0
        add = -1
        for x in range(1, half + 1):
            add += 2
            s += add
            if s >= n:
                s -= n
            if s:
                marked[s] = 1
            else:
                zeros.append(x)
    return marked, zeros


def census_tallies(n, naive=False):
    """Counts and sums of the residue census of n.

    Returns (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh,
    sum_nh, zero_square_roots) where the roots are the x <= (n-1)/2 with
    x**2 = 0 mod n.
    """
    _check_modulus(n)
    half = (n - 1) >> 1
    marked, zeros = _mark(n, naive)
    r_b = sum_rb = 0
    idx = marked.find(1, 1, half + 1)
    while idx != -1:
        r_b += 1
        sum_rb += idx
        idx = marked.find(1, idx + 1, half + 1)
    r_h = sum_rh = 0
    idx = marked.find(1, half + 1, n)
    while idx != -1:
        r_h += 1
        sum_rh += idx
        idx = marked.find(1, idx + 1, n)
    n_b = half - r_b
    n_h = (n - 1 - half) - r_h
    sum_r = sum_rb + sum_rh
    sum_n = n * (n - 1) // 2 - sum_r
    sum_nb = half * (half + 1) // 2 - sum_rb
    sum_nh = sum_n - sum_nb
    return (r_b, n_b, r_h, n_h, sum_r, sum_n, sum_rb, sum_nb, sum_rh, sum_nh, zeros)


def residue_bitmap(n, naive=False):
    """Bit-packed residue membership: bit y is set iff y in [1, n-1] is a
    nonzero quadratic residue of n."""
    _check_modulus(n)
    marked, _ = _mark(n, naive)
    bitmap = bytearray((n >> 3) + 1)
    idx = marked.find(1, 1, n)
    while idx != -1:
        bitmap[idx >> 3] |= 1 << (idx & 7)
        idx = marked.find(1, idx + 1, n)
    return bytes(bitmap)
