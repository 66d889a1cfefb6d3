"""Output checks that do not trust the program's own arithmetic.

Every expected value here comes from the benchmark's own sieve, trial
division or brute-force census, or from the golden listings under
tests/fixtures.  A check returns None when the output is right and a
one-line reason when it is not.
"""

import csv
import io
import json
import re


def sieve(limit):
    """flags[i] == 1 iff i is prime, for 0 <= i <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Census:
    """Brute-force census of odd n: every x in [1, (n-1)/2] squared."""

    def __init__(self, n):
        half = (n - 1) // 2
        first = {}
        pairs = []
        zeros_small = []
        for x in range(1, half + 1):
            s = x * x % n
            if s == 0:
                zeros_small.append(x)
            elif s in first:
                pairs.append((x, first[s]))
            else:
                first[s] = x
        self.n = n
        self.half = half
        self.first_root = first
        self.pairs = pairs
        self.zeros_small = zeros_small
        residues = sorted(first)
        small = [y for y in residues if y <= half]
        self.residues = residues
        self.r_b = len(small)
        self.r_h = len(residues) - self.r_b
        self.n_b = half - self.r_b
        self.n_h = (n - 1 - half) - self.r_h
        self.sum_rb = sum(small)
        self.sum_r = sum(residues)
        self.sum_rh = self.sum_r - self.sum_rb
        self.sum_n = n * (n - 1) // 2 - self.sum_r
        self.sum_nb = half * (half + 1) // 2 - self.sum_rb
        self.sum_nh = self.sum_n - self.sum_nb

    def zeros_full(self):
        n = self.n
        return [x for x in range(1, n) if x * x % n == 0]


_CENSUS_FIELDS = ("r_b", "n_b", "r_h", "n_h", "sum_r", "sum_n",
                  "sum_rb", "sum_nb", "sum_rh", "sum_nh")


def _json_lines(stdout):
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except ValueError as exc:
        return f"stdout is not JSON lines: {exc}"


# --------------------------------------------------------------------------
# sweep


def check_sweep(op, lo, hi, mode, expected, flags):
    """expected: the counterexamples the benchmark derived from its sieve."""
    want_exit = 3 if expected else 0
    if op["exit"] != want_exit:
        return f"exit {op['exit']}, expected {want_exit}"
    docs = _json_lines(op["stdout"])
    if isinstance(docs, str):
        return docs
    if not docs:
        return "no output"
    *streamed, summary = docs
    if [d.get("counterexample") for d in streamed] != expected:
        return "streamed counterexamples differ from the sieve's"
    want = {"lo": lo, "hi": hi, "mode": mode, "scanned": (hi - lo) // 2 + 1,
            "counterexamples": expected}
    if {k: summary.get(k) for k in want} != want:
        return f"summary {summary} differs from {want}"
    try:
        ck = json.loads(op["checkpoint"] or "")
    except ValueError:
        return "checkpoint missing or not JSON"
    if not isinstance(ck, dict) or ck.get("counterexamples") != expected:
        return "final checkpoint does not hold the counterexamples"
    if mode == "corrected" and any(flags[n] for n in expected):
        return "a prime reported as a corrected-mode counterexample"
    return None


# --------------------------------------------------------------------------
# laws


def expected_law_params(lo, hi, flags):
    """The parameter tuples each law qualifies in [lo, hi], enumerated
    from the benchmark's sieve."""
    primes = [p for p in range(3, hi + 1) if flags[p]]
    out = {}

    def cls(law, m, c):
        out[law] = [{"p": p} for p in primes if p >= lo and p % m == c]

    cls("L1_EXACT_4K1", 4, 1)
    cls("L2_DIRICHLET_POS", 4, 3)
    cls("L3_LEB_7MOD8_SUMS", 8, 7)
    cls("L4_LEB_7MOD8_DIFF", 8, 7)
    cls("L5_LEB_3MOD8_SUMS", 8, 3)
    cls("L6_LEB_3MOD8_DIFF", 8, 3)
    cls("L7_SUMRB_7MOD8", 8, 7)
    powers = [(p, k) for p in primes for k in range(2, hi.bit_length()) if lo <= p ** k <= hi]
    out["L8_PRIMEPOWER_BOUND"] = [{"p": p, "k": k} for p, k in powers
                                  if p % 4 == 3 and k >= (3 if p == 3 else 2)]
    products = []
    semiprimes = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q > hi:
                break
            if p * q >= lo:
                semiprimes.append({"p": p, "q": q})
            m = 1
            while p ** m * q <= hi:
                k = 1
                while p ** m * q ** k <= hi:
                    if p ** m * q ** k >= lo:
                        products.append({"p": p, "q": q, "m": m, "k": k})
                    k += 1
                m += 1
    out["L9_PRODUCT_INEQ"] = [t for t in products
                              if (t["p"], t["q"], t["m"], t["k"]) != (3, 5, 1, 1)]
    out["L10_MOD8_TRIANGLE"] = [{"a": 3, "b": 5}, {"a": 3, "b": 7}, {"a": 5, "b": 7}]
    out["A1_NH_PRIMEPOWER"] = [{"p": p, "k": k} for p, k in powers]
    out["A2_NH_PRODUCT"] = products
    out["A3_RB_SEMIPRIME"] = semiprimes
    return out


def _canon(params):
    return tuple(sorted(params.items()))


def check_laws(op, lo, hi, flags):
    if op["exit"] != 0:
        return f"exit {op['exit']}, expected 0"
    docs = _json_lines(op["stdout"])
    if isinstance(docs, str):
        return docs
    expected = expected_law_params(lo, hi, flags)
    got = {}
    for doc in docs:
        got.setdefault(doc.get("law"), []).append(_canon(doc.get("params", {})))
        if doc.get("holds") is False:
            return f"{doc.get('law')} {doc.get('params')}: holds is false"
    for law, tuples in expected.items():
        if sorted(got.get(law, [])) != sorted(_canon(t) for t in tuples):
            return f"{law}: reported tuples differ from the sieve's enumeration"
    if set(got) != set(expected):
        return f"unexpected laws {sorted(set(got) - set(expected))}"
    # the laws over single primes have closed or brute-force sides
    for doc in docs:
        law, params = doc["law"], doc["params"]
        if "p" not in params or len(params) != 1:
            continue
        c = Census(params["p"])
        p = c.n
        want = {
            "L1_EXACT_4K1": (c.r_b, (p - 1) // 4),
            "L2_DIRICHLET_POS": (c.r_b - c.n_b, 0),
            "L3_LEB_7MOD8_SUMS": (c.sum_rb, c.sum_nb),
            "L5_LEB_3MOD8_SUMS": (c.sum_n - c.sum_r, c.sum_rb - c.sum_nb),
            "L7_SUMRB_7MOD8": (c.sum_rb, (p * p - 1) // 16),
        }.get(law)
        if want is not None and (doc["lhs"], doc["rhs"]) != want:
            return f"{law} p={p}: sides {doc['lhs']}, {doc['rhs']}; brute force gives {want}"
    return None


# --------------------------------------------------------------------------
# desk commands


#: Moduli up to this get a brute-force r_b in the classify check.
BRUTE_LIMIT = 200_001


def check_classify(op, n):
    if op["exit"] not in (0, 3):
        return f"exit {op['exit']}"
    docs = _json_lines(op["stdout"])
    if isinstance(docs, str):
        return docs
    if len(docs) != 1:
        return "expected one JSON line"
    doc = docs[0]
    prime = is_prime(n)
    if doc.get("n") != n or doc.get("oracle_prime") is not prime:
        return f"oracle_prime {doc.get('oracle_prime')}, trial division says {prime}"
    r_b = doc.get("r_b")
    if n <= BRUTE_LIMIT and r_b != Census(n).r_b:
        return f"r_b {r_b} differs from brute force"
    if prime and n % 4 == 1 and r_b != (n - 1) // 4:
        return f"r_b {r_b} of a 4k+1 prime is not (n-1)/4"
    predicted = 4 * r_b >= n - 1  # the corrected mode, the CLI default
    if doc.get("predicted_prime") is not predicted:
        return "predicted_prime does not follow from r_b"
    agree = predicted == prime
    if doc.get("agree") is not agree or op["exit"] != (0 if agree else 3):
        return f"exit {op['exit']} / agree {doc.get('agree')}, expected agree={agree}"
    return None


def check_census(op, n):
    if op["exit"] != 0:
        return f"exit {op['exit']}"
    docs = _json_lines(op["stdout"])
    if isinstance(docs, str):
        return docs
    if len(docs) != 1:
        return "expected one JSON line"
    doc = docs[0]
    c = Census(n)
    for field in _CENSUS_FIELDS:
        if doc.get(field) != getattr(c, field):
            return f"{field} {doc.get(field)} differs from brute force {getattr(c, field)}"
    if doc.get("residues") != c.residues:
        return "residue set differs from brute force"
    if doc.get("details") != [[y, c.first_root[y]] for y in c.residues]:
        return "least roots differ from brute force"
    if doc.get("zero_square_roots") != c.zeros_small:
        return "zero-square roots differ from brute force"
    return None


_PLAIN_PAIR = re.compile(
    r"(\d+)\^2 = (\d+)\^2 = (\d+) \(mod (\d+)\): \((\d+)-(\d+)\)\((\d+)\+(\d+)\) "
    r"= (\d+)\*(\d+) = (\d+) and (\d+) \| (\d+)$")


def _pairs_rows(stdout, fmt):
    """(a, b, shared, low, high) rows and the small zero squares of one
    pairs listing, or a reason string."""
    if fmt == "json":
        docs = _json_lines(stdout)
        if isinstance(docs, str) or len(docs) != 1:
            return "expected one JSON line"
        doc = docs[0]
        rows = []
        for p in doc.get("pairs", []):
            if p.get("modulus_divides") is not True:
                return "a pair without modulus_divides"
            rows.append((p["a"], p["b"], p["shared_square"], p["witness_low"], p["witness_high"]))
        return rows, doc.get("zero_square_roots_small"), doc.get("zero_square_roots")
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(stdout)))
        if not table or table[0] != ["a", "b", "shared_square", "witness_low", "witness_high"]:
            return "bad CSV header"
        return [tuple(map(int, r)) for r in table[1:]], None, None
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("zero squares in [1, "):
        return "missing zero-square line"
    rows = []
    for line in lines[:-1]:
        m = _PLAIN_PAIR.match(line)
        if not m:
            return f"unparsable line {line[:60]!r}"
        a, b, s, n, a2, b2, a3, b3, lo, hi, prod, n2, prod2 = map(int, m.groups())
        if (a2, b2, a3, b3) != (a, b, a, b) or n2 != n or prod2 != prod or prod != lo * hi:
            return f"inconsistent witness line {line[:60]!r}"
        rows.append((a, b, s, lo, hi))
    tail = lines[-1].split(": ", 1)[1]
    zeros = [] if tail == "none" else [int(z) for z in tail.split(", ")]
    return rows, zeros, None


def check_pairs(op, n, fmt):
    if op["exit"] != 0:
        return f"exit {op['exit']}"
    parsed = _pairs_rows(op["stdout"], fmt)
    if isinstance(parsed, str):
        return parsed
    rows, zeros_small, zeros_full = parsed
    for a, b, s, low, high in rows:
        if a * a % n != b * b % n or a * a % n != s:
            return f"pair ({a}, {b}) does not share the square {s} mod {n}"
        if (low, high) != (a - b, a + b) or low * high % n:
            return f"pair ({a}, {b}): bad witness ({low}, {high})"
    c = Census(n)
    if [(a, b) for a, b, *_ in rows] != c.pairs:
        return f"{len(rows)} pairs, brute force finds {len(c.pairs)}"
    if zeros_small is not None and zeros_small != c.zeros_small:
        return "small zero squares differ from brute force"
    if zeros_full is not None and zeros_full != c.zeros_full():
        return "zero squares differ from brute force"
    return None


_HTML_CELL = re.compile(r'<(th|td)(?: class="([^"]*)")?>(\d*)</\1>')
_TEXT_CELL = re.compile(r"(<)? *(\d+)(>|\*)?")


def _table_grid(stdout, fmt):
    """(labels, rows, marks) of a rendered table; marks is the set of
    (i, j) cells shown highlighted."""
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(stdout)))
        labels = [int(v) for v in table[0][1:]]
        rows = [[int(v) for v in r[1:]] for r in table[1:]]
        if [int(r[0]) for r in table[1:]] != labels:
            return "row labels differ from column labels"
        return labels, rows, set()
    if fmt == "html":
        lines = [ln for ln in stdout.splitlines() if ln.startswith("<tr")]
        cells = [_HTML_CELL.findall(ln) for ln in lines]
        labels = [int(v) for tag, cls, v in cells[0][1:]]
        rows, marks = [], set()
        for i, row in enumerate(cells[1:]):
            if int(row[0][2]) != labels[i]:
                return "row labels differ from column labels"
            rows.append([int(v) for tag, cls, v in row[1:]])
            marks.update((i, j) for j, (tag, cls, v) in enumerate(row[1:])
                         if "cyan" in cls.split())
        return labels, rows, marks
    text = stdout.replace("\x1b[46m", "<").replace("\x1b[0m", ">")
    lines = [ln for ln in text.splitlines() if "|" in ln and not ln.startswith("-")]
    parsed = []
    for ln in lines:
        head, rest = ln.split("|", 1)
        cells = _TEXT_CELL.findall(rest.replace("|", " "))
        parsed.append((head.strip(), [(int(v), bool(o) or c in (">", "*")) for o, v, c in cells]))
    labels = [v for v, marked in parsed[0][1]]
    rows, marks = [], set()
    for i, (head, cells) in enumerate(parsed[1:]):
        if int(head) != labels[i]:
            return "row labels differ from column labels"
        rows.append([v for v, marked in cells])
        marks.update((i, j) for j, (v, marked) in enumerate(cells) if marked)
    return labels, rows, marks


def check_table(op, n, fmt, order, highlight):
    if op["exit"] != 0:
        return f"exit {op['exit']}"
    try:
        grid = _table_grid(op["stdout"], fmt)
    except (ValueError, IndexError) as exc:
        return f"unparsable {fmt} table: {exc}"
    if isinstance(grid, str):
        return grid
    labels, rows, marks = grid
    c = Census(n)
    residues = set(c.residues)
    if order == "residues-first":
        want = sorted(residues) + sorted(set(range(1, n)) - residues)
    else:
        want = list(range(1, n))
    if labels != want:
        return "label order differs"
    if len(rows) != len(labels):
        return "missing rows"
    for a, row in zip(labels, rows):
        if row != [a * b % n for b in labels]:
            return f"row {a} has a wrong product"
    if fmt == "csv" or highlight == "none":
        want_marks = set()
    else:
        marked = residues if highlight == "residues" else set(range(1, c.half + 1))
        want_marks = {(i, j) for i, row in enumerate(rows)
                      for j, v in enumerate(row) if v in marked}
    if marks != want_marks:
        return f"{len(marks)} highlighted cells, expected {len(want_marks)}"
    return None


def check_annex(op, golden):
    if op["exit"] != 0:
        return f"exit {op['exit']}"
    if op["stdout"] != golden:
        return "annex listing differs from the golden file"
    return None
