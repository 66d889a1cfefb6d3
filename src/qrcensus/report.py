"""Renderers: multiplication tables with residue highlighting, the annex
listings, and census export/import.

Tables label rows and columns with 1..n-1 either in natural order or with
residues first (residues ascending, then non-residues ascending; prime
moduli only, since only a field splits cleanly into the four quadrants).
Cell (a, b) holds a*b mod n; highlighting marks residues by default, the
small half of the range, or nothing (see HighlightMode).
"""

import csv
import enum
import io
import json
from typing import NamedTuple

from qrcensus.census import CensusTallies, quadratic_residue_set, residue_details
from qrcensus.modmath import as_modulus, is_prime_oracle
from qrcensus.redundancy import collision_pairs, zero_square_roots

ANSI_HIGHLIGHT = "\x1b[46m"  # cyan background, like the archived grids
ANSI_RESET = "\x1b[0m"
HTML_HIGHLIGHT_CLASS = "cyan"
PLAIN_MARK = "*"

#: Entries where the archived annex listing disagrees with the computed
#: least root; reproduced verbatim so regeneration matches it byte for
#: byte.  smallest_sqrt() itself is unaffected (2**2 = 4 mod 33).
ANNEX2_ROOT_OVERRIDES = {(33, 4): 13}

#: Couples per row of the annex 1 listing, as in the archived listing.
ANNEX1_PAIRS_PER_LINE = 11

#: Tables hold (n-1)**2 cells: n = 2049 already takes 2.7 s and 377 MB as
#: HTML, and n = 4097 runs out of memory while building the grid.
MAX_TABLE_MODULUS = 1 << 11

CENSUS_FIELDS = ("n",) + CensusTallies._fields


class Ordering(enum.Enum):
    NATURAL = "natural"
    RESIDUES_FIRST = "residues-first"


class TableFormat(enum.Enum):
    ANSI = "ansi"
    PLAIN = "plain"
    CSV = "csv"
    HTML = "html"


class HighlightMode(enum.Enum):
    """What the highlighted cells mean.

    RESIDUES marks cells whose value is a quadratic residue (the scheme of
    the archived mod-7 grids).  SMALL_VALUES marks values <= (n-1)/2, the
    scheme of the archived mod-23 grid: there the top-left quadrant of a
    residues-first table shows r_b marks per row against n_b in the
    top-right, making the small-residue surplus visible.  NONE marks
    nothing.
    """

    RESIDUES = "residues"
    SMALL_VALUES = "small"
    NONE = "none"


class ExportFormat(enum.Enum):
    CSV = "csv"
    JSON_LINES = "jsonl"


class TableSpec(NamedTuple):
    n: int
    ordering: Ordering = Ordering.NATURAL
    fmt: TableFormat = TableFormat.PLAIN
    highlight_mode: HighlightMode = HighlightMode.RESIDUES


def mult_table_grid(n, ordering: Ordering):
    """Build the label order and cell matrix for one table.

    Returns (labels, rows, residues, block) where rows[i][j] is
    labels[i]*labels[j] mod n and `block` is the width of the leading
    quadrant (residue count for residues-first, half range otherwise).
    """
    n = as_modulus(n)
    if n >= MAX_TABLE_MODULUS:
        raise ValueError(f"table supports n < 2**11, got {n}")
    residues = quadratic_residue_set(n)
    if ordering is Ordering.RESIDUES_FIRST:
        if not is_prime_oracle(n):
            raise ValueError(
                f"residues-first ordering needs a prime modulus, got {n}"
            )
        labels = sorted(residues) + sorted(set(range(1, n)) - residues)
        block = len(residues)
    elif ordering is Ordering.NATURAL:
        labels = list(range(1, n))
        block = (n - 1) // 2
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    rows = [[a * b % n for b in labels] for a in labels]
    return labels, rows, residues, block


def _text_table(labels, rows, marks, block, ansi):
    w = len(str(max(labels)))

    def cell(v):
        if v in marks:
            if ansi:
                return f"{ANSI_HIGHLIGHT}{v:>{w}}{ANSI_RESET} "
            return f"{v:>{w}}{PLAIN_MARK}"
        return f"{v:>{w}} "

    def assemble(head, values, marked):
        cells = [cell(v) if marked else f"{v:>{w}} " for v in values]
        left = " ".join(cells[:block])
        right = " ".join(cells[block:])
        return f"{head} | {left} | {right}".rstrip()

    header = assemble(" " * w, labels, False)
    ruler = "-" * (w + 1) + "+" + "-" * (block * (w + 2) + 1) + "+" + "-" * (
        (len(labels) - block) * (w + 2)
    )
    lines = [header, ruler]
    for label, row in zip(labels, rows):
        lines.append(assemble(f"{label:>{w}}", row, True))
        if label == labels[block - 1]:
            lines.append(ruler)
    return "\n".join(lines) + "\n"


def _csv_table(labels, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + labels)
    for label, row in zip(labels, rows):
        writer.writerow([label] + row)
    return buf.getvalue()


def _html_table(labels, rows, marks, block):
    def cell(name, v, col):
        classes = []
        if name == "td" and v in marks:
            classes.append(HTML_HIGHLIGHT_CLASS)
        if col == block:  # first column after the leading quadrant
            classes.append("q")
        attr = f' class="{" ".join(classes)}"' if classes else ""
        return f"<{name}{attr}>{v}</{name}>"

    lines = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8"><style>',
        "table.modmul { border-collapse: collapse; }",
        "table.modmul th, table.modmul td { border: 1px solid #888; "
        "padding: 2px 8px; text-align: right; }",
        f"table.modmul td.{HTML_HIGHLIGHT_CLASS} {{ background: cyan; }}",
        "table.modmul .q { border-left: 3px double #333; }",
        "table.modmul tr.q th, table.modmul tr.q td { border-top: 3px double #333; }",
        "</style></head><body>",
        '<table class="modmul">',
    ]
    head = "".join(cell("th", v, j) for j, v in enumerate(labels))
    lines.append(f"<tr><th></th>{head}</tr>")
    for i, (label, row) in enumerate(zip(labels, rows)):
        tr = '<tr class="q">' if i == block else "<tr>"
        body = "".join(cell("td", v, j) for j, v in enumerate(row))
        lines.append(f"{tr}<th>{label}</th>{body}</tr>")
    lines += ["</table>", "</body></html>"]
    return "\n".join(lines) + "\n"


def highlight_set(n, mode: HighlightMode, residues) -> frozenset:
    """The values a table highlights under the given mode."""
    n = as_modulus(n)
    if mode is HighlightMode.RESIDUES:
        return frozenset(residues)
    if mode is HighlightMode.SMALL_VALUES:
        return frozenset(range(1, (n - 1) // 2 + 1))
    if mode is HighlightMode.NONE:
        return frozenset()
    raise ValueError(f"unknown highlight mode {mode!r}")


def render_mult_table(spec: TableSpec) -> str:
    """Render the modular multiplication table described by spec."""
    labels, rows, residues, block = mult_table_grid(spec.n, spec.ordering)
    marks = highlight_set(spec.n, spec.highlight_mode, residues)
    if spec.fmt is TableFormat.PLAIN:
        return _text_table(labels, rows, marks, block, ansi=False)
    if spec.fmt is TableFormat.ANSI:
        return _text_table(labels, rows, marks, block, ansi=True)
    if spec.fmt is TableFormat.CSV:
        return _csv_table(labels, rows)
    if spec.fmt is TableFormat.HTML:
        return _html_table(labels, rows, marks, block)
    raise ValueError(f"unknown table format {spec.fmt!r}")


def render_annex2() -> str:
    """The small-residue listing: one line per odd n from 3 to 51 with the
    small residues ascending, each annotated with its least square root
    (residue 1 stays bare), then the count.

    The root printed for residue 4 of modulus 33 follows the archived
    listing (see ANNEX2_ROOT_OVERRIDES).
    """
    lines = []
    for n in range(3, 52, 2):
        half = (n - 1) // 2
        parts = []
        for y, root in residue_details(n):
            if y > half:
                continue
            root = ANNEX2_ROOT_OVERRIDES.get((n, y), root)
            parts.append("1" if y == 1 else f"{y} ({root})")
        lines.append(f"{n} → {', '.join(parts)}. → {len(parts)}")
    return "\n".join(lines) + "\n"


def render_annex1() -> str:
    """The square-collision listing of 175: couples (a, b) with equal
    squares ascending by a, ANNEX1_PAIRS_PER_LINE to a row, then the
    zero-square roots of the small half."""
    n = 175
    pairs = collision_pairs(n)
    lines = []
    for i in range(0, len(pairs), ANNEX1_PAIRS_PER_LINE):
        end = i + ANNEX1_PAIRS_PER_LINE
        text = ", ".join(f"({p.a},{p.b})" for p in pairs[i:end])
        lines.append(text + ("." if end >= len(pairs) else ","))
    half = (n - 1) // 2
    zeros = sorted(z for z in zero_square_roots(n) if z <= half)
    lines += ["", f"zero squares in [1, {half}]: {', '.join(map(str, zeros))}"]
    return "\n".join(lines) + "\n"


def census_row(record) -> dict:
    """The stable export mapping of one census record."""
    return {name: getattr(record, name) for name in CENSUS_FIELDS}


def export_census(records, fmt: ExportFormat) -> str:
    """Serialize census records with a stable field order; lossless for
    the CENSUS_FIELDS (see import_census)."""
    if fmt is ExportFormat.CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CENSUS_FIELDS)
        for rec in records:
            writer.writerow([getattr(rec, name) for name in CENSUS_FIELDS])
        return buf.getvalue()
    if fmt is ExportFormat.JSON_LINES:
        return "".join(json.dumps(census_row(rec)) + "\n" for rec in records)
    raise ValueError(f"unknown export format {fmt!r}")


def import_census(text: str, fmt: ExportFormat) -> list:
    """Parse export_census output back into field dicts."""
    if fmt is ExportFormat.CSV:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != CENSUS_FIELDS:
            raise ValueError("missing or unexpected census CSV header")
        return [dict(zip(CENSUS_FIELDS, map(int, row))) for row in rows[1:]]
    if fmt is ExportFormat.JSON_LINES:
        out = []
        for line in text.splitlines():
            doc = json.loads(line)
            out.append({name: doc[name] for name in CENSUS_FIELDS})
        return out
    raise ValueError(f"unknown export format {fmt!r}")
