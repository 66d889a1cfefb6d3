import tracemalloc

import pytest

from conftest import load_fixture
from qrcensus.census import census
from qrcensus.report import (
    MAX_TABLE_MODULUS,
    ExportFormat,
    HighlightMode,
    Ordering,
    TableFormat,
    TableSpec,
    export_census,
    highlight_set,
    import_census,
    mult_table_grid,
    render_annex1,
    render_annex2,
    render_mult_table,
)


def parse_grid_fixture(name):
    """Token fixtures: header line of labels, then 'label: cell cell ...'
    with * marking highlighted cells."""
    lines = load_fixture(name).splitlines()
    head = [int(t) for t in lines[0].split()]
    rows = []
    for ln in lines[1:]:
        label, rest = ln.split(":", 1)
        cells = [(int(t.rstrip("*")), t.endswith("*")) for t in rest.split()]
        rows.append((int(label), cells))
    return head, rows


GRID_FIXTURES = [
    ("table_7_natural.txt", 7, Ordering.NATURAL, HighlightMode.RESIDUES),
    ("table_7_residues_first.txt", 7, Ordering.RESIDUES_FIRST, HighlightMode.RESIDUES),
    ("table_23_residues_first.txt", 23, Ordering.RESIDUES_FIRST, HighlightMode.SMALL_VALUES),
]


class TestGrids:
    @pytest.mark.parametrize("name,n,ordering,mode", GRID_FIXTURES)
    def test_matches_archived_grid(self, name, n, ordering, mode):
        head, fixture_rows = parse_grid_fixture(name)
        labels, rows, residues, block = mult_table_grid(n, ordering)
        marks = highlight_set(n, mode, residues)
        assert head == labels
        assert [lab for lab, _ in fixture_rows] == labels
        for (_, fcells), row in zip(fixture_rows, rows):
            assert [v for v, _ in fcells] == row
            assert [s for _, s in fcells] == [v in marks for v in row]

    def test_residues_first_headers(self):
        labels, _, _, block = mult_table_grid(23, Ordering.RESIDUES_FIRST)
        assert labels[:11] == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
        assert labels[11:] == [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]
        assert block == 11

    def test_residues_first_needs_prime(self):
        with pytest.raises(ValueError):
            mult_table_grid(15, Ordering.RESIDUES_FIRST)

    def test_ceiling_checked_before_allocating(self):
        n = MAX_TABLE_MODULUS + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"table supports n < 2\*\*11, got 2049"):
                mult_table_grid(n, Ordering.NATURAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_each_line_of_prime_table_has_half_highlights(self):
        for p in (7, 23, 101):
            labels, rows, residues, _ = mult_table_grid(p, Ordering.RESIDUES_FIRST)
            for row in rows:
                assert sum(v in residues for v in row) == (p - 1) // 2
            for j in range(len(labels)):
                assert sum(row[j] in residues for row in rows) == (p - 1) // 2

    def test_highlighted_multiset_is_residue_set(self):
        for p in (7, 23):
            labels, rows, residues, _ = mult_table_grid(p, Ordering.NATURAL)
            highlighted = {v for row in rows for v in row if v in residues}
            assert highlighted == set(residues)


class TestRenderedFormats:
    def test_plain_marks_residues(self):
        doc = render_mult_table(TableSpec(7, Ordering.RESIDUES_FIRST))
        lines = doc.splitlines()
        assert lines[0].split("|")[1].split() == ["1", "2", "4"]
        assert "1* 2* 4*" in doc
        assert doc.count("*") == 18  # (p-1)/2 per row

    def test_plain_no_highlight(self):
        doc = render_mult_table(TableSpec(7, highlight_mode=HighlightMode.NONE))
        assert "*" not in doc

    def test_ansi_uses_background_color(self):
        doc = render_mult_table(TableSpec(7, fmt=TableFormat.ANSI))
        assert "\x1b[46m" in doc and "\x1b[0m" in doc

    def test_csv_round_trips_values(self):
        doc = render_mult_table(TableSpec(7, fmt=TableFormat.CSV))
        lines = doc.strip().splitlines()
        assert lines[0] == ",1,2,3,4,5,6"
        assert lines[1] == "1,1,2,3,4,5,6"
        assert lines[3] == "3,3,6,2,5,1,4"

    def test_html_highlights_with_cyan_class(self):
        import re

        doc = render_mult_table(TableSpec(7, fmt=TableFormat.HTML))
        tds = re.findall(r"<td[^>]*>", doc)
        assert len(tds) == 36
        assert sum("cyan" in td for td in tds) == 18

    def test_small_value_highlighting(self):
        doc = render_mult_table(
            TableSpec(23, Ordering.RESIDUES_FIRST,
                      highlight_mode=HighlightMode.SMALL_VALUES)
        )
        body = [ln for ln in doc.splitlines() if "|" in ln and not ln.startswith("-")]
        first_data = body[1]
        left, right = first_data.split("|")[1], first_data.split("|")[2]
        assert left.count("*") == 7 and right.count("*") == 4


class TestAnnexes:
    def test_annex2_byte_identical(self):
        assert render_annex2() == load_fixture("annex2_golden.txt")

    def test_annex2_pinned_lines(self):
        lines = render_annex2().splitlines()
        assert lines[20] == (
            "43 → 1, 4 (2), 6 (7), 9 (3), 10 (15), 11 (21), 13 (20), "
            "14 (10), 15 (12), 16 (4), 17 (19), 21 (8). → 12"
        )
        assert lines[0] == "3 → 1. → 1"
        assert lines[3] == "9 → 1, 4 (2). → 2"

    def test_annex2_override_is_the_only_divergence(self):
        # regeneration applies exactly one archived-listing override
        from qrcensus.census import residue_details
        from qrcensus.report import ANNEX2_ROOT_OVERRIDES

        assert ANNEX2_ROOT_OVERRIDES == {(33, 4): 13}
        divergent = []
        for n in range(3, 52, 2):
            for y, root in residue_details(n):
                if y <= (n - 1) // 2 and (n, y) in ANNEX2_ROOT_OVERRIDES:
                    divergent.append((n, y, root))
        assert divergent == [(33, 4, 2)]

    def test_annex1_byte_identical(self):
        assert render_annex1() == load_fixture("annex1_golden.txt")


class TestExport:
    def test_csv_round_trip(self):
        records = [census(n) for n in (23, 35, 175)]
        text = export_census(records, ExportFormat.CSV)
        assert text.splitlines()[0] == (
            "n,r_b,n_b,r_h,n_h,sum_r,sum_n,sum_rb,sum_nb,sum_rh,sum_nh"
        )
        back = import_census(text, ExportFormat.CSV)
        for rec, row in zip(records, back):
            assert row == {k: getattr(rec, k) for k in row}
        assert back[1]["r_b"] == 7

    def test_jsonl_round_trip(self):
        records = [census(n) for n in (23, 9967)]
        text = export_census(records, ExportFormat.JSON_LINES)
        back = import_census(text, ExportFormat.JSON_LINES)
        assert back[0]["sum_rb"] == 33 and back[0]["sum_nb"] == 33
        assert back[1]["sum_rb"] == 6208818
        for rec, row in zip(records, back):
            assert row == {k: getattr(rec, k) for k in row}

    def test_empty_exports(self):
        assert export_census([], ExportFormat.JSON_LINES) == ""
        assert export_census([], ExportFormat.CSV).strip() == (
            "n,r_b,n_b,r_h,n_h,sum_r,sum_n,sum_rb,sum_nb,sum_rh,sum_nh"
        )

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            import_census("1,2,3\n", ExportFormat.CSV)
