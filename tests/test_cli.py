import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import load_fixture
from qrcensus import cli, kernel
from qrcensus.laws import LAW_IDS, ThresholdMode, WorkerLost, check_law
from qrcensus.cli import main
from qrcensus.report import HighlightMode, Ordering, TableFormat


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensusCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "census", "35")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 35 and doc["r_b"] == 7
        assert doc["zero_square_roots"] == []

    def test_details(self, capsys):
        code, out, _ = run_cli(capsys, "census", "9", "--details")
        doc = json.loads(out)
        assert doc["residues"] == [1, 4, 7]
        assert [4, 2] in doc["details"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "census", "23", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,r_b,")
        row = lines[1].split(",")
        assert row[0] == "23" and row[7] == "33" and row[8] == "33"

    def test_details_needs_json(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("census ran before the usage check")

        monkeypatch.setattr(cli, "census", refuse)
        code, _, err = run_cli(capsys, "census", "9", "--details", "--format", "csv")
        assert code == 1 and "json" in err

    def test_row_without_residue_set(self, capsys, monkeypatch):
        # Without --details the row comes from the tallies alone, so a
        # census near the 2**31 ceiling stays within the kernel's table.
        def refuse(n):
            raise AssertionError(f"built the residue set of {n}")

        monkeypatch.setattr(sys.modules["qrcensus.census"], "quadratic_residue_set", refuse)
        code, out, _ = run_cli(capsys, "census", "35")
        assert code == 0 and out == (
            '{"n": 35, "r_b": 7, "n_b": 10, "r_h": 4, "n_h": 13, "sum_r": 175, '
            '"sum_n": 420, "sum_rb": 70, "sum_nb": 83, "sum_rh": 105, "sum_nh": 337, '
            '"zero_square_roots": []}\n')
        code, out, _ = run_cli(capsys, "census", "23", "--format", "csv")
        assert code == 0 and out == (
            "n,r_b,n_b,r_h,n_h,sum_r,sum_n,sum_rb,sum_nb,sum_rh,sum_nh\n"
            "23,7,4,4,7,92,161,33,33,59,128\n")

    # Moduli with square factors, so the zero-square roots are not empty.
    SQUAREFUL = (9, 175, 3**7, 1225, 2873, 3757, 9973)

    @pytest.mark.parametrize("extra, digest", [
        ((), "0acd3ae843d5cc160a727cdb3c5d1ce4d962f4d887560f5254c778abf53c88e2"),
        (("--format", "csv"),
         "2ba8825d173ac5e181f6c88e89e8ea137bfb6a45d2162dfb27ba6ef88f353d25"),
        (("--details",), "40330e3e7e8ce9488152e7991b9246d7c0a15c5eeebefe9a9eb14c805f27071e"),
    ], ids=["json", "csv", "details"])
    def test_stream_bytes_pinned(self, capsys, extra, digest):
        text = ""
        for n in self.SQUAREFUL:
            code, out, _ = run_cli(capsys, "census", str(n), *extra)
            assert code == 0
            text += out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_even_modulus_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "census", "8")
        assert code == 1 and "odd" in err


class TestClassifyCommand:
    def test_agreeing_composite(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "35")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 35, "mode": "corrected", "r_b": 7,
            "predicted_prime": False, "oracle_prime": False, "agree": True,
        }

    def test_counterexample_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "9")
        assert code == 3
        assert json.loads(out)["agree"] is False

    def test_strict_mode(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "5", "--mode", "strict")
        assert code == 3
        doc = json.loads(out)
        assert doc["oracle_prime"] and not doc["predicted_prime"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "47", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,mode,r_b,predicted_prime,oracle_prime,agree"
        assert lines[1] == "47,corrected,14,true,true,true"


class TestSweepCommand:
    def test_streams_counterexamples(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--from", "3", "--to", "51", "--mode", "corrected"
        )
        assert code == 3
        lines = out.strip().splitlines()
        assert json.loads(lines[0]) == {"counterexample": 9}
        summary = json.loads(lines[-1])
        assert summary["counterexamples"] == [9]
        assert summary["scanned"] == 25
        assert "scanned" in err  # timing goes to the diagnostic stream

    def test_no_counterexamples_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--from", "3", "--to", "7", "--mode", "corrected"
        )
        assert code == 0
        assert json.loads(out.strip())["counterexamples"] == []

    def test_jobs_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "2001",
                             "--mode", "floor")
        _, out2, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "2001",
                             "--mode", "floor", "--jobs", "3")
        assert out1 == out2

    def test_stderr_counts_the_processes_that_scanned(self, capsys):
        # The range fits one chunk, so the sweep runs in this process alone
        # whatever --jobs asks for; no pool starts.
        code, _, err = run_cli(capsys, "sweep", "--from", "3", "--to", "101",
                               "--jobs", "1000000")
        assert code == 3
        assert " jobs=1: " in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "51",
                               "--mode", "floor", "--format", "csv")
        assert code == 3
        assert out.splitlines() == ["n", "9", "15", "27"]

    def test_checkpoint_and_resume(self, capsys, tmp_path):
        path = str(tmp_path / "ck.json")
        code, out1, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "501",
                                "--checkpoint", path)
        assert code == 3
        doc = json.loads((tmp_path / "ck.json").read_text())
        assert doc["next_unscanned"] == 503
        code, out2, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "501",
                                "--checkpoint", path, "--resume")
        assert code == 3
        assert json.loads(out2.strip().splitlines()[-1])["counterexamples"] == [9]

    def test_bad_checkpoint_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("garbage")
        code, _, err = run_cli(capsys, "sweep", "--from", "3", "--to", "51",
                               "--checkpoint", str(path), "--resume")
        assert code == 2 and "checkpoint" in err

    def test_unwritable_checkpoint_is_io_error(self, capsys, tmp_path):
        # Checked before the first chunk, so 9 is never streamed.
        code, out, err = run_cli(capsys, "sweep", "--from", "3", "--to", "51",
                                 "--checkpoint", str(tmp_path / "nope" / "ck.json"))
        assert code == 2 and "checkpoint" in err and out == ""

    @pytest.mark.parametrize("abort, says", [
        (KeyboardInterrupt(), "interrupted"),
        (WorkerLost("a pool worker died"), "a pool worker died"),
    ])
    def test_abort_is_io_error_in_one_line(self, capsys, monkeypatch, abort, says):
        def aborted(*args, **kwargs):
            raise abort

        monkeypatch.setattr(cli, "sweep", aborted)
        code, _, err = run_cli(capsys, "sweep", "--from", "3", "--to", "51",
                               "--checkpoint", "ck.json")
        assert code == 2
        assert err.splitlines() == [f"qrcensus sweep: {says}; resume from checkpoint ck.json"]

    def test_range_above_census_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--from", "3", "--to",
                                 "2147483649")
        assert code == 1 and out == ""
        assert "2**31" in err and "2147483649" in err


class TestLawsCommand:
    def test_single_law(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "L7", "--from", "3",
                               "--to", "103")
        assert code == 0
        docs = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [d["params"]["p"] for d in docs] == [7, 23, 31, 47, 71, 79, 103]
        assert all(d["holds"] for d in docs)
        assert docs[0]["lhs"] == 3

    def test_all_laws_hold(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "all", "--from", "3",
                               "--to", "301")
        assert code == 0
        docs = [json.loads(ln) for ln in out.strip().splitlines()]
        exact = [d for d in docs if d["law"].startswith("L")]
        approx = [d for d in docs if d["law"].startswith("A")]
        assert exact and approx
        assert all(d["holds"] for d in exact)
        assert all("rel_error" in d for d in approx)

    def test_rational_sides_serialized(self, capsys):
        _, out, _ = run_cli(capsys, "laws", "--law", "A3", "--from", "35",
                            "--to", "35")
        doc = json.loads(out.strip())
        assert doc["params"] == {"p": 5, "q": 7}
        assert doc["rhs"] == 4 and doc["rel_error"] == "3/4"

    def test_unknown_law_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "laws", "--law", "L99")
        assert code == 1 and "unknown law" in err

    def test_a3_censuses_stay_in_range(self, capsys):
        # r_b(p**2) for p = 46351 would need a census of 2148415201 > 2**31
        code, out, _ = run_cli(capsys, "laws", "--law", "A3", "--from",
                               "139047", "--to", "139053")
        assert code == 0
        docs = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [d["params"] for d in docs] == [
            {"p": 3, "q": 46349}, {"p": 3, "q": 46351},
            {"p": 11, "q": 12641}, {"p": 211, "q": 659},
        ]
        assert all(d["holds"] for d in docs)

    def test_csv_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "L7", "--from", "3",
                               "--to", "31", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "law,params,lhs,rhs,holds,rel_error"
        assert lines[1] == "L7_SUMRB_7MOD8,p=7,3,3,true,"

    # Every law to 3001: rational and integral Fraction sides, notes,
    # rel_error and a None holds all occur.
    ALL_TO_3001 = ("laws", "--law", "all", "--from", "3", "--to", "3001")

    def test_stream_bytes_pinned(self, capsys):
        code, out, _ = run_cli(capsys, *self.ALL_TO_3001)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bf67a6c229f13feed7ef57110f80e68a590a039215a453b04360578a430d0714")
        code, out, _ = run_cli(capsys, *self.ALL_TO_3001, "--format", "csv")
        assert code == 0 and out.count("\n") == 3162
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0b5e85af2ad7a07aed99f6180aca6aecdd7412e48febdddb58ab1ea2c036e448")

    def test_lines_match_the_reference_encoding(self, capsys):
        # The writer's reference: a dict of each report, through json.dumps.
        def num(value):
            if isinstance(value, Fraction):
                return int(value) if value.denominator == 1 else str(value)
            return value

        def reference(rep):
            doc = {"law": rep.law_id, "params": dict(rep.params),
                   "lhs": num(rep.lhs), "rhs": num(rep.rhs), "holds": rep.holds}
            if rep.rel_error is not None:
                doc["rel_error"] = num(rep.rel_error)
            if rep.notes:
                doc["notes"] = dict(rep.notes)
            return json.dumps(doc)

        _, out, _ = run_cli(capsys, *self.ALL_TO_3001)
        lines = out.splitlines()
        assert len(lines) == 3161
        for line in lines:
            doc = json.loads(line)
            assert line == reference(check_law(doc["law"], **doc["params"]))

    def test_per_law_timings_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "laws", "--law", "all", "--from", "3",
                                 "--to", "301")
        assert code == 0
        *timings, summary = err.splitlines()
        assert len(timings) == len(LAW_IDS) == 13
        docs = [json.loads(line) for line in timings]
        assert [d["law"] for d in docs] == list(LAW_IDS)
        assert all(set(d) == {"law", "reports", "seconds"} for d in docs)
        assert all(d["seconds"] >= 0 for d in docs)
        laws = [json.loads(line)["law"] for line in out.splitlines()]
        assert [d["reports"] for d in docs] == [laws.count(law) for law in LAW_IDS]
        assert summary == f"laws: {len(laws)} reports, 0 violations"


    def test_range_above_census_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "laws", "--law", "L1", "--to",
                                 "3000000000")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "L1_EXACT_4K1" in err and "2**31" in err and "3000000000" in err

    def test_l10_censuses_nothing_so_has_no_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "L10", "--to",
                               "3000000000")
        assert code == 0
        docs = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [d["params"] for d in docs] == [
            {"a": 3, "b": 5}, {"a": 3, "b": 7}, {"a": 5, "b": 7}
        ]


class TestTableCommand:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "table", "7", "--order", "residues-first")
        assert code == 0
        assert out.splitlines()[0].split("|")[1].split() == ["1", "2", "4"]

    def test_residues_first_composite_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "15", "--order", "residues-first")
        assert code == 1 and "prime" in err

    def test_html(self, capsys):
        code, out, _ = run_cli(capsys, "table", "7", "--format", "html")
        assert code == 0 and '<td class="cyan">' in out

    def test_small_highlight(self, capsys):
        code, out, _ = run_cli(capsys, "table", "23", "--order", "residues-first",
                               "--highlight", "small")
        assert code == 0
        data = [ln for ln in out.splitlines() if "|" in ln][1]
        assert data.split("|")[1].count("*") == 7

    def test_none_highlight(self, capsys):
        code, out, _ = run_cli(capsys, "table", "7", "--highlight", "none")
        assert "*" not in out

    @pytest.mark.parametrize("n, digest", [
        (7, "8b9adb82e3d05a00fb3532eedbadf0651b78ae271714397d1ab4a4eacfad41c5"),
        (23, "ee8bf11d9b60eea48bfbc98d623e97bb5423441c987fc42294df27d48b6876da"),
        (45, "b8524cd37139273c91985ea98f3f50917d5a7e1587c0d0e389b13708db7b66f1"),
        (401, "de66ea06270a4fb1d1eb76f439e6f0896bbffc88bab1519d0395806f5630428d"),
    ])
    def test_stream_bytes_pinned(self, capsys, n, digest):
        # Every format and highlight, natural order, and residues first for
        # a prime modulus: one digest over the streams in that order.
        orders = ("natural", "residues-first") if n != 45 else ("natural",)
        text = ""
        for fmt in ("plain", "ansi", "csv", "html"):
            for highlight in ("residues", "small", "none"):
                for order in orders:
                    code, out, _ = run_cli(capsys, "table", str(n), "--format", fmt,
                                           "--highlight", highlight, "--order", order)
                    assert code == 0
                    text += out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_modulus_above_table_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "2049", "--format", "html")
        assert code == 1 and out == ""
        assert err == "qrcensus table: error: table supports n < 2**11, got 2049\n"


class TestPairsCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "pairs", "35")
        assert code == 0
        doc = json.loads(out)
        assert [(p["a"], p["b"]) for p in doc["pairs"]] == [
            (6, 1), (11, 4), (12, 2), (13, 8), (16, 9), (17, 3)
        ]
        assert all(p["modulus_divides"] for p in doc["pairs"])
        assert doc["zero_square_roots_small"] == []

    def test_zero_squares_175(self, capsys):
        _, out, _ = run_cli(capsys, "pairs", "175")
        doc = json.loads(out)
        assert doc["zero_square_roots_small"] == [35, 70]
        assert doc["zero_square_roots"] == [35, 70, 105, 140]
        assert len(doc["pairs"]) == 42

    def test_classes(self, capsys):
        _, out, _ = run_cli(capsys, "pairs", "35", "--classes")
        doc = json.loads(out)
        assert {"shared_square": 1, "members": [1, 6]} in doc["classes"]

    def test_classes_needs_json(self, capsys):
        for fmt in ("csv", "plain"):
            code, out, err = run_cli(capsys, "pairs", "35", "--classes",
                                     "--format", fmt)
            assert code == 1 and out == ""
            assert "--classes is only available with --format json" in err

    def test_plain_witness_lines(self, capsys):
        _, out, _ = run_cli(capsys, "pairs", "35", "--format", "plain")
        assert "(16-9)(16+9) = 7*25 = 175 and 35 | 175" in out

    def test_csv(self, capsys):
        _, out, _ = run_cli(capsys, "pairs", "35", "--format", "csv")
        assert out.splitlines()[1] == "6,1,1,5,7"


    def test_modulus_above_census_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "pairs", "2147483649")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "dense census supports n < 2**31" in err


class TestAnnexCommand:
    def test_annex2_golden(self, capsys):
        code, out, _ = run_cli(capsys, "annex", "--which", "2")
        assert code == 0
        assert out == load_fixture("annex2_golden.txt")

    def test_annex1_golden(self, capsys):
        code, out, _ = run_cli(capsys, "annex", "--which", "1")
        assert code == 0
        assert out == load_fixture("annex1_golden.txt")

    def test_which_required(self, capsys):
        code, _, _ = run_cli(capsys, "annex")
        assert code == 1


class TestPlumbing:
    # The parser holds its choices as literals so that it needs neither
    # laws nor report; each must stay the values of its enum.
    @pytest.mark.parametrize("choices, enum", [
        (cli._MODE_CHOICES, ThresholdMode),
        (cli._ORDER_CHOICES, Ordering),
        (cli._TABLE_FORMAT_CHOICES, TableFormat),
        (cli._HIGHLIGHT_CHOICES, HighlightMode),
    ])
    def test_parser_choices_are_the_enum_values(self, choices, enum):
        assert sorted(choices) == sorted(m.value for m in enum)
        assert len(set(choices)) == len(choices)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("x" * 1000)  # replaced, not appended to
        code, out, _ = run_cli(capsys, "census", "35", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["r_b"] == 7

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "census", "35", "--output",
                               str(tmp_path / "nope" / "out.json"))
        assert code == 2 and "error" in err

    def test_unwritable_output_fails_before_the_command_runs(self, capsys, tmp_path,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: calls.append(args))
        missing = str(tmp_path / "nope" / "x")
        code, out, err = run_cli(capsys, "sweep", "--from", "11", "--to", "60001",
                                 "--output", missing)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("qrcensus sweep: i/o error: ")
        code, out, err = run_cli(capsys, "laws", "--law", "L9", "--to", "15",
                                 "--output", missing)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("qrcensus laws: i/o error: ")

    @pytest.mark.parametrize("argv, expected", [
        (("census", "35"), 0),
        (("sweep", "--from", "3", "--to", "4001", "--format", "csv"), 3),
    ], ids=["census", "sweep-csv"])
    def test_output_to_dev_null(self, capsys, argv, expected):
        # /dev/null takes no truncate, so the writer must not ask for one.
        code, out, err = run_cli(capsys, *argv, "--output", os.devnull)
        assert (code, out) == (expected, "") and "error" not in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            code, out, _ = run_cli(capsys, "sweep", "--from", "3", "--to", "51", "--mode",
                                   "floor", "--format", "csv", "--output", str(fifo))
            assert (code, out) == (3, "")
            assert reader.communicate(timeout=30)[0] == b"n\n9\n15\n27\n"
        finally:
            reader.kill()
            reader.wait()

    # Streams whose bytes pass through the writer, in every shape it
    # handles: streamed rows, a summary, a held-back CSV header with rows
    # and without, and one-shot writes.
    @pytest.mark.parametrize("argv, expected, digest", [
        (("sweep", "--from", "3", "--to", "10001", "--mode", "strict"), 3,
         "199c3e04813306c475172f6370ceb685164fb04a567b610dbb63d9fd03ae965b"),
        (("sweep", "--from", "3", "--to", "10001", "--mode", "strict", "--format", "csv"), 3,
         "90f91155905aec5198d43b6d9b6d31746154a3468b58f3b8bb1200c0867a781f"),
        (("sweep", "--from", "3", "--to", "4001", "--mode", "floor", "--format", "csv"), 3,
         "a7e4016b514d6b14c3e917183c2889accd7129eb352b83976c0d2fab07fe7240"),
        (("sweep", "--from", "3", "--to", "3", "--format", "csv"), 0,
         "a4fb621495a0122493b2203591c448903c472e306a1ede54fabad829e01075c0"),
        (("classify", "9", "--format", "csv"), 3,
         "f56e23bd150dd09df38729c70fc7a6e301e4ec22c059a3d7d06b667c26c151fd"),
        (("pairs", "175", "--format", "csv"), 0,
         "9324a742a8c41f4f04e15bdf12022c96d1b7bbfa887ef4a24143a6da2524a82a"),
        (("laws", "--law", "L9", "--to", "15", "--format", "csv"), 0,
         "20b9ffc2e397e42e9794b6d34d1907e941e4ab9ca07e2cf9c910c599332d35e6"),
    ], ids=["sweep-strict-json", "sweep-strict-csv", "sweep-floor-csv",
            "sweep-header-only", "classify-csv", "pairs-csv", "laws-header-only"])
    def test_stream_bytes_pinned(self, capsys, argv, expected, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Each run fails its checks at the start; the CSV header would be the
    # only output.  "{ck}" is a checkpoint of [3, 501].
    @pytest.mark.parametrize("argv, expected", [
        (("sweep", "--from", "3", "--to", "2147483649"), 1),
        (("sweep", "--from", "4", "--to", "99"), 1),
        (("sweep", "--from", "3", "--to", "99", "--jobs", "0"), 1),
        (("sweep", "--from", "3", "--to", "999", "--checkpoint", "{ck}", "--resume"), 2),
        (("laws", "--to", "2147483649"), 1),
    ], ids=["sweep-ceiling", "sweep-even", "sweep-jobs", "sweep-resume", "laws-ceiling"])
    def test_failed_check_writes_no_csv_header(self, capsys, tmp_path, argv, expected):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({"schema_version": 1, "mode": "corrected", "lo": 3,
                                  "hi": 501, "next_unscanned": 503,
                                  "counterexamples": [9]}))
        argv = [a.format(ck=ck) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, out) == (expected, "")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--from", "3", "--to", "2147483649"),
        ("classify", "4"),
    ], ids=["sweep", "classify"])
    def test_failed_check_keeps_the_output_file(self, capsys, tmp_path, argv):
        target = tmp_path / "keep.json"
        target.write_bytes(b"kept\n")
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (1, "")
        assert target.read_bytes() == b"kept\n"

    def test_run_that_writes_nothing_empties_the_output_file(self, capsys, tmp_path):
        # 15 is the only product of L9's shape up to 15, and L9 excludes it.
        target = tmp_path / "f"
        target.write_bytes(b"old\n")
        code, out, _ = run_cli(capsys, "laws", "--law", "L9", "--to", "15",
                               "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == b""

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "census", "35", "--frobnicate")
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["pairs", "199999999"],
        ["census", "199999999", "--details"],
        ["laws", "--law", "L1", "--from", "3", "--to", "2147483647"],
    ], ids=["pairs", "census", "laws"])
    def test_out_of_memory_is_one_line(self, argv):
        # Each command runs out of a 400 MB address space, set in a child
        # process so that the limit binds nothing else.
        pytest.importorskip("resource")
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)); "
            "from qrcensus.cli import main; "
            f"sys.exit(main({argv!r}))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 1
        assert proc.stderr == f"qrcensus {argv[0]}: error: out of memory\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "census" in out and "sweep" in out

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and "qrcensus" in out
        assert f"kernel: {kernel.BACKEND}" in out

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        # A process that calls main() over and over must not pile up
        # unreachable cycles (an argparse parser per call did) between the
        # collector's full passes.
        argv = ("sweep", "--from", "3", "--to", "101")
        run_cli(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                run_cli(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
