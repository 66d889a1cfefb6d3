import gc
import json

import pytest

from conftest import load_fixture
from qrcensus import cli, kernel
from qrcensus.laws import ThresholdMode, WorkerLost
from qrcensus.cli import main
from qrcensus.report import Ordering, TableFormat


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

    def test_details_needs_json(self, capsys):
        code, _, err = run_cli(capsys, "census", "9", "--details", "--format", "csv")
        assert code == 1 and "json" in err

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
        code, _, err = run_cli(capsys, "sweep", "--from", "3", "--to", "51",
                               "--checkpoint", str(tmp_path / "nope" / "ck.json"))
        assert code == 2 and "checkpoint" in err

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
    ])
    def test_parser_choices_are_the_enum_values(self, choices, enum):
        assert sorted(choices) == sorted(m.value for m in enum)
        assert len(set(choices)) == len(choices)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "census", "35", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["r_b"] == 7

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "census", "35", "--output",
                               str(tmp_path / "nope" / "out.json"))
        assert code == 2 and "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "census", "35", "--frobnicate")
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

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
