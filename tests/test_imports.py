"""What a process imports: the package and each command load only the
modules they run, in a fresh interpreter each, since this suite's own
process has long since imported everything."""

import json
import os
import subprocess
import sys

import pytest

_WATCHED = ("fractions", "qrcensus.laws", "qrcensus.redundancy", "qrcensus.report")


def _fresh(code):
    """Run code in a new interpreter on this suite's import path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def _loaded(code):
    proc = _fresh(code + "\nimport json, sys\n"
                  f"print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))\n")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_by_command(argv):
    return _loaded(
        "import contextlib, io\n"
        "from qrcensus.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_package_import_loads_no_lazy_module():
    assert _loaded("import qrcensus") == set()


@pytest.mark.parametrize("argv", [
    ["census", "35", "--details"],
    ["pairs", "175", "--classes"],
    ["table", "7"],
    ["annex", "--which", "1"],
])
def test_desk_commands_load_no_laws(argv):
    loaded = _loaded_by_command(argv)
    assert "qrcensus.laws" not in loaded and "fractions" not in loaded


@pytest.mark.parametrize("argv", [
    ["classify", "11"],
    ["laws", "--law", "L1", "--to", "30"],
])
def test_laws_commands_load_no_report(argv):
    loaded = _loaded_by_command(argv)
    assert "qrcensus.report" not in loaded and "qrcensus.redundancy" not in loaded


def test_star_import_binds_all():
    proc = _fresh(
        "import json, qrcensus\n"
        "names = {}\n"
        "exec('from qrcensus import *', names)\n"
        "print(json.dumps([sorted(set(qrcensus.__all__) - set(names)),\n"
        "                  sorted(set(qrcensus.__all__) - set(dir(qrcensus)))]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_census_stays_the_function():
    proc = _fresh(
        "import qrcensus, qrcensus.census\n"
        "assert callable(qrcensus.census), qrcensus.census\n"
        "qrcensus.render_annex1\n"
        "import qrcensus.report\n"
        "assert callable(qrcensus.census), qrcensus.census\n"
        "assert qrcensus.census(35).r_b == 7\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_is_attribute_error():
    proc = _fresh("import qrcensus\nassert not hasattr(qrcensus, 'no_such_name')\n")
    assert proc.returncode == 0, proc.stderr


# main()'s except clauses for CheckpointError and WorkerLost name laws
# classes; a command that never loads laws must still reach the clauses
# below them.
def test_table_output_error_without_laws(tmp_path):
    target = tmp_path / "missing" / "t.txt"
    proc = _fresh(
        "import sys\n"
        "from qrcensus.cli import main\n"
        f"code = main(['table', '7', '--output', {str(target)!r}])\n"
        "assert 'qrcensus.laws' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("qrcensus table: i/o error: ")
    assert len(proc.stderr.splitlines()) == 1


def test_table_interrupt_without_laws():
    proc = _fresh(
        "import sys\n"
        "import qrcensus.report\n"
        "def interrupted(spec):\n"
        "    raise KeyboardInterrupt\n"
        "qrcensus.report.render_mult_table = interrupted\n"
        "from qrcensus.cli import main\n"
        "code = main(['table', '7'])\n"
        "assert 'qrcensus.laws' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "qrcensus table: interrupted\n"
