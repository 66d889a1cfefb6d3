"""The census gate: every entry point that censuses or walks n refuses n at
or above the dense ceiling (kernel.dense_modulus) before it factors n or,
for a range, before its first modulus."""

import sys

import pytest

import qrcensus.census  # noqa: F401  (the package binds the name to the function)
from qrcensus import kernel, redundancy
from qrcensus.census import census, tallies
from qrcensus.cli import main
from qrcensus.laws import check_law, classify, sweep

M61 = 2**61 - 1  # a prime: trial division of it runs for minutes


@pytest.fixture
def no_census_work(monkeypatch):
    def refuse(n):
        raise AssertionError(f"census work on {n} ran before the census gate")

    for module in (sys.modules["qrcensus.census"], redundancy, kernel):
        monkeypatch.setattr(module, "factorize", refuse)


@pytest.mark.parametrize("call", [
    lambda: tallies(M61),
    lambda: census(M61),
    lambda: classify(M61),
    lambda: check_law("L2", p=M61),
    lambda: redundancy.zero_square_roots(M61),
    lambda: sweep(3, M61),
], ids=["tallies", "census", "classify", "check_law", "zero_square_roots", "sweep"])
def test_refused_before_census_work(no_census_work, call):
    with pytest.raises(ValueError, match=r"n < 2\*\*31"):
        call()


@pytest.mark.parametrize("command", ["classify", "census"])
def test_cli_refuses_with_one_line(no_census_work, capsys, command):
    code = main([command, str(M61)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"qrcensus {command}: error: dense census supports n < 2**31, got {M61}\n"
