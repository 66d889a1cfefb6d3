"""Self-check of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py -q     (from the repo root, ~1 min)

Two traced runs of each workload must give the same counts, the computed
values must hold, every output check must reject a corrupted output, and
the benchmark must refuse a directory without the qrcensus sources.
"""

import collections
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

import checks
import layers
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent

# counts that depend only on the commands run, never on timing
REPEATED = (
    "kernel.calls", "kernel.walk_steps", "modmath.oracle_calls", "census.tallies_calls",
    "census.tallies_distinct", "laws.checkpoint_writes", "laws.checkpoint_bytes",
    "laws.chunks", "redundancy.pairs_emitted", "report.bytes_out", "cli.output_bytes",
    *(f"laws.law_reports.{law}" for law in layers.LAW_IDS),
)

# one untraced + traced pair per unit; desk needs a longer prefix of its mix
UNITS = {"sweep": 1, "sweep-par": 1, "laws": 1, "desk": 22}


@pytest.fixture(scope="module")
def ctx():
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work, prefix="selfcheck-"))
    tree, info = run.build(ROOT, work)
    context = run.Context(ROOT, run_dir, tree, info)
    yield context
    context.close()
    shutil.rmtree(run_dir, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(ctx):
    """Two traced runs of every workload, same seed, fixed number of ops."""
    return {name: [run.run_workload(ctx, name, 7, 0, 1, max_units=UNITS[name])
                   for _ in range(2)]
            for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    assert first["failed"] == second["failed"] == 0, first["failures"] + second["failures"]
    for key in REPEATED:
        assert first["layers"][key] == second["layers"][key], key


def test_computed_values(traced):
    sweep = traced["sweep"][0]["layers"]
    assert run.SWEEP == (3, 10001)
    assert sweep["kernel.walk_steps"] == 12_502_500
    assert sweep["modmath.oracle_calls"] == 5_000
    assert sweep["laws.chunks"] == 3
    par = traced["sweep-par"][0]["layers"]
    assert run.SWEEP_PAR == (3, 10001)
    assert par["kernel.walk_steps"] == 12_502_500
    assert par["laws.chunks"] == 3
    assert round(par["laws.largest_chunk_step_share"], 3) == 0.503
    laws = traced["laws"][0]["layers"]
    assert run.LAWS == (3, 1001)
    assert sum(laws[f"laws.law_reports.{law}"] for law in layers.LAW_IDS) == 1129


def test_chunk_steps_of_the_larger_sweeps():
    """The step counts of sweeps to 20001 and 30001 (the pool one cut into
    8 uneven chunks), worked out without running them."""
    assert sum(layers.chunk_steps(3, 20001, 2048)) == 50_005_000
    steps = layers.chunk_steps(3, 30001, 2048)
    assert (len(steps), sum(steps)) == (8, 112_507_500)
    assert round(max(steps) / sum(steps), 3) == 0.242


def test_desk_mix_spans_each_documented_range():
    """The desk mix keeps the README's shares of commands and draws moduli
    from the smallest README example up to each command's bound."""
    ops = list(zip(range(6 * 40), run.desk_ops(types.SimpleNamespace(root=ROOT), 3)))
    kinds = collections.Counter(op.argv[0] for _, op in ops)
    assert kinds == {"classify": 40, "census": 40, "pairs": 40, "table": 80, "annex": 40}
    for kind, (lo, hi) in run._DESK_RANGES.items():
        moduli = [int(op.argv[1]) for _, op in ops if op.argv[0] == kind]
        assert all(lo <= n <= hi and n % 2 for n in moduli), kind
        # eight log-uniform bands: the lowest and the highest are both drawn
        assert min(moduli) < lo * (hi / lo) ** (1 / 8) + 1, kind
        assert max(moduli) >= int(lo * (hi / lo) ** (7 / 8)), kind


def test_tracer_refuses_a_missing_entry_point(monkeypatch):
    monkeypatch.setattr(tracer, "PATCHES", (
        ("json", "dumps", "json.dumps", None, False),
        ("json", "no_such_function", "json.nothing", None, False),
    ))
    original = json.dumps
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer().install()
    assert json.dumps is original


def test_sweep_accounting(traced):
    """kernel + oracle + sweep self time cover the serial sweep's op wall."""
    out = traced["sweep"][0]["layers"]
    covered = out["kernel.busy_s"] + out["modmath.oracle_busy_s"] + out["laws.sweep_self_s"]
    wall = sum(out[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert covered / wall > 0.99


def test_benchmark_json_matches_the_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "op_s_p50", "peak_rss_mb"]
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])


def _op(ctx, *argv):
    rec = ctx.spawn([ctx.python, "-m", "qrcensus", *argv])
    return {"exit": rec["exit"], "stdout": rec["stdout"]}


def _corrupt(op, old, new):
    assert old in op["stdout"]
    return {**op, "stdout": op["stdout"].replace(old, new, 1)}


def test_checks_reject_corrupted_output(ctx):
    annex = (ROOT / "tests" / "fixtures" / "annex2_golden.txt").read_text(encoding="utf-8")
    op = _op(ctx, "annex", "--which", "2")
    assert checks.check_annex(op, annex) is None
    assert checks.check_annex(_corrupt(op, "33 →", "33 ->"), annex)

    op = _op(ctx, "classify", "10001")
    assert checks.check_classify(op, 10001) is None
    assert checks.check_classify({**op, "exit": 3}, 10001)
    assert checks.check_classify(_corrupt(op, '"oracle_prime": false', '"oracle_prime": true'),
                                 10001)

    op = _op(ctx, "census", "1225", "--details")
    assert checks.check_census(op, 1225) is None
    assert checks.check_census(_corrupt(op, '"r_b": ', '"r_b": 1'), 1225)

    for fmt in ("json", "plain", "csv"):
        op = _op(ctx, "pairs", "175", "--format", fmt)
        assert checks.check_pairs(op, 175, fmt) is None, fmt
        assert checks.check_pairs(_corrupt(op, "16", "17"), 175, fmt), fmt

    for fmt in ("plain", "ansi", "csv", "html"):
        for order, highlight in (("natural", "residues"), ("residues-first", "small")):
            op = _op(ctx, "table", "23", "--format", fmt, "--order", order,
                     "--highlight", highlight)
            assert checks.check_table(op, 23, fmt, order, highlight) is None, (fmt, order)
            assert checks.check_table(_corrupt(op, "22", "21"), 23, fmt, order, highlight)
        # highlighted cells where none were asked for; CSV carries no highlight
        op = _op(ctx, "table", "7", "--format", fmt, "--highlight", "residues")
        wrong = checks.check_table(op, 7, fmt, "natural", "none")
        assert (wrong is None) == (fmt == "csv"), fmt

    flags = checks.sieve(3001)
    op = _op(ctx, "laws", "--law", "all", "--from", "3", "--to", "301")
    assert checks.check_laws(op, 3, 301, flags) is None
    assert checks.check_laws(_corrupt(op, '"holds": true', '"holds": false'), 3, 301, flags)
    lines = op["stdout"].splitlines(keepends=True)
    assert checks.check_laws({**op, "stdout": "".join(lines[1:])}, 3, 301, flags)

    flags = checks.sieve(101)
    expected = [p for p in range(3, 102) if flags[p] and p % 4 == 1]
    ck = ctx.path("check.ckpt")
    op = _op(ctx, "sweep", "--from", "3", "--to", "101", "--mode", "strict",
             "--checkpoint", str(ck))
    op["checkpoint"] = ck.read_text(encoding="utf-8")
    assert checks.check_sweep(op, 3, 101, "strict", expected, flags) is None
    assert checks.check_sweep(_corrupt(op, '{"counterexample": 5}\n', ""), 3, 101, "strict",
                              expected, flags)


def test_refuses_a_directory_without_sources():
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
