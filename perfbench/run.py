#!/usr/bin/env python3
"""The qrcensus benchmark: four workloads, every output checked.

    python3 perfbench/run.py --workload sweep|sweep-par|laws|desk \\
        --seed N --seconds S --trace 0|1

Run it from the root of a qrcensus source tree.  It copies the package
sources into .bench_build/, builds that copy with the tree's own
``setup.py build_ext --inplace`` (once per source hash) and imports
qrcensus from there, so it measures whatever backend that build yields.

One operation is one user command, run in a closed loop by one client.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each
command untraced and traced, and reports per-layer metrics from the
traced ones (see layers.py) plus the tracing overhead.  The last line of
stdout is one JSON object; the lines before it are the same figures for a
human.  Any output that fails its check makes the exit code 1; a tree
that cannot be built or run gives exit code 2 and no JSON line.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import child
import layers
import probe

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "sweep-par", "laws", "desk")

SETUP_SAMPLES = 11
OP_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840
P90_TAIL = 10  # op_s_p90 needs this many samples above it

_now = time.perf_counter


class BenchError(Exception):
    """The tree could not be built or run; no result is printed."""


# --------------------------------------------------------------------------
# build and environment

_TOP_FILES = ("setup.py", "setup.cfg", "pyproject.toml", "README.md", "MANIFEST.in")
_SKIP_DIRS = {"__pycache__", "build"}


def _source_files(root):
    files = [root / name for name in _TOP_FILES if (root / name).is_file()]
    for path in sorted((root / "src").rglob("*")):
        rel = path.relative_to(root).parts
        if (path.is_file() and path.suffix not in (".so", ".pyc")
                and not any(p in _SKIP_DIRS or p.endswith(".egg-info") for p in rel)):
            files.append(path)
    return files


def _clean_env(extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("QRCENSUS_PURE", "QRCENSUS_NO_EXT", "PYTHONPATH")}
    env.update(extra)
    return env


def build(root, work):
    """A built copy of the package sources, reused while they are unchanged."""
    files = _source_files(root)
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    key = digest.hexdigest()[:16]
    tree = work / f"tree-{key}"
    stamp = tree / "BUILD.json"
    if stamp.is_file():
        info = json.loads(stamp.read_text(encoding="utf-8"))
        info["cached"] = True
        return tree, info
    tmp = Path(tempfile.mkdtemp(dir=work, prefix="building-"))
    try:
        for path in files:
            dest = tmp / path.relative_to(root)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dest)
        t0 = _now()
        try:
            proc = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=tmp, env=_clean_env({"TMPDIR": str(work)}), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"build took over {BUILD_TIMEOUT_S} s") from exc
        build_s = _now() - t0
        log = proc.stdout.decode(errors="replace")
        if proc.returncode != 0:
            raise BenchError(f"setup.py build_ext failed ({proc.returncode}):\n{log[-2000:]}")
        info = {"source_sha256_16": key, "build_s": build_s}
        (tmp / "BUILD.json").write_text(json.dumps(info), encoding="utf-8")
        (tmp / "BUILD.log").write_text(log, encoding="utf-8")
        try:
            tmp.rename(tree)
        except OSError:  # another run finished the same build first
            shutil.rmtree(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    info["cached"] = False
    return tree, info


_PROBE = """
import json
from qrcensus import kernel
info = {"backend": kernel.BACKEND,
        "reason": "the compiled extension imported"}
if info["backend"] == "pure":
    try:
        import qrcensus._speedups
        info["reason"] = "the compiled extension imports but was not selected"
    except ImportError as exc:
        info["reason"] = f"ImportError: {exc}"
print(json.dumps(info))
"""


def _llc_bytes():
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def _git_sha(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


class Context:
    """Where one run builds and writes, and the process that starts its
    commands (launch.py).  Close it to stop that process."""

    def __init__(self, root, run_dir, tree, build_info):
        self.root = root
        self.run_dir = run_dir
        self.tree = tree
        self.build_info = build_info
        self.env = _clean_env({"PYTHONPATH": str(tree / "src"), "TMPDIR": str(run_dir)})
        self.python = sys.executable
        self.cpus = sorted(os.sched_getaffinity(0))
        self.nproc = len(self.cpus)
        # single-process workloads run on one CPU, read by probe.py between ops
        self.pin = self.cpus[-1]
        self._files = 0
        self._launcher = subprocess.Popen(
            [self.python, str(HERE / "launch.py")], env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def path(self, stem):
        self._files += 1
        return self.run_dir / f"{self._files:05d}-{stem}"

    def spawn(self, argv, timeout=OP_TIMEOUT_S, cpus=None):
        """Run argv to completion; its wall, exit code, peak RSS and output.
        With cpus, also its wall at reference speed, from probe readings of
        those CPUs right before and right after it."""
        before = probe.read(cpus) if cpus else None
        out_path, err_path = self.path("stdout"), self.path("stderr")
        self._launcher.stdin.write(json.dumps({
            "argv": argv, "stdout": str(out_path), "stderr": str(err_path),
            "timeout": timeout}) + "\n")
        self._launcher.stdin.flush()
        answer = self._launcher.stdout.readline()
        if not answer:
            raise BenchError("the launcher process died")
        result = json.loads(answer)
        if cpus:
            probe.scale(result, before, probe.read(cpus))
        result["stdout"] = out_path.read_text(encoding="utf-8", errors="replace")
        result["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return result

    def environment(self):
        probe = self.spawn([self.python, "-c", _PROBE])
        if probe["exit"] != 0:
            raise BenchError(f"cannot import the built package:\n{probe['stderr'][-2000:]}")
        info = json.loads(probe["stdout"])
        info.update({
            "nproc": self.nproc,
            "python": platform.python_version(),
            "git_sha": _git_sha(self.root),
            "source_sha256_16": self.build_info["source_sha256_16"],
            "llc_bytes": _llc_bytes(),
            "build_s": self.build_info["build_s"],
            "build_cached": self.build_info["cached"],
        })
        return info

    def use_cpus(self, cpus):
        """Run this process, and every command it starts from now on, on cpus."""
        os.sched_setaffinity(0, cpus)
        os.sched_setaffinity(self._launcher.pid, cpus)
        return cpus

    def setup_seconds(self):
        """Median time of a fresh interpreter that imports qrcensus (the
        import selects the backend), scaled and raw.  One import first
        byte-compiles the copy."""
        argv = [self.python, "-c", "import qrcensus"]
        cpus = self.use_cpus([self.pin])
        self.spawn(argv)
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc = self.spawn(argv, cpus=cpus)
            if proc["exit"] != 0:
                raise BenchError(f"import qrcensus failed:\n{proc['stderr'][-2000:]}")
            samples.append(proc)
        return (statistics.median(s["scaled_s"] for s in samples),
                statistics.median(s["wall_s"] for s in samples))


# --------------------------------------------------------------------------
# workloads


class Op:
    """One user command and the check of its output."""

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _sweep_op(lo, hi, mode, jobs):
    flags = checks.sieve(hi)
    if mode == "strict":
        # strict mode rejects exactly the primes p = 1 (mod 4), whose r_b is (p-1)/4
        expected = [p for p in range(lo, hi + 1, 2) if flags[p] and p % 4 == 1]
    else:
        # corrected mode fails only where r_b(n) = (n-1)/4 for a composite: 9 alone
        expected = [9] if lo <= 9 <= hi else []
    argv = ["sweep", "--from", str(lo), "--to", str(hi), "--mode", mode, "--jobs", str(jobs)]
    return Op(argv, lambda op: checks.check_sweep(op, lo, hi, mode, expected, flags))


def _laws_op(lo, hi):
    flags = checks.sieve(hi)
    argv = ["laws", "--law", "all", "--from", str(lo), "--to", str(hi)]
    return Op(argv, lambda op: checks.check_laws(op, lo, hi, flags))


# The desk mix: each command's share is its number of examples in the CLI
# section of README.md (classify 9, census 35 --details, pairs 175, table 23
# and table 7, annex).  Each cycle is shuffled.
_DESK_CYCLE = ("classify", "census", "pairs", "table", "table", "annex")
# moduli are log-uniform from the smallest README example (table 7) up to
# each command's documented bound
_DESK_RANGES = {"classify": (7, 10 ** 6), "census": (7, 10 ** 5),
                "pairs": (7, 10 ** 5), "table": (7, 401)}
_TABLE_FORMATS = ("plain", "ansi", "csv", "html")
_PAIRS_FORMATS = ("json", "plain", "csv")
_BANDS = 8


def desk_ops(ctx, seed):
    """The seeded desk mix: a fixed share of each command, with odd moduli
    log-uniform over the command's range and stratified over bands, so that
    every run sees small and large requests in the same proportions."""
    rng = random.Random(seed)
    bands = {}
    goldens = {w: (ctx.root / "tests" / "fixtures" / f"annex{w}_golden.txt")
               for w in ("1", "2")}

    def modulus(kind):
        left = bands.setdefault(kind, [])
        if not left:
            left.extend(rng.sample(range(_BANDS), _BANDS))
        band = left.pop()
        lo, hi = _DESK_RANGES[kind]
        n = int(lo * (hi / lo) ** ((band + rng.random()) / _BANDS)) | 1
        return min(n, hi)

    while True:
        cycle = list(_DESK_CYCLE)
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "annex":
                which = rng.choice("12")
                golden = goldens[which].read_text(encoding="utf-8")
                yield Op(["annex", "--which", which],
                         lambda op, g=golden: checks.check_annex(op, g))
                continue
            n = modulus(kind)
            if kind == "classify":
                yield Op(["classify", str(n)], lambda op, n=n: checks.check_classify(op, n))
            elif kind == "census":
                yield Op(["census", str(n), "--details"],
                         lambda op, n=n: checks.check_census(op, n))
            elif kind == "pairs":
                fmt = rng.choice(_PAIRS_FORMATS)
                yield Op(["pairs", str(n), "--format", fmt],
                         lambda op, n=n, f=fmt: checks.check_pairs(op, n, f))
            else:
                fmt = rng.choice(_TABLE_FORMATS)
                order = ("residues-first" if checks.is_prime(n) and rng.random() < 0.5
                         else "natural")
                highlight = rng.choice(("residues", "small", "none"))
                yield Op(["table", str(n), "--format", fmt, "--order", order,
                          "--highlight", highlight],
                         lambda op, n=n, f=fmt, o=order, h=highlight:
                         checks.check_table(op, n, f, o, h))


# The op of each fixed workload.  Larger ops (sweep to 20001, the pool sweep
# to 30001, laws to 3001) take 5-14 s each on the pure backend, too long for
# a median of many ops in one run; these take 0.7-2 s.  The pool sweep is the
# README's strict example, `sweep --from 3 --to 10001 --mode strict`.
SWEEP = (3, 10001)
SWEEP_PAR = (3, 10001)
LAWS = (3, 1001)

WHAT = {
    "sweep": f"sweep --from {SWEEP[0]} --to {SWEEP[1]} --checkpoint <tmp>, serial, "
             "in-process after one import",
    "sweep-par": f"sweep --from {SWEEP_PAR[0]} --to {SWEEP_PAR[1]} --mode strict "
                 "--jobs <nproc> --checkpoint <tmp>, in-process",
    "laws": f"python -m qrcensus laws --law all --from {LAWS[0]} --to {LAWS[1]}, "
            "a fresh process per op",
    "desk": "seeded mix of fresh python -m qrcensus classify/census/pairs/table/annex processes",
}


# --------------------------------------------------------------------------
# running


class Checker:
    """Checks each op's output once per distinct (command, exit, output)."""

    def __init__(self):
        self._seen = {}
        self.failures = []

    def __call__(self, op, record):
        key = (tuple(op.argv), record["exit"],
               hashlib.sha256(record["stdout"].encode()).hexdigest(),
               hashlib.sha256((record.get("checkpoint") or "").encode()).hexdigest())
        if key not in self._seen:
            try:
                self._seen[key] = op.check(record)
            except Exception as exc:  # a malformed output must count, not crash the run
                self._seen[key] = f"check raised {type(exc).__name__}: {exc}"
        reason = self._seen[key]
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")
            if record.get("stderr"):
                self.failures.append("  stderr: " + record["stderr"].strip()[-300:])
        return reason is None


def run_in_process(ctx, op, seconds, trace, max_units):
    """Run op's command repeatedly inside one benchmark-owned process."""
    checkpoint = ctx.path("sweep.ckpt")
    spec = {"argv": op.argv + ["--checkpoint", str(checkpoint)], "checkpoint": str(checkpoint),
            "seconds": seconds, "trace": bool(trace), "max_units": max_units}
    spec_path, result_path = ctx.path("spec.json"), ctx.path("result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = ctx.spawn([ctx.python, str(HERE / "child.py"), "loop", str(spec_path),
                      str(result_path)], timeout=child.HARD_LIMIT_S + 60)
    if proc["exit"] != 0:
        raise BenchError(f"in-process runner failed ({proc['exit']}):\n{proc['stderr'][-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    op_records = result["ops"]
    for rec in op_records:
        rec["argv"] = op.argv
        rec["stdout_bytes"] = len(rec["stdout"].encode())
    # the runner's start-up, spawn until qrcensus is imported and ready, at
    # the speed read before its first op
    startup = {"wall_s": result["ready"] - proc["start"]}
    first = op_records[0]["probe_s"][0]
    probe.scale(startup, first, first)
    extra = {"startup": startup, "chunk": result["chunk"]}
    rss = [rec["peak_kb"] / 1024 for rec in op_records if not rec["traced"]]
    return op_records, result["spans"], rss, extra


def run_fresh(ctx, ops, seconds, trace, max_units, checker, cpus):
    """Run each op as its own `python -m qrcensus` process, closed loop,
    checking each output before the next op starts."""
    records, spans, rss = [], [], []
    unit_walls = []
    spec = {"seconds": seconds, "max_units": max_units}
    start = _now()
    for op in ops:
        if child.stop_looping(unit_walls, _now() - start, spec):
            break
        unit = 0.0
        for traced in child.unit_order(len(unit_walls), trace):
            if traced:
                spans_path = ctx.path("spans.json")
                argv = [ctx.python, str(HERE / "child.py"), "once", str(spans_path)] + op.argv
            else:
                argv = [ctx.python, "-m", "qrcensus"] + op.argv
            rec = ctx.spawn(argv, cpus=cpus)
            rec.update(argv=op.argv, traced=traced, fresh_process=True, unit=len(unit_walls),
                       stdout_bytes=len(rec["stdout"].encode()))
            if traced:
                op_spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
                base = len(spans)
                for s in op_spans:
                    s[3] = s[3] + base if s[3] >= 0 else -1
                    s[4] = len(records)
                rec["main_s"] = sum(s[2] - s[1] for s in op_spans if s[0] == "cli.main")
                spans.extend(op_spans)
            else:
                rss.append(rec["maxrss_kb"] / 1024)
            rec["ok"] = checker(op, rec)
            del rec["stdout"]
            records.append(rec)
            unit += rec["wall_s"]
        unit_walls.append(unit)
    return records, spans, rss, {}


def run_workload(ctx, name, seed, seconds, trace, max_units=None):
    """Run one workload; returns the report dict that main() prints."""
    op = None
    if name == "sweep":
        op = _sweep_op(*SWEEP, "corrected", 1)
    elif name == "sweep-par":
        op = _sweep_op(*SWEEP_PAR, "strict", ctx.nproc)
    elif name == "laws":
        op = _laws_op(*LAWS)
    if trace:
        ready = ctx.spawn([ctx.python, str(HERE / "child.py"), "check"])
        if ready["exit"] != 0:
            raise BenchError(f"the tracer does not fit this tree:\n{ready['stderr'][-2000:]}")
    checker = Checker()
    cpus = ctx.use_cpus(ctx.cpus if name == "sweep-par" else [ctx.pin])
    if name in ("sweep", "sweep-par"):
        records, spans, rss, extra = run_in_process(ctx, op, seconds, trace, max_units)
        for rec in records:
            rec["ok"] = checker(op, rec)
    else:
        ops = itertools.repeat(op) if name == "laws" else desk_ops(ctx, seed)
        records, spans, rss, extra = run_fresh(ctx, ops, seconds, trace, max_units, checker,
                                               cpus)

    failed = sum(not rec["ok"] for rec in records)
    untraced = [rec for rec in records if not rec.get("traced")]
    scaled = [rec["scaled_s"] for rec in untraced]
    walls = [rec["wall_s"] for rec in untraced]
    report = {
        "attempted": len(records),
        "failed": failed,
        "failures": checker.failures,
        "ops_untraced": len(untraced),
        "op_s_p50": statistics.median(scaled),
        "op_s_p90": _p90(scaled),
        "wall_s_p50": statistics.median(walls),
        "wall_s_p90": _p90(walls),
        "peak_rss_mb": statistics.median(rss),
        "peak_rss_mb_max": max(rss),
    }
    if name in ("sweep", "sweep-par"):
        lo, hi = int(op.argv[2]), int(op.argv[4])
        report["moduli"] = (hi - lo) // 2 + 1
        report["moduli_per_s"] = report["moduli"] / report["op_s_p50"]
    if trace:
        report["layers"] = _layer_metrics(name, op, records, spans, extra)
        report["spans"] = spans
    return report


def _p90(samples):
    """The 90th percentile, defined once ten samples lie above it."""
    if len(samples) * 0.1 < P90_TAIL:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def _layer_metrics(name, op, records, spans, extra):
    traced = [rec for rec in records if rec.get("traced")]
    # renumber spans from record indices to traced-op indices
    position = {i: k for k, i in enumerate(
        i for i, rec in enumerate(records) if rec.get("traced"))}
    spans = [s[:4] + [position.get(s[4], -1)] + s[5:] for s in spans]
    computed = {}
    if "startup" in extra:
        computed["cli.startup_s"] = extra["startup"]["scaled_s"]
    if name in ("sweep", "sweep-par") and extra.get("chunk"):
        lo, hi = int(op.argv[2]), int(op.argv[4])
        steps = layers.chunk_steps(lo, hi, extra["chunk"])
        computed["laws.chunks"] = len(steps)
        computed["laws.largest_chunk_step_share"] = max(steps) / sum(steps)
        if name == "sweep-par":  # the kernel runs in the untraced pool workers
            computed["kernel.calls"] = len(steps)
            computed["kernel.walk_steps"] = sum(steps)
    out = layers.summarize(spans, traced, computed=computed)
    # each unit runs one command untraced and traced
    units = {}
    for rec in records:
        units.setdefault(rec["unit"], {})[rec["traced"]] = rec["scaled_s"]
    ratios = [u[True] / u[False] for u in units.values() if len(u) == 2]
    out["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    return out


# --------------------------------------------------------------------------
# reporting


def _baseline_backend():
    try:
        doc = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return doc.get("backend")


def _print_header(args, env):
    print(f"perfbench  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print(f"command    {WHAT[args.workload]}")
    print(f"backend    {env['backend']}  ({env['reason']})")
    llc = f"{env['llc_bytes']} B" if env["llc_bytes"] else "unknown"
    print(f"host       nproc={env['nproc']}  python={env['python']}  llc={llc}")
    print(f"source     git={env['git_sha']}  sha256[:16]={env['source_sha256_16']}")
    print(f"build      {env['build_s']:.2f} s{' (cached)' if env['build_cached'] else ''}")
    expected = _baseline_backend()
    if expected and expected != env["backend"]:
        banner = (f"!!! BACKEND CHANGED: the baseline was measured on the {expected!r} "
                  f"backend, this build runs {env['backend']!r}; compare with care !!!")
        print(banner)
        print(banner, file=sys.stderr)


def _fmt(value, digits=4):
    return "n/a" if value is None else f"{value:.{digits}f}"


def _print_end_to_end(rep, setup, setup_wall):
    """Times are at reference speed (probe.py); the raw wall follows each."""
    ops = rep["ops_untraced"]
    rows = [
        ("setup_s", _fmt(setup), "s",
         f"median of {SETUP_SAMPLES} fresh imports; raw wall {setup_wall:.4f}"),
        ("op_s_p50", _fmt(rep["op_s_p50"]), "s",
         f"median of {ops} ops; raw wall {rep['wall_s_p50']:.4f}"),
        ("op_s_p90", _fmt(rep["op_s_p90"]), "s",
         f"{ops} ops; raw wall {_fmt(rep['wall_s_p90'])}" if rep["op_s_p90"] is not None
         else f"needs {P90_TAIL * 10} ops, have {ops}"),
        ("moduli_per_s", _fmt(rep.get("moduli_per_s"), 1), "1/s",
         f"{rep['moduli']} odd moduli per op at op_s_p50" if "moduli" in rep else "no sweep"),
        ("peak_rss_mb", _fmt(rep["peak_rss_mb"], 1), "MB",
         f"median over ops of each op's peak; largest {rep['peak_rss_mb_max']:.1f}"),
        ("failed_frac", _fmt(rep["failed"] / rep["attempted"]), "1",
         f"{rep['failed']} of {rep['attempted']} ops failed"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<14}{value:>12} {unit:<4} {note}")


def _print_layers(out):
    wall_share = 0.0
    print(f"  {'layer':<12}{'self s/op':>12}{'share':>9}")
    for layer in layers.LAYERS:
        print(f"  {layer:<12}{out[layer + '.self_s']:>12.5f}{out[layer + '.share']:>9.1%}")
        wall_share += out[layer + ".share"]
    if out["cli.startup_share"]:
        print(f"  {'(startup)':<12}{out['cli.startup_s']:>12.5f}{out['cli.startup_share']:>9.1%}")
        wall_share += out["cli.startup_share"]
    print(f"  {'total':<12}{'':>12}{wall_share:>9.1%}")
    if out["laws.sweep_self_s"] and out["kernel.busy_s"]:
        kernel, oracle, gap = (out["kernel.busy_s"], out["modmath.oracle_busy_s"],
                               out["laws.sweep_self_s"])
        total = kernel + oracle + gap
        print(f"  sweep: kernel {kernel:.4f} s + oracle {oracle:.4f} s + sweep self "
              f"{gap:.4f} s = {total:.4f} s per op ({gap / total:.2%} outside kernel and oracle)")
    print(f"  tracing overhead: median over {out['trace.ops']} pairs of traced / untraced op "
          f"= {out['trace.overhead_ratio']:.4f}")
    for name, unit in layers.METRICS.items():
        print(f"  {name:<40}{out[name]:>18.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "setup.py").is_file() or not (root / "src" / "qrcensus").is_dir():
        print("perfbench: run from the root of a qrcensus source tree "
              "(no setup.py and src/qrcensus here)", file=sys.stderr)
        return 2
    work = root / ".bench_build"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work, prefix="run-"))
    ctx = None
    try:
        tree, build_info = build(root, work)
        ctx = Context(root, run_dir, tree, build_info)
        env = ctx.environment()
        _print_header(args, env)
        setup, setup_wall = ctx.setup_seconds()
        rep = run_workload(ctx, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if ctx is not None:
            ctx.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    _print_end_to_end(rep, setup, setup_wall)
    if args.trace:
        _print_layers(rep["layers"])
        trace_file = work / f"last-trace-{args.workload}.json"
        trace_file.write_text(json.dumps({"environment": env, "spans": rep["spans"],
                                          "metrics": rep["layers"]}), encoding="utf-8")
        print(f"  spans written to {trace_file.relative_to(root)}")
        metrics = {name: {"value": rep["layers"][name], "unit": unit}
                   for name, unit in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "op_s_p50": {"value": rep["op_s_p50"], "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    for line in rep["failures"]:
        print(f"FAILED {line}")
    correct = rep["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
