"""The benchmark's side of a qrcensus process.

    child.py loop SPEC RESULT   import qrcensus once, then run one CLI command
                                through qrcensus.cli.main over and over in
                                this process (the in-process workloads)
    child.py once SPANS ARGV..  run one CLI command with the tracer installed
                                and write its spans to SPANS (the traced ops
                                of the fresh-process workloads)
    child.py check              install the tracer; exit 1 if an
                                entry point it wraps is missing

Run with PYTHONPATH pointing at the built copy of the package.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import time

import probe
from tracer import Tracer

_now = time.perf_counter

#: How often the loop samples the memory of its process tree during an op.
RSS_PERIOD_S = 0.05


def _pss_kb(pid):
    """Proportional set size of one process: shared pages count once over
    all the processes that map them."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _children(pid):
    kids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except FileNotFoundError:
            pass
    return kids


class TreeMemory:
    """Samples the summed PSS of this process and its children (the pool
    workers) every RSS_PERIOD_S; peak() gives the largest sum since the
    last reset()."""

    def __init__(self):
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self):
        me = os.getpid()
        total = _pss_kb(me) + sum(_pss_kb(kid) for kid in _children(me))
        self._peak = max(self._peak, total)

    def _run(self):
        while not self._stop.wait(RSS_PERIOD_S):
            self._sample()

    def reset(self):
        self._peak = 0
        self._sample()

    def peak(self):
        self._sample()
        return self._peak

    def close(self):
        self._stop.set()
        self._thread.join()


def _run_op(cli, argv, checkpoint, tracer, op_id):
    with contextlib.suppress(FileNotFoundError):
        os.remove(checkpoint)
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.op = op_id
        tracer.install()
    t0 = _now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
    t1 = _now()
    if tracer:
        tracer.uninstall()
    try:
        with open(checkpoint, encoding="utf-8") as fh:
            saved = fh.read()
    except FileNotFoundError:
        saved = None
    return {"wall_s": t1 - t0, "start": t0, "exit": code, "traced": tracer is not None,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "checkpoint": saved}


def _loop(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from qrcensus import cli, laws

    ready = _now()
    cpus = sorted(os.sched_getaffinity(0))
    tracer = Tracer() if spec["trace"] else None
    argv, checkpoint = spec["argv"], spec["checkpoint"]
    memory = TreeMemory()
    ops = []
    unit_walls = []
    start = _now()
    speed = probe.read(cpus)
    while not stop_looping(unit_walls, _now() - start, spec):
        unit = 0.0
        for traced in unit_order(len(unit_walls), tracer is not None):
            memory.reset()
            op = _run_op(cli, argv, checkpoint, tracer if traced else None, len(ops))
            op["unit"] = len(unit_walls)
            op["peak_kb"] = memory.peak()
            after = probe.read(cpus)
            probe.scale(op, speed, after)
            speed = after
            ops.append(op)
            unit += op["wall_s"]
        unit_walls.append(unit)
    memory.close()
    result = {
        "ready": ready,
        "ops": ops,
        "spans": tracer.spans if tracer else [],
        "chunk": laws.DEFAULT_CHUNK,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


#: A run always measures this many units (one op, or an untraced + traced
#: pair) unless that would take longer than HARD_LIMIT_S, so that every
#: median has samples to choose from.
MIN_UNITS = 5
HARD_LIMIT_S = 100


def unit_order(number, trace):
    """Whether each op of unit `number` is traced: a traced run runs each
    command untraced and traced, alternating which goes first so that
    neither gains from its position."""
    if not trace:
        return (False,)
    return (False, True) if number % 2 == 0 else (True, False)


def stop_looping(unit_walls, elapsed, spec):
    """Whether a closed loop that has run unit_walls in elapsed seconds
    should stop rather than start another unit."""
    if spec["max_units"] is not None:
        return len(unit_walls) >= spec["max_units"]
    if not unit_walls:
        return False
    next_end = elapsed + statistics.median(unit_walls)
    if len(unit_walls) < MIN_UNITS:
        return next_end > HARD_LIMIT_S
    return next_end > spec["seconds"]


def _once(spans_path, argv):
    tracer = Tracer()
    from qrcensus import cli

    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "loop":
        _loop(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "once":
        sys.exit(_once(sys.argv[2], sys.argv[3:]))
    elif sys.argv[1] == "check":
        Tracer().install()
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
