"""How fast a CPU runs right now, read in the gaps between operations.

On a shared host one CPU can run the same command up to twice as slowly
for seconds at a time while a neighbour loads its core, and the other CPU
may not be slowed at all.  So the benchmark pins each single-process
workload to one CPU and, right before and right after every operation,
times a fixed slice of pure-Python work on each CPU the operation uses:
its CPU time is how long the slice takes on that core at that moment.
Nothing else of the benchmark runs while an operation does, so the slice
never competes with the program under test for its core or caches.

An operation's wall is scaled by REFERENCE_S over the mean of the two
readings around it, so it reads as the seconds it would take on an
unloaded core of the reference host.  The raw walls are reported too.
"""

import os
import statistics
import time

#: Median slice cost in CPU seconds on an unloaded core of the reference
#: host (2 vCPU at 2.1 GHz, Python 3.11.7).  It fixes the unit of the
#: scaled times only.
REFERENCE_S = 0.00085

#: Slices per reading; the median drops the first, cold one.
SLICES = 9


def _walk(n=20_001):
    # the same incremental-square walk the census kernel runs
    seen = bytearray(n)
    s, add, count = 0, -1, 0
    for _ in range((n - 1) // 2):
        add += 2
        s += add
        if s >= n:
            s -= n
        if not seen[s]:
            seen[s] = 1
            count += 1
    return count


def read(cpus):
    """Median CPU seconds of one slice on the slowest of cpus, measured now
    by moving the calling thread onto each of them in turn."""
    saved = os.sched_getaffinity(0)
    worst = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            costs = []
            for _ in range(SLICES):
                c0 = time.thread_time()
                _walk()
                costs.append(time.thread_time() - c0)
            worst = max(worst, statistics.median(costs))
    finally:
        os.sched_setaffinity(0, saved)
    return worst


def scale(rec, before, after):
    """Add "scaled_s", the record's wall at reference speed, and the two
    readings it was scaled by."""
    rec["probe_s"] = [before, after]
    rec["scaled_s"] = rec["wall_s"] * REFERENCE_S * 2 / (before + after)
