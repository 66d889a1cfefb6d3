"""Starts the benchmark's commands from a small process of its own.

The peak RSS that wait4 reports for a child is at least the peak RSS of
the process that started it, because exec accounts the memory the child
leaves behind.  The benchmark's own process grows while it checks outputs,
so it starts every timed command through this one, which stays small.

It reads one JSON request per line on stdin and answers one JSON line on
stdout:

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
    {"start": T0, "wall_s": WALL, "exit": CODE, "maxrss_kb": KB}

The command gets this process's environment and CPU affinity.
"""

import json
import os
import signal
import sys
import time


def main():
    child = {}

    def kill(signum, frame):
        try:
            os.kill(child["pid"], signal.SIGKILL)
        except (KeyError, ProcessLookupError):
            pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            t0 = time.perf_counter()
            child["pid"] = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                                          file_actions=actions)
            _, status, usage = os.wait4(child["pid"], 0)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            child.clear()
        print(json.dumps({"start": t0, "wall_s": wall,
                          "exit": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
