"""Child launcher for bench/run.py.

Linux counts the memory of the process that forked a child into the child's
ru_maxrss, so the benchmark's children are started from this small process
instead of from run.py, which holds numpy, the oracles and whole outputs.

It also pins itself, and so every child, to one CPU.  On a shared virtual
machine each vCPU's speed drifts on its own; with one CPU for all children,
a workload invocation and the reference runs next to it see the same drift.

Reads one JSON request per line on stdin, {"cmd": [...], "timeout": s}, runs
the command to completion (killing it after `timeout` seconds), and answers
with one JSON line {"returncode", "wall_s", "maxrss_kb"}.  Exits at EOF.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"returncode": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
