"""Small process that starts the benchmark's jobs and reports their usage.

A child forked from a process inherits that process's resident size into its
``ru_maxrss``, so jobs are not forked from the benchmark (which holds parsed
outputs) but from this process, which stays at the size of a bare
interpreter.

Protocol: one JSON request a line on stdin,
``{"argv", "cwd", "stdout", "stderr", "timeout", "memory"}``; one JSON reply
a line on stdout, ``{"rc", "wall_s", "maxrss_kb", "cpu_s", "timed_out"}``.
The process exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    limit = req["memory"]

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    fired = threading.Event()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, preexec_fn=limit_memory,
        )

        def expire() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "timed_out": fired.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
