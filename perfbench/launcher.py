"""Spawn the benchmark's jobs from a process that holds almost nothing.

Usage: python3 -I -S perfbench/launcher.py  (started by run.py)

A new process starts out counting its parent's resident pages, and
``ru_maxrss`` keeps that high-water mark through ``exec``.  Spawned from
the benchmark's own process, which holds every job's output until the
oracle has read it, each job would report that process's size.  Spawned
from here, a job reports its own peak: this interpreter, started
without ``site``, is smaller than any job's.

Each request is one line on stdin: TIMEOUT, STDOUT_PATH, STDERR_PATH
and the command, separated by tabs.  Each reply is one line on stdout:
wall seconds from spawn to exit, CLOCK_MONOTONIC at spawn, exit code,
``ru_maxrss`` in KiB, and 1 if the job was killed at the timeout.
"""

import os
import signal
import sys
import time


def main() -> None:
    child = 0
    killed = False

    def kill(signum, frame):
        nonlocal killed
        killed = True
        os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        timeout, out_path, err_path, *cmd = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, write, 0o644),
        ]
        killed = False
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        child = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
        signal.alarm(int(timeout))
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        print(wall, spawn, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
              int(killed), flush=True)


if __name__ == "__main__":
    main()
