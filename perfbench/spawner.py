"""Spawn the benchmark's children from a process that holds almost nothing.

Linux starts a new program's peak RSS (``ru_maxrss``) at the peak of the
process that spawned it, so a child spawned by a large harness reads the
harness's size.  This process imports only what it needs, so every child
it spawns reports its own peak.

Protocol, one JSON object per line: the first line on stdin is the
environment for every child; each later line is a request
``{"argv": [...], "cwd": DIR, "stdout": FILE, "stderr": FILE,
"timeout_s": N}``.  For each request one line is written back:
``{"rc": ..., "spawned_ns": ..., "exited_ns": ..., "rss_kb": ...}``.  A
child still running after ``timeout_s`` is killed.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    env = json.loads(sys.stdin.readline())
    running = [0]

    def on_alarm(signum, frame):
        if running[0]:
            try:
                os.kill(running[0], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        request = json.loads(line)
        stdout = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        stderr = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, stdout, 1),
            (os.POSIX_SPAWN_DUP2, stderr, 2),
        ]
        argv = request["argv"]
        os.chdir(request["cwd"])
        spawned = time.monotonic_ns()
        running[0] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, request["timeout_s"]))
        _, status, usage = os.wait4(running[0], 0)
        exited = time.monotonic_ns()
        running[0] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.close(stdout)
        os.close(stderr)
        sys.stdout.write(json.dumps({
            "rc": os.waitstatus_to_exitcode(status), "spawned_ns": spawned,
            "exited_ns": exited, "rss_kb": usage.ru_maxrss,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
