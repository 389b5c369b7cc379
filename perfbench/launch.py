"""Run one command and report its own resource usage on a file descriptor.

    python3 -S perfbench/launch.py FD PROGRAM [ARG ...]

On Linux a child's ru_maxrss starts from the RSS of the process that forked
it, so a command forked straight from the benchmark client, which holds
large outputs, would report the client's memory as its own. This launcher is
small, imports nothing beyond the interpreter's core, and forks the command
itself. After the command exits it writes one line to FD:

    <spawn time> <exit time> <exit code> <max RSS in KiB> <user CPU s> <system CPU s>

Times are time.monotonic(), which on Linux is one clock for every process.
The command inherits stdin, stdout and stderr; FD is not passed on.
"""

import os
import sys
import time


def main() -> int:
    report = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report, False)
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    # Drop this process's copy of stdout, so the reader sees end-of-file as
    # soon as the command closes its own.
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    fields = (
        start,
        end,
        os.waitstatus_to_exitcode(status),
        usage.ru_maxrss,
        usage.ru_utime,
        usage.ru_stime,
    )
    os.write(report, (" ".join(repr(f) for f in fields) + "\n").encode())
    os.close(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
