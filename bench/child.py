"""Launch trampoline: run one command, report its wall time and peak RSS.

    python3 -S -E bench/child.py LOG COMMAND [ARG ...]

A process's ``ru_maxrss`` does not start at zero: ``exec`` records the
high-water mark of the address space it replaces, which under ``vfork``
is the spawning process's. Launched straight from the benchmark
process, which holds built networks and hot pages, the program's CLI
reported the benchmark's 900 MiB peak as its own. This trampoline is a
bare interpreter of a few MiB, so the peak ``os.wait4`` returns for the
command it spawns is the command's.

Prints one JSON object: ``wall_s`` (spawn to exit), ``maxrss_kb`` and
``returncode``. The command's output goes to LOG.
"""

import json
import os
import sys
import time


def main() -> int:
    log_path, argv = sys.argv[1], sys.argv[2:]
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawn(
        argv[0], argv, os.environ,
        file_actions=[
            (os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2),
        ],
    )
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    os.close(log)
    print(json.dumps({
        "wall_s": wall_s,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
