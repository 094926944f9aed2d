"""Run one command; print its exit code, wall time and peak RSS as JSON.

Usage: ``python3 bench/launch.py STDOUT_FILE STDERR_FILE COMMAND...``

Peak RSS comes from ``wait4``: the largest process in the tree the command
reaped, so it covers pool workers too.  Linux also counts into it the
memory of the process that spawned the command, so commands are spawned
from this small process rather than from the benchmark itself.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    out_path, err_path, *cmd = argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
