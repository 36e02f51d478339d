"""Run a command; write its wall time, peak RSS and exit code as JSON.

    python3 bench/launch.py result.json -- python3 -m litscan classify ...

The peak RSS that wait4 reports for a child includes the RSS of the process
that forked it, up to the child's exec. bench/run.py starts every timed
command through this small process, so that figure is the command's own
rather than the benchmark's.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "exit_code": code}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
