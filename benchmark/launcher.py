"""Spawn ops from a small process, so each op's peak RSS is its own.

Linux carries a process's peak RSS across exec, and a child created by
fork or vfork starts from its parent's memory.  An op spawned by the
benchmark process, which holds numpy and the workload's tables, would
report at least that process's size.  This process is a bare interpreter.

Reads one JSON request per line, {"argv", "cwd", "env", "stdout",
"stderr"}, runs it and answers {"wall_s", "maxrss_kb", "code"}: wall time
from spawn to reaped, and ``ru_maxrss`` from ``os.wait4``.  Exits at the
end of its input; on SIGTERM it kills the running op first.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": code}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
