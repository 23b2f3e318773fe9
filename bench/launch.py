"""Start the benchmark's child processes from a small process of their own.

    python3 bench/launch.py    # reads jobs on stdin, one JSON line each

On Linux a child's `ru_maxrss` counts the memory of the process that
started it: the spawning process's peak RSS is carried over at `exec`.
Started from `run.py`, whose checks hold whole distance matrices, every
command would report at least the checker's peak.  This process stays
small, so the peak RSS it reads is the command's own.  Each job is
`{"argv": [...], "out": path, "err": path}`; for each it prints one JSON
line `[wall seconds, peak RSS in MB, exit code]`.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    job = json.loads(line)
    with open(job["out"], "w") as out, open(job["err"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss / 1024.0, proc.returncode]), flush=True)
