"""One set-up measurement in a fresh interpreter, for ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD

Times importing epsym, building the workload's patterns, cumulant tables
and Coxeter representations through the library's constructors, and one
fixed warm-up item, then prints the seconds taken.
"""

import sys
import time

t0 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402  (imports epsym)

workload = WORKLOADS[sys.argv[1]]()
workload.call(workload.prepare(workload.warmup))
print(repr(time.perf_counter() - t0))
