"""Set-up time of one workload in a fresh process.

Times ``import momentcpt``, loading the packaged critical-value table and the
workload's first call; generating that call's input is left out. Prints
``{"setup_s": ...}``. Started by run.py as ``setup_probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

t0 = perf_counter()
import momentcpt  # noqa: E402

momentcpt.default_table()
t1 = perf_counter()

import json  # noqa: E402

from perfbench.workloads import PLAIN, build  # noqa: E402

workload = build(sys.argv[1], int(sys.argv[2]))
t2 = perf_counter()
workload.call(workload.pool[0], PLAIN)
t3 = perf_counter()
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
