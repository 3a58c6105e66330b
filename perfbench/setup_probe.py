"""Print the seconds a fresh interpreter takes from before ``import nlrouter``
to the end of one workload's warm-up (one call of each of its job kinds).

    python3 perfbench/setup_probe.py WORKLOAD

perfbench/run.py starts this several times per run and reports the median
as ``setup_s``, so work moved into import or first-call caches shows.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import nlrouter  # noqa: E402,F401  (timed: importing is part of set-up)
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warm_up()
print(time.perf_counter() - _START)
