"""Time the set-up of one fresh process and print the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is everything before a workload's first pass: importing condwalk,
parsing the laws and configs, the Cramér tilt and making the temporary
cache directory.  The clock starts at the top of this script, so the
interpreter's own start-up is left out.  run.py calls this several times
per run and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

plan = workloads.setup(sys.argv[1], int(sys.argv[2]), HERE.parent / ".perfbench")
elapsed = time.perf_counter() - START
shutil.rmtree(plan.tmp)
print(repr(elapsed))
