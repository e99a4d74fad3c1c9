"""Time one workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <scratch dir>``;
prints the seconds from before the first ``repro`` import to the end
of :func:`workloads.setup`, normalized to the reference speed.
"""

import sys
import time
from pathlib import Path

import speed

before = speed.probe()
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], Path(sys.argv[2]))
seconds = time.perf_counter() - start
print(f"{speed.normalize(seconds, before, speed.probe()):.9f}")
