#!/usr/bin/env python3
"""Parallel four-network comparison with ASCII curves.

Runs the Fig. 18a comparison (four networks, global uniform traffic)
on the sweep service's supervised workers -- every (network, load)
point its own task, bit-identical to the sequential runner -- then
draws the latency-vs-throughput curves as text.

Run:  python examples/parallel_comparison.py [workers]
"""

import sys
import time
from dataclasses import replace

from repro.experiments.config import SCALED
from repro.experiments.figures import FOUR_NETWORKS
from repro.experiments.parallel import parallel_matrix
from repro.experiments.plotting import ascii_curve_plot
from repro.experiments.workload_spec import WorkloadSpec


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None
    cfg = replace(
        SCALED, loads=(0.1, 0.2, 0.4, 0.6, 0.8, 1.0), measure_packets=800
    )
    spec = WorkloadSpec(pattern="uniform")

    start = time.perf_counter()
    sweeps = parallel_matrix(
        list(FOUR_NETWORKS), spec, cfg, max_workers=workers
    )
    elapsed = time.perf_counter() - start
    print(
        f"{len(FOUR_NETWORKS) * len(cfg.loads)} simulation points in "
        f"{elapsed:.1f}s across {workers or 'all'} workers\n"
    )

    for s in sweeps:
        print(f"{s.label:<34} max sustained {s.max_sustained_throughput():5.1f}%")
    print()
    # Clip the y axis: deep-saturation latencies would squash the knees.
    print(ascii_curve_plot(sweeps, max_latency=800))


if __name__ == "__main__":
    main()
