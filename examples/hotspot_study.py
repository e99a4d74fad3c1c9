#!/usr/bin/env python3
"""Hot-spot study: how the four networks degrade around the knee.

Sweeps offered load through the hot node's saturation point for the
paper's 5% hot-spot workload (Fig. 19a) and prints the latency /
throughput table for each network.  Note the structural ceiling: with
P(hot) = (1+y)/(N+y) and y = N*x, the hot node's single delivery
channel caps aggregate steady-state throughput near 25% no matter the
network -- the networks differ in *latency* below the knee.

Run:  python examples/hotspot_study.py [hot_fraction]
"""

import sys
from dataclasses import replace

from repro.experiments.config import SCALED
from repro.experiments.figures import FOUR_NETWORKS
from repro.experiments.report import render_sweep
from repro.experiments.runner import sweep
from repro.experiments.workload_spec import WorkloadSpec


def main() -> None:
    x = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    n_members = 64
    y = n_members * x
    p_hot = (1 + y) / (n_members + y)
    print(f"hot-spot fraction x = {x:.0%}  ->  y = Nx = {y:.1f}, "
          f"P(hot) = {p_hot:.1%} of all messages")
    print(f"structural knee: aggregate throughput <= "
          f"{100 / (n_members * p_hot):.1f}% of capacity\n")

    cfg = replace(
        SCALED,
        loads=(0.05, 0.10, 0.15, 0.20, 0.25),
        warmup_packets=200,
        measure_packets=800,
    )
    wb = WorkloadSpec(pattern="hotspot", hot_fraction=x).builder(cfg)
    for net in FOUR_NETWORKS:
        print(render_sweep(sweep(net, wb, cfg, label=net.label)))
        print()
    print("Reading: DMIN keeps the lowest latency as the knee nears; the")
    print("TMIN climbs fastest (single path through the saturation tree).")


if __name__ == "__main__":
    main()
