#!/usr/bin/env python3
"""Quickstart: simulate one network under uniform traffic.

Builds the paper's 64-node two-dilated cube MIN (the winner of the
study), offers uniform traffic at 40% of injection bandwidth, and prints
the steady-state latency/throughput measurement.

Run:  python examples/quickstart.py [tmin|dmin|vmin|bmin] [load]
"""

import sys

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import run_point
from repro.experiments.workload_spec import WorkloadSpec
from repro.traffic.workload import MessageSizeModel


def main() -> None:
    kind = sys.argv[1] if len(sys.argv) > 1 else "dmin"
    load = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4

    # 1. The network: 64 nodes, 4x4 switches, 3 stages -- the paper's
    #    geometry.
    network = NetworkConfig(kind, k=4, n=3, topology="cube")

    # 2. The run protocol: warm up for 300 deliveries, then measure a
    #    steady-state window of 1500 more.  Short messages keep the
    #    example to seconds (MessageSizeModel.paper() gives the
    #    paper's 8-1024 flits).
    run_cfg = RunConfig(
        name="quickstart",
        warmup_packets=300,
        measure_packets=1_500,
        max_cycles=100_000,
        sizes=MessageSizeModel.scaled(),
        seed=42,
    )

    # 3. Uniform Poisson traffic at the requested offered load: the
    #    point pipeline assembles the simulation, warms up, measures.
    traffic = WorkloadSpec(pattern="uniform", k=4, n=3)
    m = run_point(network, traffic.builder(run_cfg), load, run_cfg)

    print(f"network : {kind.upper()} (64 nodes, 4x4 switches, 3 stages)")
    print(f"load    : {load:.0%} of injection bandwidth per node")
    print(f"cycles  : {m.cycles:.0f} measured ({m.delivered_packets} packets)")
    print(f"latency : {m.avg_latency:.1f} cycles avg "
          f"({m.avg_latency_us:.2f} us at 20 flits/us), p95 {m.p95_latency:.0f}")
    print(f"thruput : {m.throughput_percent:.1f}% of max theoretical")
    print(f"queues  : max {m.max_queue_len} "
          f"({'sustainable' if m.sustainable else 'saturated'})")


if __name__ == "__main__":
    main()
