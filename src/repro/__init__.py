"""repro -- switch-based wormhole network simulation and analysis.

A from-scratch reproduction of Ni, Gui & Moore, *Performance Evaluation
of Switch-Based Wormhole Networks* (ICPP'95; TPDS 8(5), 1997): the four
multistage interconnection networks the paper compares (TMIN, DMIN,
VMIN, BMIN), a flit-level wormhole-switching simulator, the turnaround
routing theory, the network-partitionability theory, and the full
evaluation harness that regenerates Figures 16-20.

Typical entry points::

    from repro import build_network, WormholeEngine, Environment
    from repro.experiments import regenerate, SCALED, render_figure

    env = Environment()
    engine = WormholeEngine(env, build_network("dmin", k=4, n=3))
    engine.offer(src=0, dst=63, length=128)
    engine.drain()

Package map (see DESIGN.md for the full inventory):

==================   ====================================================
``repro.sim``        discrete-event kernel (SimPy-style, self-contained)
``repro.topology``   permutations, Delta MINs, the bidirectional MIN,
                     fat-tree view, equivalence/admissibility checks
``repro.routing``    destination-tag and turnaround routing decisions
``repro.partition``  cube clusters; Lemma 1 / Theorems 2-4 checkers
``repro.wormhole``   the flit-level network simulator (channels, VCs,
                     switches, two-phase cycle engine)
``repro.traffic``    uniform / hot-spot / permutation workloads,
                     clusterings, Poisson arrival processes
``repro.metrics``    latency & throughput measurement windows
``repro.analysis``   analytic models and structural throughput bounds
``repro.experiments`` the figure-by-figure evaluation harness
==================   ====================================================
"""

from repro.sim import Environment, RandomStream
from repro.wormhole import (
    Packet,
    PacketState,
    WormholeEngine,
    build_network,
)

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "Packet",
    "PacketState",
    "RandomStream",
    "WormholeEngine",
    "__version__",
    "build_network",
]
