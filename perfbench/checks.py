"""Output checks and the results digest.

The checks hold under any engine RNG protocol: they bound what every
correct simulation must produce, never compare against a recorded
value, so a change that draws randomness differently still passes.
The digest is the opposite: it changes with any simulated bit, so a
change claiming a host-only speed-up can show its output is unchanged.
It is recorded, never gated on.
"""

from __future__ import annotations

import hashlib


def min_hops(kind: str, n: int) -> int:
    """Channels crossed by the shortest route of an n-stage MIN fabric.

    A unidirectional MIN route crosses every stage (injection, n-1
    inter-stage links, delivery); the shortest BMIN route joins two
    nodes of one first-stage switch and turns around there (injection,
    delivery).
    """
    if kind == "bmin":
        return 2
    if kind in ("tmin", "dmin", "vmin"):
        return n + 1
    raise ValueError(f"no hop-count floor for fabric {kind!r}")


def check_measurement(m, network, run_cfg, smallest: int) -> list[str]:
    """Every way ``m`` (a ``Measurement``) breaks a law; empty when sound.

    ``smallest`` is the shortest message in flits the point can carry
    (the size model's floor, or a transport ack when that is shorter).

    * at least one packet was delivered in the window;
    * average latency is at least the zero-load latency of the
      shortest route carrying the smallest message: a worm of L flits
      over h channels needs h cycles for its header plus L-1 for the
      rest, so no packet can beat ``h_min + L_min - 1`` cycles;
    * accepted throughput lies in (0, 1] flits per node-cycle;
    * the window reached its delivery target, unless it ran out of
      its cycle budget.
    """
    problems = []
    if not m.delivered_packets > 0:
        problems.append(f"delivered_packets={m.delivered_packets} is not positive")
    floor = min_hops(network.kind, network.n) + smallest - 1
    if not m.avg_latency >= floor:  # also catches NaN
        problems.append(f"avg_latency={m.avg_latency} below zero-load floor {floor}")
    if not 0.0 < m.throughput <= 1.0:
        problems.append(f"throughput={m.throughput} outside (0, 1]")
    if m.delivered_packets < run_cfg.measure_packets and m.cycles < run_cfg.max_cycles:
        problems.append(
            f"window stopped at {m.delivered_packets} of {run_cfg.measure_packets} "
            f"packets after {m.cycles} of {run_cfg.max_cycles} cycles"
        )
    return problems


def results_digest(measurements) -> str:
    """SHA-256 over the canonical JSON of every measurement, in order."""
    from repro.metrics.collector import measurement_to_dict
    from repro.serve.canonical import payload_json

    h = hashlib.sha256()
    for m in measurements:
        h.update(payload_json(measurement_to_dict(m)).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
