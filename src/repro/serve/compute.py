"""Executing one :class:`~repro.serve.job.PointSpec` to a cache payload.

This is the module workers import: :func:`run_point_spec` must be a
picklable module-level callable (it crosses the task queue), and its
output must be *canonically serializable* so a cached record is
byte-equal to a fresh recomputation (``tests/serve/test_cache.py``
proves this for every network on both engines).

Every point runs on the point pipeline of
:mod:`repro.experiments.runner` -- the same code the figures use, so
the service's answers are the repro's answers.  Plain points go
through :func:`~repro.experiments.runner.run_point`; faulted and
transport points stack their layers on
:func:`~repro.experiments.runner.build_point`, with the engine choice
honored.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.runner import build_point, run_point
from repro.faults.recovery import RetryPolicy
from repro.metrics.collector import measurement_to_dict
from repro.serve.job import PointSpec
from repro.transport import ReliableTransport, TransportConfig

PAYLOAD_VERSION = 1


def run_point_spec(point: PointSpec) -> dict:
    """Simulate one point; returns the cacheable payload mapping.

    ``point.stability`` selects the overload-toolkit path (bounded
    admission, AIMD governor, watchdog): the payload adds a
    ``stability`` block with the normalized configuration it ran under
    and the steady-state series summary.  ``knee_throughput`` is None
    -- one point cannot know its network's knee -- so the
    classification distinguishes stable from metastable but never
    reports collapse.

    ``point.faults`` overlays MTBF channel churn; ``point.transport``
    hands the sources to a :class:`~repro.transport.ReliableTransport`
    (its own forked stream -- engine and workload draws are untouched)
    instead of offering raw packets.  Without a transport, source retry
    is the fault recovery layer; with one, retransmission is, so no
    retry is stacked.  A transport payload adds a ``transport`` block
    with the normalized configuration and the end-to-end tallies.
    """
    run_cfg = point.run.with_seed(point.seed)
    if point.stability is not None:
        from repro.experiments.stability import stability_point
        from repro.stability import BoundedQueue

        stab = point.stability
        sp = stability_point(
            point.network,
            run_cfg,
            point.load,
            knee_throughput=None,
            admission=BoundedQueue(capacity=stab["capacity"], mode=stab["mode"]),
            governed=stab["governed"],
            watchdog=stab["watchdog"],
            batches=stab["batches"],
            engine=point.engine,
            workload=point.workload,
        )
        return {
            "version": PAYLOAD_VERSION,
            "measurement": measurement_to_dict(sp.measurement),
            "stability": {
                "config": dict(stab),
                "classification": sp.stability,
                "steady": {
                    "samples": sp.steady.samples,
                    "truncation": sp.steady.truncation,
                    "mean": sp.steady.mean,
                    "cv": sp.steady.cv,
                    "drift": sp.steady.drift,
                },
                "mean_rate": sp.mean_rate,
                "stall_events": sp.stall_events,
                "sheds": sp.sheds,
                "throttles": sp.throttles,
            },
        }
    faults, cfg = point.faults, point.transport
    transport: Optional[ReliableTransport] = None
    if faults is None and cfg is None:
        measurement = run_point(
            point.network,
            point.workload.builder(run_cfg),
            point.load,
            run_cfg,
            engine=point.engine,
        )
    else:
        sim = build_point(point.network, point.load, run_cfg, point.engine)
        if cfg is not None:
            transport = sim.reliable(TransportConfig(**cfg))
        elif faults is not None:
            sim.retry(RetryPolicy(max_attempts=faults.max_attempts))
        if faults is not None:
            sim.churn(faults.rate, faults.mttr, faults.severity)
        sim.install(point.workload.builder(run_cfg)(point.load))
        measurement, _ = sim.measure(run_cfg)
    payload = {
        "version": PAYLOAD_VERSION,
        "measurement": measurement_to_dict(measurement),
    }
    if cfg is None or transport is None:
        return payload
    settled = sum(1 for o in transport.outcomes.values() if o == "delivered")
    payload["transport"] = {
        "config": dict(cfg),
        "messages_sent": transport.messages_sent,
        "messages_delivered": transport.messages_delivered,
        "messages_aborted": transport.messages_aborted,
        "flows_aborted": transport.flows_aborted,
        "acks_lost": transport.acks_lost,
        "delivered_ratio": (
            settled / len(transport.outcomes) if transport.outcomes else None
        ),
    }
    return payload
