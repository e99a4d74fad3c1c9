"""Measurement windows over a running engine.

Usage::

    window = MeasurementWindow(engine)
    ...  # run warmup cycles
    window.begin()
    ...  # run measurement cycles
    m = window.finish()
    print(m.avg_latency, m.throughput_percent, m.sustainable)

The window resets the engine's counters at :meth:`begin` so warmup
traffic never contaminates the measurement, matching the standard
steady-state methodology the paper's experiments imply.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.metrics.summary import LatencySummary
from repro.wormhole.engine import FLITS_PER_MICROSECOND, WormholeEngine

#: "The throughput is considered sustainable when the number of messages
#: queued at their source nodes does not exceed some small limit, 100 in
#: the simulations." (Section 5)
SUSTAINABILITY_QUEUE_LIMIT = 100


@dataclass(frozen=True)
class Measurement:
    """Steady-state metrics over one measurement window."""

    cycles: float
    delivered_packets: int
    delivered_flits: int
    offered_packets: int
    offered_flits: int
    avg_latency: float            # cycles, incl. source queueing
    avg_network_latency: float    # cycles, excl. source queueing
    p95_latency: float
    latency_ci_half: float        # 95% CI half-width (batch means)
    throughput: float             # flits per node-cycle, 0..1
    max_queue_len: int
    sustainable: bool
    # Degradation accounting (fault injection / recovery; all zero in
    # fault-free runs, so they default for backward compatibility).
    failed_packets: int = 0       # aborted worms + dead-injection kills
    retried_packets: int = 0      # re-injections by a recovery layer
    dropped_packets: int = 0      # messages whose retries were exhausted
    # Overload accounting (bounded admission + progress watchdog; all
    # zero when neither is installed, so they default likewise).
    shed_packets: int = 0         # deliberate admission drops
    throttled_packets: int = 0    # offers refused by a blocking policy
    stall_aborted_packets: int = 0  # watchdog timeout-aborts (in failed)
    # End-to-end transport accounting (repro.transport; all zero when
    # no transport is installed, so they default likewise).
    retransmitted_packets: int = 0  # segment re-injections by transport
    rto_fires: int = 0            # retransmission timers that expired
    dup_acks: int = 0             # duplicate data arrivals suppressed
    flows_aborted: int = 0        # flows that exhausted max_attempts
    ack_packets: int = 0          # ack packets (also in delivered)
    goodput_flits: int = 0        # first-time end-to-end payload flits
    # Distribution tail (added with the observability subsystem; nan
    # defaults keep old checkpoints and callers constructible).
    p50_latency: float = float("nan")
    p99_latency: float = float("nan")
    max_latency: float = float("nan")

    @property
    def throughput_percent(self) -> float:
        """The paper's unit: % of maximum theoretical throughput."""
        return 100.0 * self.throughput

    @property
    def avg_latency_us(self) -> float:
        """Latency in the paper's microseconds (20 flits/us channels)."""
        return self.avg_latency / FLITS_PER_MICROSECOND

    @property
    def degraded(self) -> bool:
        """True when any packet failed, retried, dropped, shed or
        throttled in the window (i.e. not every offered message sailed
        straight through)."""
        return bool(
            self.failed_packets
            or self.retried_packets
            or self.dropped_packets
            or self.shed_packets
            or self.throttled_packets
            or self.stall_aborted_packets
            or self.retransmitted_packets
            or self.flows_aborted
        )

    @property
    def transport_active(self) -> bool:
        """True when an end-to-end transport touched this window."""
        return bool(
            self.retransmitted_packets
            or self.rto_fires
            or self.dup_acks
            or self.flows_aborted
            or self.ack_packets
            or self.goodput_flits
        )

    @property
    def goodput(self) -> float:
        """First-time end-to-end payload flits per node-cycle.

        Excludes duplicate data and ack traffic; equals
        :attr:`throughput` scaled by the goodput fraction of raw
        delivered flits.  ``nan`` when nothing was delivered.
        """
        if self.delivered_flits == 0:
            return float("nan")
        return self.throughput * (self.goodput_flits / self.delivered_flits)

    @property
    def goodput_percent(self) -> float:
        """Goodput in the paper's % -of-capacity unit."""
        return 100.0 * self.goodput

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of injection attempts in the window."""
        attempts = self.delivered_packets + self.failed_packets
        if attempts == 0:
            return float("nan")
        return self.delivered_packets / attempts

    def __str__(self) -> str:
        status = "" if self.sustainable else "  [UNSUSTAINABLE]"
        faults = (
            f"  fail={self.failed_packets}"
            f" retry={self.retried_packets}"
            f" drop={self.dropped_packets}"
            if self.degraded
            else ""
        )
        return (
            f"thr={self.throughput_percent:5.1f}%  "
            f"lat={self.avg_latency:8.1f}cyc (net {self.avg_network_latency:.1f}, "
            f"p95 {self.p95_latency:.0f}, ±{self.latency_ci_half:.1f})  "
            f"pkts={self.delivered_packets}{faults}{status}"
        )


def measurement_to_dict(m: Measurement) -> dict:
    """Field mapping of a measurement (cache persistence)."""
    return dataclasses.asdict(m)


def measurement_from_dict(d: dict) -> Measurement:
    """Rebuild a measurement persisted by :func:`measurement_to_dict`.

    Raises ``TypeError`` on unknown fields (a torn or foreign record),
    which the crash-tolerant loaders convert into quarantine-and-redo.
    """
    return Measurement(**d)


class MeasurementWindow:
    """Collects one warmup-then-measure window from an engine."""

    def __init__(
        self,
        engine: WormholeEngine,
        queue_limit: int = SUSTAINABILITY_QUEUE_LIMIT,
    ) -> None:
        self.engine = engine
        self.queue_limit = queue_limit
        self._started_at: Optional[float] = None

    def begin(self) -> None:
        """Discard warmup statistics and open the window."""
        self.engine.stats.reset_window(self.engine.env.now)
        self._started_at = self.engine.env.now

    def finish(self) -> Measurement:
        """Close the window and summarize it."""
        if self._started_at is None:
            raise RuntimeError("begin() must be called before finish()")
        stats = self.engine.stats
        now = self.engine.env.now
        cycles = now - self._started_at
        if cycles <= 0:
            raise RuntimeError("measurement window has zero length")

        # One summary object computes every latency aggregate (see
        # repro.metrics.summary -- percentile fields are added there,
        # in exactly one place).
        lat = LatencySummary.from_values([r.latency for r in stats.records])
        net_latencies = [r.network_latency for r in stats.records]
        avg_net = (
            sum(net_latencies) / len(net_latencies)
            if net_latencies
            else float("nan")
        )

        return Measurement(
            cycles=cycles,
            delivered_packets=stats.delivered_packets,
            delivered_flits=stats.delivered_flits,
            offered_packets=stats.offered_packets,
            offered_flits=stats.offered_flits,
            avg_latency=lat.mean,
            avg_network_latency=avg_net,
            p95_latency=lat.p95,
            latency_ci_half=lat.ci_half,
            throughput=stats.delivered_flits
            / (self.engine.network.N * cycles),
            max_queue_len=stats.max_queue_len,
            sustainable=stats.max_queue_len <= self.queue_limit,
            failed_packets=stats.failed_packets,
            retried_packets=stats.retried_packets,
            dropped_packets=stats.dropped_packets,
            shed_packets=stats.shed_packets,
            throttled_packets=stats.throttled_packets,
            stall_aborted_packets=stats.stall_aborted_packets,
            retransmitted_packets=stats.retransmitted_packets,
            rto_fires=stats.rto_fires,
            dup_acks=stats.dup_acks,
            flows_aborted=stats.flows_aborted,
            ack_packets=stats.ack_packets,
            goodput_flits=stats.goodput_flits,
            p50_latency=lat.p50,
            p99_latency=lat.p99,
            max_latency=lat.max,
        )
