"""Arrival processes and message-size models (Section 5.1).

Each node generates messages at negative-exponentially distributed
intervals and queues them FCFS at the source (the engine owns the
queues).  *Offered load* is expressed as a fraction of a node's
injection bandwidth: load 0.4 means the node offers 0.4 flits per cycle
on average, i.e. mean inter-arrival time = mean message length / 0.4.

Message sizes: the paper draws lengths uniformly from [8, 1024] flits;
fixed and bimodal models cover the short/long/bimodal study it lists as
future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.core import Environment
from repro.sim.rng import RandomStream
from repro.traffic.bursty import ArrivalSpec
from repro.traffic.clusters import ClusterSpec
from repro.traffic.patterns import TrafficPattern
from repro.wormhole.engine import WormholeEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport import ReliableTransport


@dataclass(frozen=True)
class MessageSizeModel:
    """Distribution of message lengths in flits."""

    kind: str = "uniform"  # "uniform" | "fixed" | "bimodal"
    low: int = 8
    high: int = 1024
    short_fraction: float = 0.5   # bimodal only
    split: int = 32               # bimodal only

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "fixed", "bimodal"):
            raise ValueError(f"unknown size model {self.kind!r}")
        if self.low < 1 or self.high < self.low:
            raise ValueError("need 1 <= low <= high")

    @property
    def mean(self) -> float:
        """Expected message length in flits."""
        if self.kind == "fixed":
            return float(self.low)
        if self.kind == "uniform":
            return (self.low + self.high) / 2
        # bimodal: mixture of two uniforms
        short_mean = (self.low + self.split) / 2
        long_mean = (self.split + 1 + self.high) / 2
        return (
            self.short_fraction * short_mean
            + (1 - self.short_fraction) * long_mean
        )

    def draw(self, rng: RandomStream) -> int:
        """Sample one message length."""
        if self.kind == "fixed":
            return self.low
        if self.kind == "uniform":
            return rng.uniform_int(self.low, self.high)
        return rng.bimodal_int(
            self.low, self.high, self.short_fraction, self.split
        )

    @classmethod
    def paper(cls) -> "MessageSizeModel":
        """The paper's model: uniform on [8, 1024] flits."""
        return cls("uniform", 8, 1024)

    @classmethod
    def scaled(cls) -> "MessageSizeModel":
        """Shorter messages for quick runs; same qualitative behaviour."""
        return cls("uniform", 8, 64)


class Workload:
    """Installs per-node Poisson sources into an engine's environment.

    Parameters
    ----------
    clusters:
        The clustering (members + traffic ratios); traffic stays inside
        each cluster.
    pattern_factory:
        Builds the destination pattern for one cluster's member list:
        ``pattern_factory(members) -> TrafficPattern``.  Permutation
        patterns typically ignore the member list and act globally.
    offered_load:
        Flits per cycle per node in the busiest cluster (0..~1).
    sizes:
        Message-length model.
    governor:
        Optional rate governor (anything with ``rate_of(node) -> float``,
        e.g. :class:`repro.stability.AIMDGovernor`).  When set, each
        source divides its mean inter-arrival time by the governor's
        current multiplier *before* its single exponential draw -- the
        RNG draw count per message is unchanged, so governed and
        ungoverned runs consume streams identically and the fast and
        reference engine paths stay bit-identical.
    block_retry:
        Cycles a source waits before re-offering a message refused by a
        blocking admission policy (``engine.offer`` returned None).  The
        retry wait is a fixed timeout -- no RNG -- modelling hardware
        backpressure polling.
    arrival:
        Optional :class:`repro.traffic.bursty.ArrivalSpec`.  ``None``
        (or kind ``"poisson"``) keeps the paper's single
        ``stream.exponential`` draw -- bit-compatible with every
        pre-existing run.  Bursty kinds replace that draw with exactly
        one draw per arrival (see :mod:`repro.traffic.bursty`), so the
        per-message draw count never drifts.
    transport:
        Optional end-to-end :class:`repro.transport.ReliableTransport`
        (the point pipeline wires it in).  When set, sources
        hand messages to the transport instead of offering raw packets;
        the transport absorbs admission pressure (its window/backoff),
        so the block-retry loop is bypassed.
    """

    def __init__(
        self,
        clusters: ClusterSpec,
        pattern_factory: Callable[[list[int]], TrafficPattern],
        offered_load: float,
        sizes: Optional[MessageSizeModel] = None,
        governor: Optional[object] = None,
        block_retry: float = 8.0,
        arrival: Optional[ArrivalSpec] = None,
        transport: Optional[ReliableTransport] = None,
    ) -> None:
        if offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if block_retry <= 0:
            raise ValueError("block_retry must be positive")
        self.clusters = clusters
        self.pattern_factory = pattern_factory
        self.offered_load = offered_load
        self.sizes = sizes if sizes is not None else MessageSizeModel.paper()
        self.governor = governor
        self.block_retry = block_retry
        self.arrival = arrival
        self.transport = transport

    def install(
        self, env: Environment, engine: WormholeEngine, rng: RandomStream
    ) -> int:
        """Create the source processes; returns how many nodes generate."""
        if engine.network.N != self.clusters.N:
            raise ValueError(
                f"clustering is for {self.clusters.N} nodes, "
                f"network has {engine.network.N}"
            )
        factors = self.clusters.node_rate_factors()
        active = 0
        for members in self.clusters.member_lists():
            pattern = self.pattern_factory(members)
            for node in members:
                factor = factors[node]
                if factor <= 0 or not pattern.generates_traffic(node):
                    continue
                mean_iat = self.sizes.mean / (self.offered_load * factor)
                stream = rng.fork(f"src-{node}")
                env.process(
                    self._source(env, engine, node, pattern, mean_iat, stream),
                    name=f"source-{node}",
                )
                active += 1
        return active

    def _source(
        self,
        env: Environment,
        engine: WormholeEngine,
        node: int,
        pattern: TrafficPattern,
        mean_iat: float,
        stream: RandomStream,
    ):
        governor = self.governor
        transport = self.transport
        # Per-source arrival state (MMPP carries its modulation state
        # here); None keeps the legacy exponential call itself, so the
        # poisson path is bit-compatible, not merely equivalent.
        arrival = self.arrival.instantiate() if self.arrival else None
        while True:
            iat = mean_iat
            if governor is not None:
                # Scale the *mean* before the single draw: one
                # exponential per message regardless of the multiplier,
                # keeping RNG stream consumption bit-identical to an
                # ungoverned run at the same seed.
                rate = governor.rate_of(node)
                if rate > 0:
                    iat = mean_iat / rate
            if arrival is None:
                gap = stream.exponential(iat)
            else:
                gap = arrival.next_iat(iat, stream)
            yield env.timeout(gap)
            dest = pattern.pick(node, stream)
            if dest is None:  # pragma: no cover - silenced sources skipped
                continue
            length = self.sizes.draw(stream)
            if transport is not None:
                # End-to-end reliability: the transport never refuses;
                # its window/backoff absorbs admission pressure.
                transport.send(node, dest, length)
                continue
            while engine.offer(node, dest, length) is None:
                # Blocking admission refused the message: hold it and
                # re-offer after a fixed (RNG-free) backpressure wait.
                yield env.timeout(self.block_retry)
