#!/usr/bin/env python3
"""Prove opt-in features are (nearly) free when they are not in use.

Three features put hooks on hot paths.  Each is timed against a
baseline that reconstructs the code as it was before the feature, and
the harness FAILS (exit 1) if the shipped feature-off path is more than
``--threshold`` slower (default x1.05 -- the <=5% gate; smoke x1.15 for
noisy CI runners):

* ``obs`` -- the telemetry bus (:mod:`repro.obs.bus`) added guarded
  publish sites to the engine's per-cycle loop.  Baseline:
  :class:`PreBusEngine`, the same two phase bodies with every publish
  site deleted.  For information: a contention sink and a full
  :class:`~repro.obs.session.ObsSession` with Perfetto tracing.
* ``stability`` -- the progress watchdog
  (:class:`repro.stability.ProgressWatchdog`) added a per-cycle hook; on
  healthy traffic it never intervenes, so its cost is bookkeeping.
  Baseline: the bare engine.  For information: the full overload stack
  (bounded admission + AIMD governor + watchdog + retry).
* ``transport`` -- the per-message source loop gained arrival- and
  transport-dispatch branches.  Baseline:
  :class:`PreTransportWorkload`, the source loop without them.  For
  information: the reliable transport actually attached.

Run::

    PYTHONPATH=src python benchmarks/bench_overhead.py                # all, full
    PYTHONPATH=src python benchmarks/bench_overhead.py obs --smoke    # one, CI

Timing protocol: each variant runs fresh-built engines (identical
seeds, identical RNG draws) through a warmup then a timed chunk of
cycles; a feature's variants are interleaved round-robin to neutralize
thermal/frequency drift, and the best (min) round is compared, which is
the standard way to measure a code path's floor cost.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Standalone-script bootstrap (mirrors tools/lint_sim.py): make
# `python benchmarks/bench_overhead.py` work without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.faults.recovery import RetryPolicy, SourceRetry  # noqa: E402
from repro.obs.session import ObsSession  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.sim.rng import RandomStream  # noqa: E402
from repro.stability import (  # noqa: E402
    AIMDConfig,
    AIMDGovernor,
    BoundedQueue,
    ProgressWatchdog,
)
from repro.traffic.clusters import global_cluster  # noqa: E402
from repro.traffic.patterns import UniformPattern  # noqa: E402
from repro.traffic.workload import MessageSizeModel, Workload  # noqa: E402
from repro.transport import ReliableTransport, TransportConfig  # noqa: E402
from repro.wormhole import WormholeEngine, build_network  # noqa: E402
from repro.wormhole.packet import PacketState  # noqa: E402

# ------------------------------------------------------------- baselines


class PreBusEngine(WormholeEngine):
    """The seed engine's hot loop, reconstructed: no publish sites.

    Overrides only the two per-cycle phases (the cold paths -- offer,
    finalize, abort -- keep their ``bus.enabled`` guards, which run
    once per *packet*, not per cycle/flit, and are timing noise).
    Behaviour and RNG draws are identical to the stock engine.
    """

    def _phase_allocate(self) -> None:  # pragma: no cover - benchmark only
        if self._backlogged:
            drained = []
            for node in sorted(self._backlogged):
                inj = self.network.injection_channel(node)
                if inj.faulty:
                    while self.queues[node]:
                        p = self.queues[node].popleft()
                        p.state = PacketState.FAILED
                        self.stats.failed_packets += 1
                        for hook in self.on_packet_failed:
                            hook(p)
                    drained.append(node)
                    continue
                lane = inj.lanes[0]
                if lane.owner is not None:
                    continue
                p = self.queues[node].popleft()
                p.state = PacketState.ACTIVE
                p.inject_start = self.env.now
                self.network.prepare(p)
                lane.acquire(p)
                self._active_packets += 1
                self._progressed = True
                if not self.queues[node]:
                    drained.append(node)
            for node in drained:
                self._backlogged.discard(node)

        if not self._pending_route:
            return
        self.rng.shuffle(self._pending_route)
        still_pending = []
        for p in self._pending_route:
            if p.state is not PacketState.ACTIVE or not p.needs_route:
                continue
            candidates = self.network.candidates(p)
            usable = [ch for ch in candidates if not ch.faulty]
            if not usable:
                self._abort(p)
                continue
            free = [lane for ch in usable for lane in ch.lanes if lane.owner is None]
            if not free:
                still_pending.append(p)
                continue
            if len(free) == 1:
                lane = free[0]
            else:
                lane = self.network.preferred_lane(p, free, self.rng)
                if lane is None:
                    lane = self.rng.choice(free)
            lane.acquire(p)
            self.network.advance(p, lane.channel)
            p.needs_route = False
            self._progressed = True
        self._pending_route = still_pending

    def _phase_advance(self) -> None:  # pragma: no cover - benchmark only
        pending = self._pending_route
        for ch in self.network.topo_channels:
            if ch.owned_count == 0:
                continue
            lane = ch.transmit()
            if lane is None:
                continue
            self._progressed = True
            p = lane.owner
            assert p is not None
            if ch.is_delivery:
                if lane.sent == p.length:
                    lane.release()
                    self._finalize(p)
            else:
                if lane.sent == 1 and lane.route_idx == len(p.lanes) - 1:
                    p.needs_route = True
                    pending.append(p)
                if lane.sent == p.length:
                    lane.release()


class PreTransportWorkload(Workload):
    """The seed workload's source loop, reconstructed: no dispatch.

    Overrides only ``_source`` -- the per-message generator body as it
    was before arrival processes and the transport existed.  Behaviour
    and RNG draws are identical to the stock transport-off workload.
    """

    def _source(  # pragma: no cover - benchmark only
        self, env, engine, node, pattern, mean_iat, stream
    ):
        governor = self.governor
        while True:
            iat = mean_iat
            if governor is not None:
                rate = governor.rate_of(node)
                if rate > 0:
                    iat = mean_iat / rate
            yield env.timeout(stream.exponential(iat))
            dest = pattern.pick(node, stream)
            if dest is None:
                continue
            length = self.sizes.draw(stream)
            while engine.offer(node, dest, length) is None:
                yield env.timeout(self.block_retry)


# ---------------------------------------------------------------- set-ups
#
# A set-up maps (kind, load) to (env, engine, on_warm, keepalive):
# ``on_warm(engine)``, when given, runs after the warmup, outside the
# timed chunk, and returns an object with ``close()``.


def _start(env, engine, load, workload_cls=Workload, transport=False):
    workload = workload_cls(
        global_cluster(),
        UniformPattern,
        offered_load=load,
        sizes=MessageSizeModel.scaled(),
    )
    if transport:
        workload.transport = ReliableTransport(
            engine, TransportConfig(), RandomStream(3, name="transport")
        )
    workload.install(env, engine, RandomStream(2))
    engine.start()


def _obs(engine_cls, on_warm=None):
    def setup(kind, load):
        env = Environment()
        # fast=False throughout: PreBusEngine reconstructs the
        # *reference* phase bodies, so every bus variant runs on the
        # reference path (the fast path's publish sites use the same
        # hoisted-flag guard; see benchmarks/bench_engine.py for the
        # fast-vs-reference comparison).
        engine = engine_cls(
            env,
            build_network(kind, k=4, n=3),
            rng=RandomStream(1),
            sanitize=False,
            fast=False,
        )
        _start(env, engine, load)
        return env, engine, on_warm, None

    return setup


def _attach_watchdog(engine: WormholeEngine) -> None:
    engine.watchdog = ProgressWatchdog(
        engine, check_every=64, stall_age=4096, deadlock_after=1024,
        recover=True,
    )


def _attach_full_stack(engine: WormholeEngine) -> SourceRetry:
    BoundedQueue(capacity=128).install(engine)
    governor = AIMDGovernor(engine, AIMDConfig())
    retry = SourceRetry(
        engine,
        RetryPolicy(max_attempts=3, base_delay=64.0, max_delay=512.0),
        RandomStream(7, name="retry"),
    )
    _attach_watchdog(engine)
    retry.governor = governor  # keep both alive on the engine's lifetime
    return retry


def _stability(attach=None):
    def setup(kind, load):
        env = Environment()
        engine = WormholeEngine(
            env, build_network(kind, k=4, n=3), rng=RandomStream(1)
        )
        keepalive = attach(engine) if attach is not None else None
        _start(env, engine, load)
        return env, engine, None, keepalive

    return setup


def _transport(workload_cls, transport):
    def setup(kind, load):
        env = Environment()
        engine = WormholeEngine(
            env, build_network(kind, k=4, n=3), rng=RandomStream(1),
            sanitize=False,
        )
        _start(env, engine, load, workload_cls, transport)
        return env, engine, None, None

    return setup


#: feature -> (gate label, variants).  The first variant is the
#: baseline and the second the gated shipped path; the rest are timed
#: for information only.
FEATURES = {
    "obs": ("detached-bus overhead", (
        ("pre-bus baseline", _obs(PreBusEngine)),
        ("bus, no sinks", _obs(WormholeEngine)),
        ("bus + contention sink", _obs(WormholeEngine, ObsSession)),
        ("bus + full session (trace)",
         _obs(WormholeEngine, lambda e: ObsSession(e, trace=True))),
    )),
    "stability": ("watchdog overhead", (
        ("no watchdog baseline", _stability()),
        ("watchdog attached", _stability(_attach_watchdog)),
        ("full overload stack", _stability(_attach_full_stack)),
    )),
    "transport": ("transport-off overhead", (
        ("pre-transport baseline", _transport(PreTransportWorkload, False)),
        ("transport-off (shipped)", _transport(Workload, False)),
        ("transport attached", _transport(Workload, True)),
    )),
}


def _timed_run(setup, kind, load, warmup, cycles):
    """Wall seconds for `cycles` loaded cycles (after `warmup`)."""
    env, engine, on_warm, keepalive = setup(kind, load)
    env.run(until=warmup)
    session = on_warm(engine) if on_warm is not None else None
    t0 = time.perf_counter()  # lint-sim: ignore[RPV002] -- benchmark harness wall time
    env.run(until=warmup + cycles)
    wall = time.perf_counter() - t0  # lint-sim: ignore[RPV002] -- benchmark harness wall time
    if session is not None:
        session.close()
    if engine.stats.delivered_packets == 0:
        raise RuntimeError("benchmark run delivered nothing; config error")
    if engine.watchdog is not None and engine.watchdog.aborted:
        raise RuntimeError(
            "watchdog intervened on healthy traffic; overhead numbers "
            "would be meaningless"
        )
    del keepalive
    return wall


def run_feature(name, args, rounds, cycles, threshold) -> bool:
    """Time one feature's variants; print the table; True if the gate holds."""
    gate, variants = FEATURES[name]
    best = {label: float("inf") for label, _ in variants}
    for _ in range(rounds):  # interleave variants within each round
        for label, setup in variants:
            wall = _timed_run(setup, args.kind, args.load, args.warmup, cycles)
            best[label] = min(best[label], wall)

    base = best[variants[0][0]]
    print(
        f"{name}-overhead benchmark: {args.kind} @ load {args.load:g}, "
        f"{cycles} cycles x best-of-{rounds}"
    )
    for label, _ in variants:
        wall = best[label]
        print(
            f"  {label:28} {wall * 1e3:8.1f} ms  "
            f"({cycles / wall:>9,.0f} cyc/s)  x{wall / base:.3f}"
        )
    ratio = best[variants[1][0]] / base
    passed = ratio <= threshold
    print(
        f"[{'PASS' if passed else 'FAIL'}] {gate} x{ratio:.3f} "
        f"(threshold x{threshold:.2f})"
    )
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "feature",
        nargs="?",
        choices=(*FEATURES, "all"),
        default="all",
        help="which feature to gate (default: all)",
    )
    parser.add_argument("--smoke", action="store_true", help="quick CI mode")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--kind", default="dmin")
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="max allowed (shipped)/(baseline) wall ratio "
        "(default 1.05 -- the <=5%% gate; smoke 1.15 for noisy CI)",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds or (3 if args.smoke else 7)
    cycles = args.cycles or (1_000 if args.smoke else 4_000)
    threshold = args.threshold or (1.15 if args.smoke else 1.05)

    names = list(FEATURES) if args.feature == "all" else [args.feature]
    results = [run_feature(name, args, rounds, cycles, threshold) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
