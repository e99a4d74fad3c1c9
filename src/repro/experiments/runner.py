"""The point pipeline: assemble, stack layers, measure, sweep.

One *point* = one (network, workload, offered load) simulation.  This
module is the only place a point is built and measured:

1. :func:`build_point` assembles the fabric -- scheduler, engine and
   root stream -- into a :class:`SimPoint`;
2. optional layers stack on it, one helper each, every one on its own
   forked stream: :meth:`SimPoint.retry` (source retry),
   :meth:`SimPoint.churn` (MTBF channel faults),
   :meth:`SimPoint.reliable` (end-to-end transport) and
   :meth:`SimPoint.govern` (the overload toolkit: bounded admission,
   AIMD governor, progress watchdog);
3. :meth:`SimPoint.install` wires the workload in and starts the
   engine;
4. :meth:`SimPoint.measure` warms up until ``warmup_packets``
   deliveries, opens a measurement window, and runs until
   ``measure_packets`` more deliveries (or the cycle budget runs out
   -- which near saturation it will; the window is still valid, the
   throughput simply reflects what the network sustained), or for a
   fixed number of equal batches when a throughput series is wanted.

:func:`run_until` is the one simulation loop underneath: chunked runs
with the cooperative deadline/heartbeat check between chunks.

:func:`run_point` is the plain stack (no optional layer); the figure,
availability, stability, transport, traced and serve paths stack what
they need and share everything else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.metrics.collector import Measurement, MeasurementWindow
from repro.sim.core import Environment
from repro.sim.rng import RandomStream
from repro.traffic.workload import Workload
from repro.wormhole.engine import WormholeEngine, resolve_engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.mtbf import MTBFChurn
    from repro.faults.recovery import RetryPolicy, SourceRetry
    from repro.serve.job import JobManifest
    from repro.stability import AIMDConfig, AIMDGovernor, BoundedQueue
    from repro.transport import ReliableTransport, TransportConfig

#: A workload builder maps an offered load to a ready-to-install Workload.
WorkloadBuilder = Callable[[float], Workload]

#: env.run() chunk size between progress checks.
_CHUNK = 512


@dataclass
class SimPoint:
    """One assembled point: the fabric plus the layers stacked on it.

    Every layer forks its own stream from ``root`` as
    ``{layer}/{tag}`` (``tag`` is ``{network label}/{load}`` unless
    the caller chose another suffix), so stacking a layer never shifts
    another layer's draws.  Layers are constructed in call order, and
    that order fixes bus-subscription and event-insertion order: a
    caller that must reproduce earlier results keeps its order.
    """

    env: Environment
    engine: WormholeEngine
    root: RandomStream
    tag: str
    governor: Optional["AIMDGovernor"] = field(default=None, repr=False)
    transport: Optional["ReliableTransport"] = field(default=None, repr=False)

    # -------------------------------------------------------------- layers

    def retry(self, policy: "RetryPolicy") -> "SourceRetry":
        """Source-side retry of failed worms."""
        from repro.faults.recovery import SourceRetry

        return SourceRetry(
            self.engine, policy, self.root.fork(f"retry/{self.tag}")
        )

    def churn(
        self, rate: float, mttr: float, severity: str
    ) -> Optional["MTBFChurn"]:
        """MTBF channel churn at per-channel unavailability ``rate``.

        MTBF is derived so that ``mttr / (mtbf + mttr) == rate``; a zero
        rate adds nothing and returns None.
        """
        if rate <= 0.0:
            return None
        from repro.faults.mtbf import MTBFChurn

        return MTBFChurn(
            self.env,
            self.engine.network,
            self.root.fork(f"faults/{self.tag}"),
            mtbf=mttr * (1.0 - rate) / rate,
            mttr=mttr,
            engine=self.engine,
            severity=severity,
        )

    def reliable(
        self, config: Optional["TransportConfig"] = None
    ) -> "ReliableTransport":
        """End-to-end transport; :meth:`install` routes sources through it."""
        from repro.transport import ReliableTransport

        self.transport = ReliableTransport(
            self.engine, config, self.root.fork(f"transport/{self.tag}")
        )
        return self.transport

    def govern(
        self,
        admission: "BoundedQueue",
        governed: bool = True,
        aimd: Optional["AIMDConfig"] = None,
        watchdog: bool = True,
    ) -> Optional["AIMDGovernor"]:
        """The overload toolkit: bounded admission, an AIMD injection
        governor when ``governed`` (:meth:`install` wires it into the
        sources) and a progress watchdog with stall recovery when
        ``watchdog``."""
        from repro.stability import AIMDGovernor, ProgressWatchdog

        admission.install(self.engine)
        if governed:
            self.governor = AIMDGovernor(self.engine, aimd)
        if watchdog:
            self.engine.watchdog = ProgressWatchdog(
                self.engine,
                check_every=64,
                stall_age=2048,
                deadlock_after=512,
                recover=True,
            )
        return self.governor

    # ------------------------------------------------------------- running

    def install(self, workload: Workload) -> None:
        """Wire the governor/transport layers into ``workload``, install
        it on the point's workload stream and start the engine."""
        if self.governor is not None:
            workload.governor = self.governor
        if self.transport is not None:
            workload.transport = self.transport
        stream = self.root.fork(f"workload/{self.tag}")
        if workload.install(self.env, self.engine, stream) == 0:
            raise RuntimeError("workload installed no traffic sources")
        self.engine.start()

    def measure(
        self,
        run_cfg: RunConfig,
        batches: Optional[int] = None,
        on_window: Optional[Callable[[], None]] = None,
    ) -> tuple[Measurement, list[float]]:
        """Warm up, then measure one window.

        Warm-up runs until ``run_cfg.warmup_packets`` deliveries, at most
        a quarter of ``max_cycles``.  The window then runs until
        ``measure_packets`` more deliveries within ``max_cycles``; with
        ``batches`` it runs exactly ``max_cycles`` instead, cut into that
        many equal batches, and also returns their delivered-throughput
        series (flits per node-cycle; empty without batches).
        ``on_window`` runs right after the window opens, so an observer
        attached there sees exactly the measured cycles.
        """
        env = self.env
        engine = self.engine
        stats = engine.stats
        run_until(
            env,
            lambda: stats.delivered_packets >= run_cfg.warmup_packets,
            env.now + run_cfg.max_cycles / 4,
        )
        window = MeasurementWindow(engine)
        window.begin()
        if on_window is not None:
            on_window()
        series: list[float] = []
        if batches is None:
            run_until(
                env,
                lambda: stats.delivered_packets >= run_cfg.measure_packets,
                env.now + run_cfg.max_cycles,
            )
        else:
            n_nodes = engine.network.N
            batch_cycles = max(1.0, run_cfg.max_cycles / batches)
            prev_flits = stats.delivered_flits
            for _ in range(batches):
                _check_point_deadline()
                env.run(until=env.now + batch_cycles)
                flits = stats.delivered_flits
                series.append((flits - prev_flits) / (n_nodes * batch_cycles))
                prev_flits = flits
        return window.finish(), series


def build_point(
    network: NetworkConfig,
    offered_load: float,
    run_cfg: RunConfig,
    engine: Optional[str] = None,
    tag: object = None,
) -> SimPoint:
    """Assemble the fabric of one point: scheduler, engine, root stream.

    ``engine`` selects the execution path -- ``"fast"`` pairs the
    calendar scheduler with the optimized engine phases,
    ``"reference"`` the plain heap with the reference phases, and None
    defers to ``REPRO_ENGINE`` (default fast).  The choice
    never changes results (``tests/differential``), only wall-clock
    cost.  ``tag`` replaces ``offered_load`` in the stream labels
    (``engine/{label}/{tag}``, ...) for points keyed by something else,
    such as a fault rate.
    """
    kind = resolve_engine(engine)
    env = Environment(scheduler="heap" if kind == "reference" else "calendar")
    root = RandomStream(run_cfg.seed, name="root")
    suffix = f"{network.label}/{offered_load if tag is None else tag}"
    sim_engine = WormholeEngine(
        env,
        network.build(),
        rng=root.fork(f"engine/{suffix}"),
        fast=kind != "reference",
    )
    return SimPoint(env, sim_engine, root, suffix)


class PointTimeout(TimeoutError):
    """A point exceeded its wall-clock deadline (cooperative check)."""


#: Per-thread wall-clock deadline for the *current* point, as a
#: ``time.monotonic()`` instant.  Thread-local so threads (e.g. tests
#: running points in a thread pool) time out independently; SIGALRM
#: cannot do that (main thread only).
_point_deadline = threading.local()


def set_point_deadline(seconds: Optional[float]) -> None:
    """Arm (or with None, disarm) a wall-clock limit for this thread.

    The limit is checked cooperatively inside the simulation loop
    (:func:`run_until`), every ``_CHUNK`` sim-cycles; a point
    past it raises :class:`PointTimeout`.  Wall clock is the right
    clock here: the limit guards the *experiment harness* against hung
    infrastructure, it is not part of the simulated model.
    """
    if seconds is None:
        _point_deadline.at = None
        return
    if seconds <= 0:
        raise ValueError("deadline seconds must be positive")
    _point_deadline.at = time.monotonic() + seconds  # lint-sim: ignore[RPV002]


#: Per-thread liveness callback beaten from the simulation loop at the
#: same cadence as the deadline check (every ``_CHUNK`` sim-cycles), so
#: a supervisor can distinguish "long point, still advancing" from
#: "worker wedged" (see :class:`repro.obs.progress.HeartbeatSlot` and
#: :mod:`repro.serve.supervisor`).
_point_heartbeat = threading.local()


def set_point_heartbeat(beat: Optional[Callable[[], None]]) -> None:
    """Install (or with None, remove) this thread's liveness beat."""
    _point_heartbeat.fn = beat


def _check_point_deadline() -> None:
    beat = getattr(_point_heartbeat, "fn", None)
    if beat is not None:
        beat()
    at = getattr(_point_deadline, "at", None)
    if at is not None and time.monotonic() > at:  # lint-sim: ignore[RPV002]
        _point_deadline.at = None  # disarm: one timeout per arming
        raise PointTimeout("point exceeded its wall-clock deadline")


@dataclass(frozen=True)
class LoadPoint:
    """One sweep point: requested load plus the measured window.

    A point that failed in a parallel run carries ``measurement=None``
    and the supervisor's error string instead (see
    :func:`repro.experiments.parallel.parallel_sweep`).
    """

    offered_load: float
    measurement: Optional[Measurement]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the point actually measured (no worker error)."""
        return self.measurement is not None


@dataclass(frozen=True)
class SweepResult:
    """A full offered-load sweep for one (network, workload) series.

    ``dispatch`` is the :class:`~repro.serve.job.JobManifest` of a
    parallel sweep (its ``counts`` give requested vs unique points and
    how many were deduplicated, cached or computed).  It is None for
    sequential sweeps and excluded from equality so a parallel sweep
    still compares equal to its sequential twin.
    """

    label: str
    points: tuple[LoadPoint, ...]
    dispatch: Optional["JobManifest"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def complete(self) -> bool:
        """True when every point measured (no failed points)."""
        return all(p.ok for p in self.points)

    def errors(self) -> list[tuple[float, str]]:
        """(load, error) of every failed point."""
        return [(p.offered_load, p.error) for p in self.points if not p.ok]

    def max_sustained_throughput(self) -> float:
        """Highest throughput % over the *sustainable* points.

        Falls back to the overall maximum when every point saturated
        (the series' sustainable region lies below the lightest load).
        Crashed points are skipped.
        """
        measured = [p.measurement for p in self.points if p.ok]
        if not measured:
            raise ValueError(f"series {self.label!r} has no measured points")
        sustained = [
            m.throughput_percent for m in measured if m.sustainable
        ]
        if sustained:
            return max(sustained)
        return max(m.throughput_percent for m in measured)

    def latency_at(self, load: float) -> float:
        """Average latency measured at an exact sweep load."""
        for p in self.points:
            if p.offered_load == load:
                if not p.ok:
                    raise ValueError(
                        f"point at load {load} crashed: {p.error}"
                    )
                return p.measurement.avg_latency
        raise KeyError(f"no point at load {load}")


def run_until(
    env: Environment,
    done: Callable[[], bool],
    deadline: float,
    chunk: float = _CHUNK,
) -> None:
    """The one simulation loop: advance ``env`` in ``chunk``-cycle steps,
    with the deadline/heartbeat check before each, until ``done()`` or
    ``deadline``."""
    while not done() and env.now < deadline:
        _check_point_deadline()
        env.run(until=min(env.now + chunk, deadline))


def run_point(
    network: NetworkConfig,
    workload_builder: WorkloadBuilder,
    offered_load: float,
    run_cfg: RunConfig,
    engine: Optional[str] = None,
) -> Measurement:
    """Simulate one plain point and return its measurement window.

    ``engine`` ("fast" / "reference" / None =
    ``REPRO_ENGINE``) picks the execution path; results are identical
    either way.
    """
    point = build_point(network, offered_load, run_cfg, engine)
    point.install(workload_builder(offered_load))
    return point.measure(run_cfg)[0]


def sweep(
    network: NetworkConfig,
    workload_builder: WorkloadBuilder,
    run_cfg: RunConfig,
    loads: Sequence[float] | None = None,
    label: str | None = None,
    engine: Optional[str] = None,
) -> SweepResult:
    """Sweep the offered load for one (network, workload) series."""
    loads = tuple(loads) if loads is not None else run_cfg.loads
    points = tuple(
        LoadPoint(
            load, run_point(network, workload_builder, load, run_cfg, engine)
        )
        for load in loads
    )
    return SweepResult(label or network.label, points)
