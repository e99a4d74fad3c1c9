"""Run one simulation point with the observability subsystem attached.

:func:`run_traced_point` runs the pipeline of
:func:`repro.experiments.runner.run_point` -- same seeds, bit-identical
:class:`~repro.metrics.collector.Measurement` -- and opens an
:class:`~repro.obs.session.ObsSession` aligned with the measurement
window.  The sinks attach at ``window.begin()``, so the contention
ledgers, latency histograms, and (optionally) the Perfetto trace cover
precisely the cycles the measurement summarizes: the per-channel busy
intervals in the exported trace sum to that channel's reported
utilization by construction.

    measurement, obs = run_traced_point(CUBE_DMIN, spec, 0.8, SMOKE,
                                        trace=True)
    print(obs.report())
    obs.write_trace("point.json")
"""

from __future__ import annotations

from typing import Optional, Union

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import WorkloadBuilder, build_point
from repro.experiments.workload_spec import WorkloadSpec
from repro.metrics.collector import Measurement
from repro.obs.session import ObsSession


def run_traced_point(
    network: NetworkConfig,
    workload: Union[WorkloadSpec, WorkloadBuilder],
    offered_load: float,
    run_cfg: RunConfig,
    trace: bool = False,
    bucket: float = 256.0,
    engine: Optional[str] = None,
) -> tuple[Measurement, ObsSession]:
    """One measured point plus its (closed) observability session.

    ``workload`` accepts either a picklable
    :class:`~repro.experiments.workload_spec.WorkloadSpec` or a raw
    workload-builder closure.  ``trace=True`` additionally records a
    Perfetto timeline (memory scales with flits moved; keep to
    smoke/scaled configs).  The returned session is finished and
    detached -- query or export it freely.
    """
    builder: WorkloadBuilder
    if isinstance(workload, WorkloadSpec):
        builder = workload.builder(run_cfg)
    else:
        builder = workload

    sim = build_point(network, offered_load, run_cfg, engine)
    sim.install(builder(offered_load))
    sessions: list[ObsSession] = []

    def attach() -> None:
        # Attach at the window boundary so the observation and
        # measurement windows coincide (utilization == busy-interval
        # sums by definition).
        sessions.append(ObsSession(sim.engine, trace=trace, bucket=bucket))

    measurement, _ = sim.measure(run_cfg, on_window=attach)
    obs = sessions[0]
    obs.close()
    return measurement, obs
