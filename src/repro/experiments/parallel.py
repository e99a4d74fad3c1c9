"""Multi-process sweeps, served by the sweep service.

Simulation points are pure functions of picklable configuration
(:class:`NetworkConfig`, :class:`WorkloadSpec`, :class:`RunConfig`,
offered load), so a sweep -- or every figure's worth of sweeps --
parallelizes across processes.  :func:`parallel_sweep` and
:func:`parallel_matrix` are thin clients of :mod:`repro.serve`: they
describe the grid as a :class:`~repro.serve.job.JobSpec`, serve it on
a :class:`~repro.serve.service.SweepService`, and map the manifest
back to :class:`~repro.experiments.runner.SweepResult`;
:func:`serve_sweeps` serves several such jobs on one worker pool (the
figures and the direct sweep use it).  Results are bit-identical to
the sequential runner (same point pipeline, same seeds); only
wall-clock changes.

    spec = WorkloadSpec(pattern="uniform")
    result = parallel_sweep(NetworkConfig("dmin"), spec, SCALED)

Robustness is the service's (see ``docs/serving.md``):

* **supervised workers** -- a crashed, SIGKILLed or wedged worker loses
  only its own point, which is retried with backoff; a point that keeps
  failing is quarantined and comes back as ``LoadPoint(load, None,
  error)``, so every completed point is kept;
* **per-point timeout** -- ``timeout=`` seconds of wall clock per point,
  a cooperative deadline checked inside the simulation loop;
* **resume** -- ``cache=`` names the content-addressed result cache;
  every point is written there the moment it finishes, and re-running
  with the same directory recomputes only what is missing (a corrupt
  entry is quarantined and recomputed).  Without ``cache=`` the sweep
  uses a temporary directory;
* **dedupe** -- identical ``(network, spec, load)`` entries simulate
  once and fan out; ``SweepResult.dispatch`` carries the job manifest,
  whose ``counts`` report the fold and the cache hits.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import LoadPoint, SweepResult
from repro.experiments.workload_spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.cache import ResultCache
    from repro.serve.job import JobManifest, JobSpec

#: Progress callback ``progress(done, total, label)`` invoked in the
#: parent after every settled point (cache hits included).  Use
#: :class:`repro.obs.progress.ProgressMeter` for a throttled stderr
#: heartbeat.
ProgressFn = Callable[[int, int, str], None]

#: The statuses of a manifest point whose payload is in the cache.
_SERVED = ("cached", "computed")


def parallel_sweep(
    network: NetworkConfig,
    spec: WorkloadSpec,
    run_cfg: RunConfig,
    loads: Optional[Sequence[float]] = None,
    label: Optional[str] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Offered-load sweep with one supervised worker task per point.

    ``max_workers`` defaults to the CPU count; ``timeout`` is a
    per-point wall-clock limit in seconds; ``cache`` names a result
    cache directory to resume from and persist into; ``progress`` is
    called as ``progress(done, total, label)`` after every settled
    point.  Failed points come back as ``LoadPoint(load, None,
    error=...)`` -- check ``SweepResult.complete``.
    """
    (result,) = parallel_matrix(
        [network], spec, run_cfg, loads, max_workers, timeout, cache, progress
    )
    if label is None:
        return result
    return SweepResult(label, result.points, dispatch=result.dispatch)


def parallel_matrix(
    networks: Sequence[NetworkConfig],
    spec: WorkloadSpec,
    run_cfg: RunConfig,
    loads: Optional[Sequence[float]] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path] = None,
    progress: Optional[ProgressFn] = None,
) -> list[SweepResult]:
    """Every (network, load) point of a comparison as one served job."""
    from repro.serve.job import JobSpec
    from repro.wormhole.engine import resolve_engine

    job = JobSpec(
        networks=tuple(networks),
        run=run_cfg,
        workload=spec,
        loads=tuple(loads or run_cfg.loads),
        engine=resolve_engine(None),
    )
    return serve_sweeps([job], max_workers, timeout, cache, progress)[0]


def serve_sweeps(
    jobs: Sequence["JobSpec"],
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path] = None,
    progress: Optional[ProgressFn] = None,
) -> list[list[SweepResult]]:
    """Serve single-seed jobs on one service; per job, one sweep per network.

    All jobs share one supervised pool and one dedupe pass, so a point
    that several jobs request is computed once.
    """
    from repro.serve.service import SweepService
    from repro.serve.supervisor import SupervisePolicy

    size = sum(len(job.networks) * len(job.effective_loads) for job in jobs)
    workers = min(max_workers or os.cpu_count() or 1, size)
    policy = SupervisePolicy(workers=max(1, workers), point_timeout=timeout)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
        root = Path(cache) if cache is not None else Path(scratch)
        service = SweepService(
            root, policy=policy, job_root=root / "jobs", progress=progress
        )
        manifests = service.run_jobs_sync(jobs)
        return [
            sweep_results(manifest, service.cache, len(job.effective_loads))
            for job, manifest in zip(jobs, manifests)
        ]


def sweep_results(
    manifest: "JobManifest", cache: "ResultCache", per_series: int
) -> list[SweepResult]:
    """Map a served single-seed job back to one sweep per network.

    ``manifest.points`` lists the grid network-major, ``per_series``
    loads per network.  A served point reads its measurement from
    ``cache``; a failed or unserved one becomes ``LoadPoint(load, None,
    error)`` carrying the supervisor's error (or its status).
    """
    from repro.metrics.collector import measurement_from_dict

    points = []
    for entry in manifest.points:
        payload = cache.get(entry["key"]) if entry["status"] in _SERVED else None
        if payload is None:
            error = entry.get("error", entry["status"])
            points.append(LoadPoint(entry["load"], None, error=error))
        else:
            measurement = measurement_from_dict(payload["measurement"])
            points.append(LoadPoint(entry["load"], measurement))
    series = []
    for i in range(0, len(points), per_series):
        head = manifest.points[i]
        series.append(
            SweepResult(
                f"{head['network']} / {head['workload']}",
                tuple(points[i : i + per_series]),
                dispatch=manifest,
            )
        )
    return series
