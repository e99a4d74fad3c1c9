"""The evaluation figures of Section 5 (Figs. 16-20), declared as data.

Each :class:`Figure` names its curves as ``(label, network, workload)``
series plus the textual expectation the paper states for it.
:func:`regenerate` serves every series of the requested figures as
jobs on one :class:`~repro.serve.service.SweepService` (supervised
workers, a temporary cache, one dedupe pass across all figures, so a
curve two figures share is simulated once) and returns one
:class:`FigureResult` per figure, holding one
:class:`~repro.experiments.runner.SweepResult` per curve.  Results are
bit-identical to the in-process :func:`~repro.experiments.runner.sweep`
over the same :class:`WorkloadSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import SweepResult, WorkloadBuilder
from repro.experiments.workload_spec import WorkloadSpec
from repro.traffic.clusters import ClusterSpec
from repro.traffic.patterns import UniformPattern
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ProgressFn


@dataclass(frozen=True)
class FigureResult:
    """All series of one paper figure, regenerated."""

    figure_id: str
    title: str
    expectation: str
    series: tuple[SweepResult, ...]

    def by_label(self, label: str) -> SweepResult:
        """The series with the given label (KeyError if absent)."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    @property
    def labels(self) -> list[str]:
        """All series labels, in figure order."""
        return [s.label for s in self.series]

    @property
    def complete(self) -> bool:
        """True when every point of every series measured."""
        return all(s.complete for s in self.series)


def uniform_workload(clusters: ClusterSpec, run_cfg: RunConfig) -> WorkloadBuilder:
    """Uniform traffic inside each cluster (Section 5.1)."""
    return lambda load: Workload(clusters, UniformPattern, load, run_cfg.sizes)


# ---------------------------------------------------------------- the networks

CUBE_TMIN = NetworkConfig("tmin", topology="cube")
BUTTERFLY_TMIN = NetworkConfig("tmin", topology="butterfly")
CUBE_DMIN = NetworkConfig("dmin", topology="cube")
CUBE_VMIN = NetworkConfig("vmin", topology="cube")
BMIN = NetworkConfig("bmin")

#: Section 5.3 compares the three unidirectional cube MINs and the BMIN.
FOUR_NETWORKS = (CUBE_TMIN, CUBE_DMIN, CUBE_VMIN, BMIN)


# ------------------------------------------------------------------- figures

#: One curve: its label in the figure, the network and the traffic.
Series = tuple[str, NetworkConfig, WorkloadSpec]


@dataclass(frozen=True)
class Figure:
    """One evaluation figure as data.

    ``loads`` is the figure's own offered-load ladder, cut at the
    preset's top load; None sweeps the preset's ladder.
    """

    figure_id: str
    title: str
    expectation: str
    series: tuple[Series, ...]
    loads: Optional[tuple[float, ...]] = None

    def loads_for(self, run_cfg: RunConfig) -> tuple[float, ...]:
        """The offered loads this figure sweeps under ``run_cfg``."""
        if self.loads is None:
            return run_cfg.loads
        return tuple(ld for ld in self.loads if ld <= max(run_cfg.loads))


def _four(spec: WorkloadSpec, tag: str) -> tuple[Series, ...]:
    """The four networks of Section 5.3 under one workload."""
    return tuple((f"{net.kind.upper()} / {tag}", net, spec) for net in FOUR_NETWORKS)


UNIFORM = WorkloadSpec()
CL16 = WorkloadSpec(clustering="cluster16")
CL16_SHARED = WorkloadSpec(clustering="cluster16-shared")
R4111 = (4.0, 1.0, 1.0, 1.0)
R1000 = (1.0, 0.0, 0.0, 0.0)

#: Fig. 19 sweeps its own load ladder: with the paper's hot-spot formula
#: (y = N*x) the hot node's delivery channel caps steady-state aggregate
#: throughput near 25% (x=5%) / 15% (x=10%), so the interesting region
#: -- where the networks differ -- sits below those knees.
FIG19_LOADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

FIGURES: dict[str, Figure] = {
    fig.figure_id: fig
    for fig in (
        # (a) global uniform: the two topologies coincide; (b) cluster-16
        # uniform: the cube's channel-balanced clustering beats both
        # butterfly clusterings, channel-reduced being worst.
        Figure(
            "fig16",
            "Cube vs. butterfly TMIN under global (a) and cluster-16 (b) uniform traffic",
            "(a) identical curves; (b) cube balanced best, butterfly "
            "channel-reduced worst, channel-shared in between",
            (
                ("cube TMIN / global", CUBE_TMIN, UNIFORM),
                ("butterfly TMIN / global", BUTTERFLY_TMIN, UNIFORM),
                ("cube TMIN / cl16 balanced", CUBE_TMIN, CL16),
                ("butterfly TMIN / cl16 reduced", BUTTERFLY_TMIN, CL16),
                ("butterfly TMIN / cl16 shared", BUTTERFLY_TMIN, CL16_SHARED),
            ),
        ),
        # Channel sharing pays off when clusters are unevenly loaded.
        Figure(
            "fig17",
            "Uneven cluster traffic: channel-shared butterfly vs. channel-balanced cube",
            "butterfly shared best at 4:1:1:1 and 1:0:0:0; butterfly reduced "
            "worst; 1:0:0:0 caps aggregate throughput near 25%",
            (
                ("cube balanced / 4:1:1:1", CUBE_TMIN, replace(CL16, ratios=R4111)),
                ("butterfly reduced / 4:1:1:1", BUTTERFLY_TMIN, replace(CL16, ratios=R4111)),
                ("butterfly shared / 4:1:1:1", BUTTERFLY_TMIN,
                 replace(CL16_SHARED, ratios=R4111)),
                ("cube balanced / 1:0:0:0", CUBE_TMIN, replace(CL16, ratios=R1000)),
                ("butterfly shared / 1:0:0:0", BUTTERFLY_TMIN,
                 replace(CL16_SHARED, ratios=R1000)),
            ),
        ),
        # DMIN best, TMIN worst, VMIN slightly above BMIN.
        Figure(
            "fig18",
            "Four networks under global (a) and cluster-16 (b) uniform traffic",
            "DMIN best, TMIN worst, VMIN slightly better than BMIN",
            _four(UNIFORM, "global") + _four(CL16, "cl16"),
        ),
        # All four networks congest; DMIN degrades least (lowest latency
        # below the knee); TMIN is worst; 10% is much worse than 5%.
        Figure(
            "fig19",
            "Four networks under global hot-spot traffic (5% and 10%)",
            "all reduced vs. Fig. 18a; DMIN best (lowest latency below the "
            "knee); TMIN worst; 10% much worse than 5%",
            _four(WorkloadSpec(pattern="hotspot", hot_fraction=0.05), "hot 5%")
            + _four(WorkloadSpec(pattern="hotspot", hot_fraction=0.10), "hot 10%"),
            loads=FIG19_LOADS,
        ),
        # TMIN and VMIN collapse (static 4-way channel sharing); DMIN and
        # BMIN do well, BMIN best under heavy load.
        Figure(
            "fig20",
            "Four networks under shuffle (a) and 2nd-butterfly (b) permutations",
            "TMIN and VMIN poor (VMIN below TMIN); DMIN and BMIN good; "
            "BMIN best under heavy load",
            _four(WorkloadSpec(pattern="shuffle"), "shuffle")
            + _four(WorkloadSpec(pattern="butterfly", butterfly_i=2), "beta2"),
        ),
    )
}


def regenerate(
    names: Sequence[str],
    run_cfg: RunConfig,
    progress: Optional["ProgressFn"] = None,
) -> list[FigureResult]:
    """Regenerate the named figures, in order, on one sweep service.

    Every series is one job; all jobs share one supervised pool (one
    worker per CPU) and a temporary cache.  The engine tier comes from
    ``REPRO_ENGINE``; ``progress(done, total, label)`` is called after
    every settled point.  A point that failed comes back as
    ``LoadPoint(load, None, error)`` -- check ``FigureResult.complete``.
    """
    from repro.experiments.parallel import serve_sweeps
    from repro.serve.job import JobSpec
    from repro.wormhole.engine import resolve_engine

    kind = resolve_engine()
    figures = [FIGURES[name] for name in names]
    jobs = [
        JobSpec((net,), run_cfg, spec, loads=fig.loads_for(run_cfg), engine=kind)
        for fig in figures
        for _, net, spec in fig.series
    ]
    served = iter(serve_sweeps(jobs, progress=progress))
    return [
        FigureResult(
            fig.figure_id,
            fig.title,
            fig.expectation,
            tuple(replace(next(served)[0], label=label) for label, _, _ in fig.series),
        )
        for fig in figures
    ]
