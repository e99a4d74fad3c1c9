"""Direct-topology sweeps: mesh/torus, DOR vs adaptive, side by side.

The paper evaluates indirect switch-based fabrics; this module runs the
same offered-load protocol over the :mod:`repro.direct` node-to-node
fabrics so the two families can be compared on one table.  The default
panel is the paper's 64-node geometry (``4^3``) in four flavours::

    MESH3D(4^3, dor)      MESH3D(4^3, adaptive)
    TORUS3D(4^3, dor)     TORUS3D(4^3, adaptive)

:func:`direct_comparison` serves the panel as one job on the sweep
service, like the MIN figures, so every point goes through the
identical warmup/measure protocol (and the identical seeds).
:func:`direct_checks` asserts the qualitative shape the topologies
guarantee: every point measures, every load delivers (the escape
fallback keeps every header routable, so no deadlock wedges a run),
nothing is dropped without faults, and deep in the linear regime the
torus' wrap links must not make latency *worse* than the mesh's under
the same router.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.report import ShapeCheck, render_sweep
from repro.experiments.runner import SweepResult
from repro.experiments.workload_spec import WorkloadSpec
from repro.wormhole.engine import resolve_engine

#: The default comparison panel: (kind, router) pairs.
DIRECT_PANEL = (
    ("mesh3d", "dor"),
    ("mesh3d", "adaptive"),
    ("torus3d", "dor"),
    ("torus3d", "adaptive"),
)


@dataclass(frozen=True)
class DirectSeries:
    """One panel entry: the config that produced a sweep, plus the sweep.

    (:class:`SweepResult` carries only a display label; the checks need
    the structured kind/router to pair mesh against torus.)
    """

    config: NetworkConfig
    result: SweepResult


def direct_configs(
    panel: Sequence[tuple[str, str]] = DIRECT_PANEL,
    k: int = 4,
    n: int = 3,
    vlink_slowdown: int = 1,
) -> list[NetworkConfig]:
    """The panel as :class:`NetworkConfig` records (power-of-two radix
    so the workload clustering's bit arithmetic applies unchanged)."""
    return [
        NetworkConfig(kind, k=k, n=n, router=router,
                      vlink_slowdown=vlink_slowdown)
        for kind, router in panel
    ]


def direct_comparison(
    run_cfg: RunConfig,
    loads: Optional[Sequence[float]] = None,
    configs: Optional[Sequence[NetworkConfig]] = None,
    pattern: str = "uniform",
    engine: Optional[str] = None,
) -> list[DirectSeries]:
    """Sweep every panel config over the offered-load ladder, served as
    one job (the workload's geometry follows each config).  A failed
    point comes back as ``LoadPoint(load, None, error)``."""
    from repro.experiments.parallel import serve_sweeps
    from repro.serve.job import JobSpec

    if configs is None:
        configs = direct_configs()
    job = JobSpec(
        tuple(configs),
        run_cfg,
        WorkloadSpec(pattern=pattern),
        loads=tuple(loads or ()),
        engine=resolve_engine(engine),
    )
    (results,) = serve_sweeps([job])
    return [
        DirectSeries(cfg, replace(result, label=cfg.label))
        for cfg, result in zip(configs, results)
    ]


def render_direct(series: Sequence[DirectSeries]) -> str:
    """Aligned text tables, one block per config."""
    lines = ["=== direct topologies: mesh/torus, DOR vs adaptive ==="]
    for s in series:
        lines.append("")
        lines.append(render_sweep(s.result))
    return "\n".join(lines)


def direct_checks(series: Sequence[DirectSeries]) -> list[ShapeCheck]:
    """Qualitative claims the direct fabrics must deliver."""
    checks: list[ShapeCheck] = []

    def check(claim: str, passed: bool, detail: str) -> None:
        checks.append(ShapeCheck(claim, passed, detail))

    for s in series:
        r = s.result
        # Every point ran to a measurement (no crashed workers).
        errors = [p.offered_load for p in r.points if p.measurement is None]
        check(
            f"{r.label}: every point measured",
            not errors,
            f"errored loads: {errors or 'none'}",
        )
        measured = [p for p in r.points if p.measurement is not None]
        if not measured:
            continue
        # Deadlock freedom in practice: something was delivered at
        # every load (a wedged fabric delivers nothing past warmup).
        stuck = [
            p.offered_load
            for p in measured
            if p.measurement.delivered_packets == 0
        ]
        check(
            f"{r.label}: packets delivered at every load",
            not stuck,
            f"starved loads: {stuck or 'none'}",
        )
        dropped = sum(p.measurement.dropped_packets for p in measured)
        check(
            f"{r.label}: no drops without faults",
            dropped == 0,
            f"{dropped} packets dropped",
        )
    # Cross-config: at the *lowest* common load (deep in the linear
    # regime, where contention noise is smallest) the torus' shorter
    # routes must show -- its mean latency may not exceed the mesh's
    # under the same router by more than 20%.
    by_key = {(s.config.kind, s.config.router): s.result for s in series}
    for router in ("dor", "adaptive"):
        mesh = by_key.get(("mesh3d", router))
        torus = by_key.get(("torus3d", router))
        if mesh is None or torus is None:
            continue
        pairs = [
            (mp, tp)
            for mp, tp in zip(mesh.points, torus.points)
            if mp.measurement is not None and tp.measurement is not None
        ]
        if not pairs:
            continue
        mp, tp = pairs[0]
        m_lat, t_lat = mp.measurement.avg_latency, tp.measurement.avg_latency
        check(
            f"torus3d({router}): wrap links do not hurt latency at "
            f"load {mp.offered_load:g}",
            t_lat <= 1.2 * m_lat,
            f"torus {t_lat:.1f} vs mesh {m_lat:.1f} cycles",
        )
    return checks
