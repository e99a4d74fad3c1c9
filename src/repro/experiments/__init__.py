"""The paper's simulation experiments (Section 5), reproducible end to end.

* :mod:`repro.experiments.config` -- network / run configurations, with
  ``SCALED`` (quick, short messages) and ``FULL_FIDELITY`` (the paper's
  8-1024-flit messages and longer windows) presets;
* :mod:`repro.experiments.runner` -- the point pipeline, the only
  place a point is assembled and measured: :func:`build_point` plus
  one helper per optional layer (retry, MTBF churn, transport,
  admission/governor, watchdog) and one warm-up/measure loop; plus
  :func:`run_point` and whole offered-load sweeps;
* :mod:`repro.experiments.figures` -- the evaluation figures (Fig. 16
  through Fig. 20) as data, and :func:`regenerate`, which serves their
  series on one sweep service and returns one
  :class:`~repro.experiments.figures.FigureResult` per figure;
* :mod:`repro.experiments.report` -- aligned text tables and the
  shape-checks recorded in EXPERIMENTS.md;
* :mod:`repro.experiments.availability` -- degradation sweeps
  (throughput / latency / delivery ratio vs. channel fault rate) using
  :mod:`repro.faults`;
* :mod:`repro.experiments.stability` -- post-saturation overload
  sweeps (steady-state classification past the knee) using
  :mod:`repro.stability`;
* :mod:`repro.experiments.parallel` -- multi-process sweeps as thin
  clients of the :mod:`repro.serve` sweep service (supervised workers,
  cache-backed resume, a ``progress`` heartbeat callback);
* :mod:`repro.experiments.traced` -- one measured point with the
  :mod:`repro.obs` observability subsystem attached (contention
  ledgers, latency histograms, optional Perfetto trace).

Command line: ``python -m repro.experiments --figure fig18 --mode scaled``
(or ``--all`` / ``--availability`` / ``--stability`` / ``--direct`` /
``--transport``).
"""

from repro.experiments.config import (
    FULL_FIDELITY,
    SCALED,
    SMOKE,
    NetworkConfig,
    RunConfig,
)
from repro.experiments.figures import FIGURES, Figure, FigureResult, regenerate
from repro.experiments.runner import (
    LoadPoint,
    PointTimeout,
    SweepResult,
    run_point,
    set_point_deadline,
    sweep,
)
from repro.experiments.report import render_figure, shape_checks
from repro.experiments.plotting import ascii_curve_plot, plot_figure
from repro.experiments.export import write_figure_csv, write_figure_json
from repro.experiments.saturation import (
    CONVERGED,
    HI_SUSTAINABLE,
    LO_SATURATED,
    SATURATION_STATUSES,
    SaturationPoint,
    find_saturation,
)
from repro.experiments.stability import (
    LOAD_FACTORS,
    StabilityPoint,
    StabilityResult,
    render_stability,
    stability_checks,
    stability_comparison,
    stability_point,
    stability_sweep,
)
from repro.experiments.workload_spec import WorkloadSpec
from repro.experiments.parallel import (
    ProgressFn,
    parallel_matrix,
    parallel_sweep,
)
from repro.experiments.traced import run_traced_point
from repro.experiments.availability import (
    AvailabilityPoint,
    AvailabilityResult,
    availability_checks,
    availability_comparison,
    availability_point,
    availability_sweep,
    render_availability,
)

__all__ = [
    "AvailabilityPoint",
    "AvailabilityResult",
    "CONVERGED",
    "HI_SUSTAINABLE",
    "LOAD_FACTORS",
    "LO_SATURATED",
    "PointTimeout",
    "SATURATION_STATUSES",
    "StabilityPoint",
    "StabilityResult",
    "FIGURES",
    "Figure",
    "FULL_FIDELITY",
    "FigureResult",
    "LoadPoint",
    "ProgressFn",
    "availability_checks",
    "availability_comparison",
    "availability_point",
    "availability_sweep",
    "render_availability",
    "NetworkConfig",
    "RunConfig",
    "SCALED",
    "SMOKE",
    "SaturationPoint",
    "SweepResult",
    "WorkloadSpec",
    "ascii_curve_plot",
    "parallel_matrix",
    "parallel_sweep",
    "find_saturation",
    "plot_figure",
    "regenerate",
    "render_figure",
    "render_stability",
    "run_point",
    "run_traced_point",
    "set_point_deadline",
    "shape_checks",
    "stability_checks",
    "stability_comparison",
    "stability_point",
    "stability_sweep",
    "sweep",
    "write_figure_csv",
    "write_figure_json",
]
