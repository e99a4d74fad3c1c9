"""Tests for the figure definitions, report rendering and shape checks.

Full-figure regeneration is exercised at SMOKE fidelity or below; the
statistically meaningful runs live in benchmarks/ (SCALED preset).  Here
we verify structure, determinism hooks and the *robust* physical
signatures (e.g. the exact 25% permutation cap) that hold even in tiny
runs.
"""

import os
from dataclasses import replace

import pytest

import repro.serve.compute as compute
from repro.experiments.config import SMOKE
from repro.experiments.figures import (
    BMIN,
    CUBE_DMIN,
    CUBE_TMIN,
    CUBE_VMIN,
    FIG19_LOADS,
    FIGURES,
    FigureResult,
    regenerate,
    uniform_workload,
)
from repro.experiments.report import render_figure, render_sweep, shape_checks
from repro.experiments.runner import run_point, sweep
from repro.experiments.workload_spec import WorkloadSpec
from repro.traffic.clusters import global_cluster

TINY = replace(
    SMOKE, warmup_packets=20, measure_packets=150, loads=(0.25, 0.6)
)


@pytest.fixture(scope="module")
def served():
    """Every figure at TINY, regenerated once on one sweep service."""
    return {fig.figure_id: fig for fig in regenerate(sorted(FIGURES), TINY)}


def failing_run_point(network, builder, load, run_cfg, engine=None):
    """Stand-in for ``repro.serve.compute.run_point`` that fails at one
    load (the supervisor forks its workers, so they run this)."""
    if load == float(os.environ["REPRO_FAIL_LOAD"]):
        raise RuntimeError(f"simulated failure at load {load}")
    return run_point(network, builder, load, run_cfg, engine)


def test_figure_builders_registry():
    assert sorted(FIGURES) == ["fig16", "fig17", "fig18", "fig19", "fig20"]
    assert all(FIGURES[name].figure_id == name for name in FIGURES)


def test_figures_cover_every_paper_workload():
    specs = {spec for fig in FIGURES.values() for _, _, spec in fig.series}
    assert {s.pattern for s in specs} == {"uniform", "hotspot", "shuffle", "butterfly"}
    assert WorkloadSpec(pattern="butterfly", butterfly_i=2) in specs
    assert {s.clustering for s in specs} == {"global", "cluster16", "cluster16-shared"}
    assert any(s.ratios for s in specs)
    # Fig. 19 sweeps its own ladder, cut at the preset's top load.
    assert FIGURES["fig19"].loads_for(TINY) == FIG19_LOADS
    assert FIGURES["fig19"].loads_for(replace(TINY, loads=(0.2,))) == FIG19_LOADS[:4]
    assert FIGURES["fig18"].loads_for(TINY) == TINY.loads


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_served_figure_matches_in_process_sweep(served, figure_id):
    """Every served series equals the in-process sweep over the same
    WorkloadSpec, point for point and label for label."""
    figure = FIGURES[figure_id]
    fig = served[figure_id]
    assert (fig.figure_id, fig.title, fig.expectation) == (
        figure.figure_id, figure.title, figure.expectation,
    )
    assert fig.labels == [label for label, _, _ in figure.series]
    assert fig.complete
    for (label, net, spec), got in zip(figure.series, fig.series):
        want = sweep(
            net, spec.builder(TINY), TINY, loads=figure.loads_for(TINY), label=label
        )
        assert got == want


def test_shared_curves_are_served_once(served):
    """fig16's cube-TMIN/global curve is fig18's TMIN/global grid: one
    dedupe pass over all figures folds them onto the same cache entries."""
    a = served["fig16"].by_label("cube TMIN / global")
    b = served["fig18"].by_label("TMIN / global")
    assert a.points == b.points
    keys = [[p["key"] for p in s.dispatch.points] for s in (a, b)]
    assert keys[0] == keys[1]


def test_fig16_structure_and_rendering(served):
    fig = served["fig16"]
    assert isinstance(fig, FigureResult)
    assert len(fig.series) == 5
    assert "cube TMIN / global" in fig.labels
    text = render_figure(fig)
    assert "fig16" in text and "thr %" in text
    assert fig.by_label("cube TMIN / global").points
    with pytest.raises(KeyError):
        fig.by_label("nope")


def test_fig16_global_equivalence_holds_even_tiny(served):
    """Cube and butterfly TMIN coincide under global uniform traffic."""
    fig = served["fig16"]
    cube = fig.by_label("cube TMIN / global").max_sustained_throughput()
    butt = fig.by_label("butterfly TMIN / global").max_sustained_throughput()
    assert abs(cube - butt) < max(4.0, 0.15 * cube)


def test_fig18_ordering_dmin_over_tmin(served):
    """The headline: DMIN beats TMIN, robust even in tiny runs."""
    fig = served["fig18"]
    dmin = fig.by_label("DMIN / global").max_sustained_throughput()
    tmin = fig.by_label("TMIN / global").max_sustained_throughput()
    assert dmin > tmin
    checks = shape_checks(fig)
    by_claim = {c.claim: c for c in checks}
    assert by_claim["global: DMIN best"].passed
    assert by_claim["global: TMIN worst"].passed


def test_fig20_static_quarter_cap():
    """Under shuffle traffic TMIN and VMIN cap at exactly 25%: four
    source/destination pairs share one channel (Section 5.3.3)."""
    wb = WorkloadSpec(pattern="shuffle").builder(TINY)
    for net in (CUBE_TMIN, CUBE_VMIN):
        s = sweep(net, wb, TINY, loads=(0.6,), label=net.label)
        thr = s.points[0].measurement.throughput_percent
        assert thr <= 25.5
        assert thr >= 20.0  # and the cap is actually approached


def test_fig20_dmin_and_bmin_clear_the_cap():
    wb = WorkloadSpec(pattern="shuffle").builder(TINY)
    for net in (CUBE_DMIN, BMIN):
        s = sweep(net, wb, TINY, loads=(0.6,), label=net.label)
        assert s.points[0].measurement.throughput_percent > 30.0


def test_shape_checks_cover_every_figure(served):
    fig = served["fig16"]
    assert shape_checks(fig)
    bogus = FigureResult("fig99", "t", "e", fig.series)
    with pytest.raises(ValueError):
        shape_checks(bogus)


def test_shape_check_str(served):
    fig = served["fig16"]
    for chk in shape_checks(fig):
        text = str(chk)
        assert text.startswith(("[PASS]", "[FAIL]"))


def test_render_sweep_marks_unsaturated_points():
    wb = uniform_workload(global_cluster(), TINY)
    s = sweep(CUBE_TMIN, wb, TINY, loads=(0.25,))
    text = render_sweep(s)
    assert "0.25" in text and ("yes" in text or "NO" in text)


def test_cli_smoke(capsys):
    from repro.experiments.__main__ import main

    rc = main(["--figure", "fig16", "--mode", "smoke"])
    out = capsys.readouterr().out
    assert "fig16" in out and "shape checks" in out
    assert rc in (0, 1)


def test_cli_requires_target(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main([])


def test_cli_reports_failed_points_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    """A served point that keeps failing is quarantined; the CLI prints
    its error, never renders the curve as complete, and exits 1."""
    from repro.experiments.__main__ import main

    monkeypatch.setenv("REPRO_FAIL_LOAD", "0.6")
    monkeypatch.setattr(compute, "run_point", failing_run_point)
    rc = main(["--figure", "fig16", "--mode", "smoke", "--csv", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ERROR: RuntimeError: simulated failure at load 0.6" in out
    assert "INCOMPLETE" in out
    assert "[FAIL] cube TMIN / global: every point measured" in out
    assert "exports written" not in out and not list(tmp_path.iterdir())
