"""End-to-end tests for the post-saturation stability sweep, plus the
export round-trip of the new overload counters."""

import math
from dataclasses import replace

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.export import (
    CSV_FIELDS,
    read_figure_csv,
    write_figure_csv,
)
from repro.experiments.stability import (
    LOAD_FACTORS,
    render_stability,
    stability_checks,
    stability_point,
    stability_sweep,
)
from repro.stability import BoundedQueue

QUICK = replace(
    SMOKE, warmup_packets=30, measure_packets=150, max_cycles=8_000
)
NET = NetworkConfig("dmin", k=2, n=3)


@pytest.fixture(scope="module")
def sweep_result():
    return stability_sweep(NET, QUICK, load_factors=(0.8, 1.3), batches=16)


# ------------------------------------------------------------------- sweep


def test_sweep_structure(sweep_result):
    r = sweep_result
    assert r.label.startswith("DMIN")
    assert [p.load_factor for p in r.points] == [0.8, 1.3]
    for p in r.points:
        assert p.offered_load == pytest.approx(p.load_factor * r.knee.load)
        assert p.stability in ("stable", "metastable", "collapsed")
        assert 0.0 < p.mean_rate <= 1.0
        assert p.steady.samples == 16
        assert p.steady.retained == 16 - p.steady.truncation


def test_sweep_stays_bounded_past_the_knee(sweep_result):
    """The whole point of the toolkit: overload never means unbounded
    queues or a dead fabric."""
    over = sweep_result.points[-1]
    assert over.measurement.max_queue_len <= 128  # BoundedQueue default
    assert over.measurement.delivered_packets > 0
    # Past the knee the loop actually engaged: admission or the
    # governor pushed back on at least one source.
    assert over.sheds + over.throttles > 0 or over.mean_rate < 1.0


def test_sweep_classifies_below_knee_as_stable(sweep_result):
    """0.8x the knee is by construction sustainable: throughput holds
    near offered, so it must not be called collapsed."""
    assert sweep_result.stability_at(0.8) != "collapsed"
    with pytest.raises(KeyError):
        sweep_result.stability_at(9.9)


def test_point_validation():
    with pytest.raises(ValueError):
        stability_point(NET, QUICK, offered_load=0.0, knee_throughput=None)
    with pytest.raises(ValueError):
        stability_point(
            NET, QUICK, offered_load=0.5, knee_throughput=None, batches=4
        )


def test_point_without_governor_or_watchdog():
    p = stability_point(
        NET,
        QUICK,
        offered_load=0.4,
        knee_throughput=None,
        governed=False,
        watchdog=False,
        batches=8,
        admission=BoundedQueue(capacity=32),
    )
    assert p.mean_rate == 1.0
    assert p.measurement.max_queue_len <= 32
    assert math.isnan(p.load_factor)


# ------------------------------------------------------------------ render


def test_render_and_checks(sweep_result):
    text = render_stability([sweep_result])
    assert "stability" in text
    assert sweep_result.label in text
    assert "xknee" in text and "maxq" in text
    checks = stability_checks([sweep_result])
    assert len(checks) == 3
    assert all(c.passed for c in checks), [
        (c.claim, c.detail) for c in checks if not c.passed
    ]


def test_load_factor_ladder_is_sane():
    assert LOAD_FACTORS[0] < 1.0 < LOAD_FACTORS[-1]
    assert list(LOAD_FACTORS) == sorted(LOAD_FACTORS)


# ----------------------------------------------- export of the new counters


def test_new_counters_in_csv_fields():
    for name in ("shed_packets", "throttled_packets",
                 "stall_aborted_packets", "max_queue_len"):
        assert name in CSV_FIELDS


def test_overload_counters_roundtrip_through_csv(tmp_path):
    """A point run under shedding admission exports its counters
    through the registry and reads them back typed."""
    from repro.experiments.figures import FigureResult
    from repro.experiments.runner import LoadPoint, SweepResult, build_point
    from repro.experiments.workload_spec import WorkloadSpec
    from repro.metrics.collector import MeasurementWindow
    from repro.stability import SHED_NEWEST

    cfg = replace(SMOKE, warmup_packets=20, measure_packets=100,
                  loads=(0.9,))
    spec = WorkloadSpec(k=2, n=3)

    # One point run manually with a tiny admission bound installed so
    # the overload counters are genuinely non-zero.
    sim = build_point(NET, 0.9, cfg)
    env, eng, root = sim.env, sim.engine, sim.root
    BoundedQueue(capacity=4, mode=SHED_NEWEST).install(eng)
    workload = spec.builder(cfg)(0.9)
    workload.install(env, eng, root.fork("workload/x/0.9"))
    eng.start()
    env.run(until=2_000)
    window = MeasurementWindow(eng)
    window.begin()
    env.run(until=env.now + 4_000)
    m = window.finish()
    assert m.shed_packets > 0  # the tiny bound genuinely shed

    sr = SweepResult("OVR", (LoadPoint(0.9, m),))
    fig = FigureResult("figS", "overload export", "counters", (sr,))
    path = write_figure_csv(fig, tmp_path / "fig.csv")
    back = read_figure_csv(path)[0]
    assert back["shed_packets"] == m.shed_packets
    assert back["throttled_packets"] == m.throttled_packets
    assert back["stall_aborted_packets"] == m.stall_aborted_packets
    assert back["max_queue_len"] == m.max_queue_len
    assert isinstance(back["shed_packets"], int)
