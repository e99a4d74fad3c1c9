"""Tests for the structural throughput ceilings, including the
property tests that pin the simulator against them."""

import math
from dataclasses import replace

import pytest

from repro.analysis.bounds import cluster_ratio_cap, hot_spot_cap, permutation_cap


def test_hot_spot_cap_paper_values():
    """The 64-node caps behind Fig. 19: ~25% at x=5%, ~15% at x=10%."""
    assert math.isclose(hot_spot_cap(64, 0.05), 0.25, rel_tol=0.01)
    assert abs(hot_spot_cap(64, 0.10) - 0.149) < 0.005


def test_hot_spot_cap_no_hotspot():
    """x = 0 gives the trivial cap of 1.0 (uniform delivery balance)."""
    assert hot_spot_cap(64, 0.0) == 1.0


def test_hot_spot_cap_monotone_in_x():
    caps = [hot_spot_cap(64, x) for x in (0.0, 0.02, 0.05, 0.1, 0.5)]
    assert all(a >= b for a, b in zip(caps, caps[1:]))


def test_hot_spot_cap_validation():
    with pytest.raises(ValueError):
        hot_spot_cap(1, 0.05)
    with pytest.raises(ValueError):
        hot_spot_cap(64, -0.01)


def test_permutation_cap_shuffle_on_tmin():
    """Shuffle on the 64-node cube TMIN: 4-way sharing, 60/64 active
    -> cap 25%; with dilation 2 -> 50%; with dilation 4 -> 60/64."""
    active = 60 / 64
    assert permutation_cap(4, 1, active) == 0.25
    assert permutation_cap(4, 2, active) == 0.5
    assert permutation_cap(4, 4, active) == active


def test_permutation_cap_validation():
    with pytest.raises(ValueError):
        permutation_cap(0)
    with pytest.raises(ValueError):
        permutation_cap(4, 0)
    with pytest.raises(ValueError):
        permutation_cap(4, 1, 0.0)
    with pytest.raises(ValueError):
        permutation_cap(4, 1, 1.5)


def test_cluster_ratio_cap_paper_cases():
    sizes = [16, 16, 16, 16]
    assert cluster_ratio_cap(sizes, [1, 1, 1, 1]) == 1.0
    assert cluster_ratio_cap(sizes, [1, 0, 0, 0]) == 0.25
    assert math.isclose(cluster_ratio_cap(sizes, [4, 1, 1, 1]), (16 + 3 * 4) / 64)


def test_cluster_ratio_cap_validation():
    with pytest.raises(ValueError):
        cluster_ratio_cap([16], [1, 2])
    with pytest.raises(ValueError):
        cluster_ratio_cap([], [])
    with pytest.raises(ValueError):
        cluster_ratio_cap([0, 16], [1, 1])
    with pytest.raises(ValueError):
        cluster_ratio_cap([16, 16], [0, 0])
    with pytest.raises(ValueError):
        cluster_ratio_cap([16, 16], [1, -1])


# ------------------------- the simulator must respect every ceiling


def _simulate(network_kind, wb, load, measure=400):
    from repro.experiments.config import SMOKE, NetworkConfig
    from repro.experiments.runner import run_point

    cfg = replace(SMOKE, measure_packets=measure)
    return run_point(NetworkConfig(network_kind), wb, load, cfg)


def test_simulator_respects_hot_spot_cap():
    from repro.experiments.config import SMOKE
    from repro.experiments.workload_spec import WorkloadSpec

    cfg = replace(SMOKE, measure_packets=500)
    wb = WorkloadSpec(pattern="hotspot", hot_fraction=0.10).builder(cfg)
    m = _simulate("dmin", wb, 0.6, measure=500)
    # Allow transient slack: the window may drain queued pre-window
    # traffic, but steady state cannot exceed the cap by much.
    assert m.throughput <= hot_spot_cap(64, 0.10) * 1.35


def test_simulator_respects_permutation_cap():
    from repro.experiments.config import SMOKE
    from repro.experiments.workload_spec import WorkloadSpec

    cfg = replace(SMOKE, measure_packets=500)
    wb = WorkloadSpec(pattern="shuffle").builder(cfg)
    for kind, channels in (("tmin", 1), ("vmin", 2), ("dmin", 2)):
        m = _simulate(kind, wb, 0.9, measure=500)
        # VMIN's fair flit-multiplexing cannot beat the single wire:
        # its effective cap is the TMIN's.
        effective = 1 if kind == "vmin" else channels
        cap = permutation_cap(4, effective, 60 / 64)
        assert m.throughput <= cap * 1.1, (kind, m.throughput, cap)


def test_simulator_respects_cluster_ratio_cap():
    from repro.experiments.config import SMOKE
    from repro.experiments.figures import uniform_workload
    from repro.traffic.clusters import cluster_16

    cfg = replace(SMOKE, measure_packets=400)
    wb = uniform_workload(cluster_16("cube", (1, 0, 0, 0)), cfg)
    m = _simulate("dmin", wb, 1.0, measure=400)
    assert m.throughput <= cluster_ratio_cap([16] * 4, [1, 0, 0, 0]) * 1.1
