"""Ablation: more virtual channels / higher dilation / BMIN with VCs.

Section 6's future-work list: "VMINs with more than two virtual
channels" and "BMINs with virtual channels".  This bench sweeps the lane
multiplicity at a heavy uniform load and under the shuffle permutation,
where extra lanes should matter most.
"""

from dataclasses import replace

from benchmarks.conftest import save_and_print
from repro.experiments.config import NetworkConfig
from repro.experiments.figures import uniform_workload
from repro.experiments.runner import run_point
from repro.experiments.workload_spec import WorkloadSpec
from repro.traffic.clusters import global_cluster

VARIANTS = [
    NetworkConfig("tmin"),
    NetworkConfig("vmin", virtual_channels=2),
    NetworkConfig("vmin", virtual_channels=4),
    NetworkConfig("dmin", dilation=2),
    NetworkConfig("dmin", dilation=4),
    NetworkConfig("bmin"),
    NetworkConfig("bmin", bmin_virtual_channels=2),
]

LOAD = 0.8


def _run_all(bench_cfg):
    cfg = replace(bench_cfg, measure_packets=800)
    out = []
    for wb_name, wb in (
        ("uniform", uniform_workload(global_cluster(), cfg)),
        ("shuffle", WorkloadSpec(pattern="shuffle").builder(cfg)),
    ):
        for net in VARIANTS:
            label = net.label + (
                f"+vc{net.bmin_virtual_channels}"
                if net.kind == "bmin" and net.bmin_virtual_channels > 1
                else ""
            )
            m = run_point(net, wb, LOAD, cfg)
            out.append((wb_name, label, m))
    return out


def test_lane_multiplicity_ablation(benchmark, results_dir, bench_cfg):
    rows = benchmark.pedantic(
        _run_all, args=(bench_cfg,), rounds=1, iterations=1
    )
    lines = [f"lane-multiplicity ablation @ load {LOAD:.0%}", ""]
    lines.append(f"{'workload':<10} {'network':<26} {'thr %':>7} {'lat':>9}")
    for wb_name, label, m in rows:
        lines.append(
            f"{wb_name:<10} {label:<26} "
            f"{m.throughput_percent:7.2f} {m.avg_latency:9.1f}"
        )
    save_and_print(results_dir, "ablation_lanes", "\n".join(lines))

    uni = {lb: m.throughput_percent for w, lb, m in rows if w == "uniform"}
    shf = {lb: m.throughput_percent for w, lb, m in rows if w == "shuffle"}

    # More lanes never hurt under uniform traffic.
    assert uni["DMIN(d=4, cube)"] >= uni["DMIN(d=2, cube)"] - 2.0
    assert uni["VMIN(v=4, cube)"] >= uni["VMIN(v=2, cube)"] - 2.0
    # Under shuffle, virtual channels add NO bandwidth: four VCs still
    # share one wire, so the static 25% cap stands regardless of v.
    assert abs(shf["VMIN(v=4, cube)"] - shf["VMIN(v=2, cube)"]) < 3.0
    assert shf["VMIN(v=4, cube)"] <= 26.0
    # Dilation adds wires: d=4 absorbs the 4-way conflicts entirely.
    assert shf["DMIN(d=4, cube)"] > shf["DMIN(d=2, cube)"] + 5.0
    # Extra VCs on the BMIN reduce head-of-line blocking on the shared
    # backward channels (the paper's future-work variant pays off).
    assert shf["BMIN+vc2"] >= shf["BMIN"] - 1.0
