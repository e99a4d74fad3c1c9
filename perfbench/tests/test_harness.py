"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    done, result = bench(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and value["value"] >= 0
        # The human-readable table names it with its unit as well.
        assert any(
            line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
            for line in done.stdout.splitlines()
        ), m["name"]
    if trace:
        assert "counted, not timed: Lane.acquire" in done.stdout
        check_trace_file(workload)
    else:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        assert f"[{workload}] failed_ratio" in done.stdout


def check_trace_file(workload: str) -> None:
    """Self times are non-negative and fit inside the time they split."""
    trace = json.loads((ROOT / ".perfbench" / f"trace-{workload}-3.json").read_text())
    spans, fine = trace["spans"], trace["fine"]
    assert spans and fine
    ids = {s[0] for s in spans}
    assert all(s[5] is None or s[5] in ids for s in spans)
    self_by_point: dict = {}
    for sid, name, t0, t1, self_s, parent, point in spans:
        assert self_s >= -1e-9 and t1 >= t0, name
        self_by_point.setdefault(point, []).append(self_s)
    for point, name, n, total, self_s in fine:
        assert n > 0 and self_s >= -1e-9 and total >= self_s - 1e-9, name
        self_by_point.setdefault(point, []).append(self_s)
    # Each point's spans split that point's root span (run_point, or
    # the serve worker's point); the parent's own spans (point None on
    # serve_mixed, every point on the paper workloads) split the wall.
    roots = {s[6]: s[3] - s[2] for s in spans if s[5] is None and s[6] is not None}
    for point, selfs in self_by_point.items():
        if point is not None:
            assert sum(selfs) <= roots[point] * 1.001 + 1e-6, point
    if workload == "serve_mixed":
        parent_self = sum(self_by_point.get(None, []))
    else:
        parent_self = sum(sum(v) for v in self_by_point.values())
    assert 0 < parent_self <= trace["wall_s"] * 1.001


def test_a_corrupted_measurement_trips_the_check():
    cfg = workloads.paper_config("paper_scaled", "tiny", 3)
    net = workloads.networks()[0]
    from repro.experiments import runner
    from repro.experiments.figures import uniform_workload
    from repro.traffic.clusters import global_cluster

    good = runner.run_point(net, uniform_workload(global_cluster(), cfg), 0.3, cfg)
    assert checks.check_measurement(good, net, cfg, cfg.sizes.low) == []
    for bad in (
        dataclasses.replace(good, delivered_packets=0),
        dataclasses.replace(good, avg_latency=1.0),
        dataclasses.replace(good, throughput=1.5),
        dataclasses.replace(good, avg_latency=float("nan")),
        dataclasses.replace(good, delivered_packets=cfg.measure_packets - 1, cycles=100.0),
    ):
        assert checks.check_measurement(bad, net, cfg, cfg.sizes.low)


def test_a_corrupted_point_fails_the_run(monkeypatch, capsys):
    from repro.experiments import runner

    real = runner.run_point
    calls = []

    def corrupt_first(*args, **kwargs):
        m = real(*args, **kwargs)
        calls.append(m)
        return dataclasses.replace(m, throughput=0.0) if len(calls) == 1 else m

    monkeypatch.setattr(runner, "run_point", corrupt_first)
    # run.main points temporary files into its work directory; undo that.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.delenv("TMPDIR", raising=False)
    code = run.main(["--workload", "paper_scaled", "--size", "tiny", "--seconds", "1",
                     "--seed", "3"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["attempted"] >= 2


def test_no_simulator_sources_means_no_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_scaled", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
