"""Tests for the declarative workload specs and the parallel runner."""

import os
from dataclasses import replace

import pytest

import repro.serve.compute as compute
from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.parallel import (
    parallel_matrix,
    parallel_sweep,
    sweep_results,
)
from repro.experiments.runner import run_point, sweep
from repro.experiments.workload_spec import WorkloadSpec

QUICK = replace(SMOKE, warmup_packets=20, measure_packets=100, loads=(0.2, 0.5))


# Module-level stand-ins for ``repro.serve.compute.run_point``: the
# supervisor forks its workers, so a monkeypatched module attribute is
# what the worker runs.


def flaky_run_point(network, builder, load, run_cfg, engine=None):
    """Crashes until the sentinel file exists (created on first call):
    the first attempt dies, the supervisor's retry succeeds."""
    sentinel = os.environ["REPRO_FLAKY_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed once")
        raise OSError("transient failure")
    return run_point(network, builder, load, run_cfg, engine)


def counting_run_point(network, builder, load, run_cfg, engine=None):
    """Tallies one line per invocation under REPRO_COUNT_DIR, per load."""
    with open(os.path.join(os.environ["REPRO_COUNT_DIR"], f"{load}"), "a") as fh:
        fh.write("ran\n")
    return run_point(network, builder, load, run_cfg, engine)


# ------------------------------------------------------------- WorkloadSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(pattern="tsunami")
    with pytest.raises(ValueError):
        WorkloadSpec(clustering="ring")
    with pytest.raises(ValueError):
        WorkloadSpec(pattern="shuffle", clustering="cluster16")


def test_spec_labels():
    assert WorkloadSpec().label == "uniform"
    assert WorkloadSpec(pattern="hotspot", hot_fraction=0.1).label == "hotspot 10%"
    assert "cluster16" in WorkloadSpec(clustering="cluster16").label
    assert "4:1:1:1" in WorkloadSpec(
        clustering="cluster16", ratios=(4, 1, 1, 1)
    ).label
    assert "i=2" in WorkloadSpec(pattern="butterfly").label


def test_spec_clusters():
    assert WorkloadSpec().clusters().N == 64
    assert WorkloadSpec(clustering="cluster32").clusters().name == "cluster-32"
    shared = WorkloadSpec(clustering="cluster16-shared").clusters()
    assert "XX0" in shared.name


def test_spec_builder_matches_figure_builder():
    """The spec rebuilds the exact closure ``uniform_workload`` makes:
    identical measurements."""
    from repro.experiments.figures import uniform_workload
    from repro.experiments.runner import run_point
    from repro.traffic.clusters import global_cluster

    net = NetworkConfig("tmin")
    a = run_point(net, uniform_workload(global_cluster(), QUICK), 0.3, QUICK)
    b = run_point(net, WorkloadSpec().builder(QUICK), 0.3, QUICK)
    assert a == b


def test_spec_is_picklable():
    import pickle

    spec = WorkloadSpec(pattern="hotspot", hot_fraction=0.1)
    assert pickle.loads(pickle.dumps(spec)) == spec


# ----------------------------------------------------------- parallel runner


def test_parallel_sweep_matches_sequential():
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    seq = sweep(net, spec.builder(QUICK), QUICK, label="x")
    par = parallel_sweep(net, spec, QUICK, label="x", max_workers=2)
    assert par == seq


def test_parallel_matrix_structure():
    nets = [NetworkConfig("tmin", k=2, n=3), NetworkConfig("bmin", k=2, n=3)]
    spec = WorkloadSpec(k=2, n=3)
    results = parallel_matrix(nets, spec, QUICK, max_workers=2)
    assert len(results) == 2
    assert [len(r.points) for r in results] == [2, 2]
    assert results[0].label.startswith("TMIN")
    assert results[1].label.startswith("BMIN")
    # Matrix points equal per-network parallel sweeps.
    solo = parallel_sweep(nets[1], spec, QUICK, max_workers=2)
    assert results[1].points == solo.points


def test_jobs_on_one_service_share_points(tmp_path, monkeypatch):
    """serve_sweeps dedupes across jobs: a point two jobs request is
    simulated once, and each job still gets its own manifest."""
    from repro.experiments.parallel import serve_sweeps
    from repro.serve.job import JobSpec

    counts = tmp_path / "counts"
    counts.mkdir()
    monkeypatch.setenv("REPRO_COUNT_DIR", str(counts))
    monkeypatch.setattr(compute, "run_point", counting_run_point)
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    jobs = [
        JobSpec((net,), QUICK, spec, loads=(0.2, 0.5)),
        JobSpec((net,), QUICK, spec, loads=(0.5,)),
    ]
    (first,), (second,) = serve_sweeps(jobs, max_workers=2)
    assert first.points[1] == second.points[0]
    assert first.dispatch.job_id != second.dispatch.job_id
    assert second.dispatch.counts["requested"] == 1
    tallies = {p.name: len(p.read_text().splitlines())
               for p in counts.iterdir()}
    assert tallies == {"0.2": 1, "0.5": 1}
    seq = sweep(net, spec.builder(QUICK), QUICK)
    assert first.points == seq.points


# --------------------------------------------------------- crash tolerance


def test_worker_crash_keeps_other_points(tmp_path):
    """A failed point loses only itself: the manifest->SweepResult
    mapping keeps every served point and attaches the supervisor's
    error string to the casualty."""
    from repro.serve.cache import ResultCache
    from repro.serve.compute import run_point_spec
    from repro.serve.job import JobManifest, JobSpec, summarize_points

    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    job = JobSpec(networks=(net,), run=QUICK, workload=spec)
    ok, bad = job.points()
    cache = ResultCache(tmp_path)
    cache.put(ok.key(), run_point_spec(ok))
    manifest = JobManifest(
        job_id=job.job_id,
        spec=job.to_dict(),
        points=summarize_points(
            job.points(),
            {ok.key(): "computed", bad.key(): "failed"},
            {bad.key(): "RuntimeError: simulated worker crash"},
        ),
    )
    (result,) = sweep_results(manifest, cache, per_series=2)
    assert result.label == "DMIN(d=2, cube) / uniform"
    assert not result.complete
    assert result.errors() == [(0.5, "RuntimeError: simulated worker crash")]
    by_load = {p.offered_load: p for p in result.points}
    assert by_load[0.2].ok                      # the good point survived
    assert by_load[0.5].measurement is None
    # The partial sweep still answers what it can.
    assert result.max_sustained_throughput() > 0
    with pytest.raises(ValueError):
        result.latency_at(0.5)
    # The served point is the sequential runner's measurement.
    seq = sweep(net, spec.builder(QUICK), QUICK, loads=(0.2,))
    assert by_load[0.2] == seq.points[0]


def test_unserved_point_reports_its_status(tmp_path):
    """A point an interrupted job never settled maps to an error
    naming its status, not to a measurement."""
    from repro.serve.cache import ResultCache
    from repro.serve.job import JobManifest, JobSpec, summarize_points

    job = JobSpec(
        networks=(NetworkConfig("dmin", k=2, n=3),),
        run=QUICK,
        workload=WorkloadSpec(k=2, n=3),
        loads=(0.2,),
    )
    manifest = JobManifest(
        job_id=job.job_id,
        spec=job.to_dict(),
        points=summarize_points(job.points(), {}),
    )
    (result,) = sweep_results(manifest, ResultCache(tmp_path), per_series=1)
    assert result.errors() == [(0.2, "pending")]


def test_supervisor_retry_recovers_transient_crash(tmp_path, monkeypatch):
    """A point whose first attempt crashes in a worker is retried by
    the supervisor and lands bit-identical to the sequential runner."""
    sentinel = tmp_path / "flaky.flag"
    monkeypatch.setenv("REPRO_FLAKY_SENTINEL", str(sentinel))
    monkeypatch.setattr(compute, "run_point", flaky_run_point)
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(net, spec, QUICK, loads=(0.2,), max_workers=1)
    assert result.complete
    assert sentinel.exists()  # proof the first attempt crashed
    assert result.dispatch.supervisor["retries"] == 1
    seq = sweep(net, spec.builder(QUICK), QUICK, loads=(0.2,))
    assert result.points == seq.points


def test_cooperative_deadline_fires_inside_the_simulation_loop():
    """set_point_deadline + a practically endless point: the simulation
    loop's cooperative check converts the overrun into PointTimeout."""
    from repro.experiments.runner import PointTimeout, set_point_deadline

    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    endless = replace(
        QUICK, warmup_packets=10**9, measure_packets=10**9,
        max_cycles=10**9,
    )
    set_point_deadline(0.3)
    try:
        with pytest.raises(PointTimeout):
            run_point(net, spec.builder(endless), 0.5, endless)
    finally:
        set_point_deadline(None)
    # One timeout per arming: a fresh (undeadlined) point runs fine.
    assert run_point(net, spec.builder(QUICK), 0.2, QUICK).cycles > 0


def test_deadline_validation_and_disarm():
    from repro.experiments.runner import set_point_deadline

    with pytest.raises(ValueError):
        set_point_deadline(0.0)
    set_point_deadline(None)  # disarm is always legal


def _deadlined_endless_point(seconds: float):
    from repro.experiments.runner import set_point_deadline

    endless = replace(
        QUICK, warmup_packets=10**9, measure_packets=10**9,
        max_cycles=10**9,
    )
    set_point_deadline(seconds)
    try:
        return run_point(
            NetworkConfig("dmin", k=2, n=3),
            WorkloadSpec(k=2, n=3).builder(endless),
            0.5,
            endless,
        )
    finally:
        set_point_deadline(None)


def test_cutoff_works_in_a_worker_thread():
    """SIGALRM cannot be armed outside the main thread; the cooperative
    deadline can: a point run in a thread pool is still cut off."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.runner import PointTimeout

    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(_deadlined_endless_point, 0.3)
        with pytest.raises(PointTimeout):
            fut.result(timeout=60)


def test_per_point_timeout_converts_hang_to_error():
    """``timeout=`` arms the deadline in the worker; a point that never
    finishes is retried, then settles as a failed LoadPoint."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    endless = replace(
        QUICK, warmup_packets=10**9, measure_packets=10**9,
        max_cycles=10**9,
    )
    result = parallel_sweep(
        net, spec, endless, loads=(0.2,), max_workers=1, timeout=0.3,
    )
    assert not result.complete
    (load, error) = result.errors()[0]
    assert load == 0.2
    assert error.startswith("PointTimeout")
    assert result.dispatch.counts["failed"] == 1


# ------------------------------------------------------------ cache / resume


def test_checkpoint_resume_skips_finished_points(tmp_path):
    """A second run on the same cache computes nothing: the manifest
    reports every point cached, and the answers are the first run's."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert first.complete
    assert first.dispatch.counts["computed"] == 2

    resumed = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert resumed.dispatch.counts["computed"] == 0
    assert resumed.dispatch.counts["cached"] == 2
    assert resumed == first


def test_checkpoint_completes_partial_run(tmp_path):
    """A run that finished only part of the grid leaves those points in
    the cache; the resume computes only the missing one."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    partial = parallel_sweep(net, spec, QUICK, loads=(0.2,), cache=tmp_path)
    assert partial.complete

    resumed = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert resumed.complete
    assert resumed.dispatch.counts["cached"] == 1
    assert resumed.dispatch.counts["computed"] == 1
    # And it matches a from-scratch sequential sweep.
    seq = sweep(net, spec.builder(QUICK), QUICK)
    assert resumed.points == seq.points


def test_duplicate_points_simulate_once(tmp_path, monkeypatch):
    """Identical (network, spec, load) entries fold onto one dispatch;
    the duplicates share the representative's result."""
    counts = tmp_path / "counts"
    counts.mkdir()
    monkeypatch.setenv("REPRO_COUNT_DIR", str(counts))
    monkeypatch.setattr(compute, "run_point", counting_run_point)
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(
        net, spec, QUICK, loads=(0.2, 0.5, 0.5, 0.2), max_workers=2,
    )
    assert result.complete and len(result.points) == 4
    assert result.points[1] == result.points[2]
    assert result.points[0] == result.points[3]
    assert result.dispatch.counts["requested"] == 4
    assert result.dispatch.counts["unique"] == 2
    assert result.dispatch.counts["deduplicated"] == 2
    # proof of a single simulation per unique point
    tallies = {p.name: len(p.read_text().splitlines())
               for p in counts.iterdir()}
    assert tallies == {"0.2": 1, "0.5": 1}
    # dedupe never changes the answers
    seq = sweep(net, spec.builder(QUICK), QUICK, loads=(0.2, 0.5, 0.5, 0.2))
    assert result.points == seq.points


def test_dispatch_stats_report_checkpoint_hits(tmp_path):
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert first.dispatch.counts["cached"] == 0

    resumed = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert resumed.dispatch.counts["cached"] == 2
    assert resumed.dispatch.counts["unique"] == 2   # distinct keys, all from disk
    assert resumed.dispatch.counts["deduplicated"] == 0
    assert resumed.dispatch.cache["hits"] == 2


def _cache_entries(root):
    return sorted(p for p in root.glob("??/*.json"))


@pytest.mark.parametrize(
    "content",
    [
        '{"version": 1, "points": {"k"',            # truncated mid-write
        "not json at all",
        '{"version": 1, "points": {"k": {"nope": true}}}',  # alien schema
        '["a", "list"]',
    ],
    ids=["truncated", "garbage", "bad_schema", "not_object"],
)
def test_corrupt_checkpoint_quarantined_and_restarted(tmp_path, content):
    """A corrupt cache entry never raises: it is moved to quarantine
    and its point recomputed (and re-persisted) cleanly."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    victim = _cache_entries(tmp_path)[0]
    victim.write_text(content)

    result = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    assert result.complete and result == first
    assert result.dispatch.counts["computed"] == 1
    assert result.dispatch.cache["corrupt"] == 1
    quarantined = tmp_path / "quarantine" / f"{victim.name}.corrupt"
    assert quarantined.read_text() == content
    # the healed entry is verifiable again
    assert len(_cache_entries(tmp_path)) == 2
    again = parallel_sweep(net, spec, QUICK, cache=tmp_path)
    assert again.dispatch.counts["cached"] == 2


def test_repeated_corruption_keeps_all_evidence(tmp_path):
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    parallel_sweep(net, spec, QUICK, loads=(0.2,), cache=tmp_path)
    (victim,) = _cache_entries(tmp_path)
    for round_no in range(2):
        victim.write_text(f"garbage round {round_no}")
        parallel_sweep(net, spec, QUICK, loads=(0.2,), cache=tmp_path)
    qdir = tmp_path / "quarantine"
    assert (qdir / f"{victim.name}.corrupt").read_text() == "garbage round 0"
    assert (qdir / f"{victim.name}.corrupt.1").read_text() == "garbage round 1"


def test_checkpoint_file_is_valid_json_and_atomic(tmp_path):
    """The cache entries and the job manifest are complete JSON files,
    and no torn temp file is left behind."""
    import json

    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(net, spec, QUICK, max_workers=2, cache=tmp_path)
    entries = _cache_entries(tmp_path)
    assert len(entries) == 2
    for entry in entries:
        assert json.loads(entry.read_text())["version"] == 1
    manifest = tmp_path / "jobs" / f"{result.dispatch.job_id}.manifest.json"
    payload = json.loads(manifest.read_text())
    assert payload["version"] == 1
    assert len(payload["points"]) == 2
    assert not list(tmp_path.rglob("*.tmp"))     # no torn temp files left
