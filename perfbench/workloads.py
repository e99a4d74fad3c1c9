"""The benchmark's workloads: inputs, closed-loop clients and metrics.

Every workload is a closed loop: one client runs a point (or submits a
job), waits for it, checks it, and only then sends the next.  Inputs
come from the benchmark's ``--seed`` alone and every run configuration
is built here, explicitly, from the ``repro.experiments.config``
presets (see ``README.md`` for the recorded values).

``timed_*`` functions give the end-to-end metrics (no tracing; host
times normalized to the reference speed, see ``speed.py``);
``traced_*`` functions give the per-layer metrics from one untraced and
one traced pass over the same inputs.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from checks import check_measurement, results_digest
from speed import Stopwatch
from tracer import PointProbe, Tracer, clock

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper_scaled", "paper_full", "serve_mixed")

#: Wall-clock limit of one simulation point; a point past it has hung.
POINT_TIMEOUT_S = 60.0
#: Worker processes of the serve workload's supervisor (a 2-core box).
SERVE_WORKERS = 2
#: Warm re-submissions of every serve job after each cold pass.
WARM_ROUNDS = {"full": 25, "tiny": 4}
#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 7
#: Full passes (or serve cold cycles) every timed run makes at least:
#: the second supplies the repeat-request samples and the
#: determinism check.
MIN_PASSES = 2


# ---------------------------------------------------------------- inputs


def networks():
    """The four MINs of the paper's Section 5.3, in figure order."""
    from repro.experiments.figures import FOUR_NETWORKS

    return FOUR_NETWORKS


def paper_config(name: str, size: str, seed: int):
    """The RunConfig of a paper workload, built from a preset."""
    from repro.experiments.config import FULL_FIDELITY, SCALED, SMOKE
    from repro.traffic.workload import MessageSizeModel

    if size == "tiny":
        cfg = replace(SMOKE, loads=(0.3,))
        if name == "paper_full":
            cfg = replace(cfg, sizes=MessageSizeModel("uniform", 8, 256))
    elif name == "paper_scaled":
        # The scaled preset exactly as `--all --mode scaled` runs it.
        cfg = SCALED
    else:
        # Paper message sizes (8-1024 flits) with shortened windows.
        cfg = replace(
            FULL_FIDELITY,
            warmup_packets=60,
            measure_packets=300,
            max_cycles=600_000,
            loads=(0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
        )
    return cfg.with_seed(seed)


def serve_jobs(size: str, seed: int):
    """The serve workload's three jobs: plain, MTBF-faulted, transport."""
    from repro.experiments.config import SMOKE
    from repro.serve.job import FaultSpec, JobSpec

    ladder = (0.2, 0.4, 0.6) if size == "full" else (0.3,)
    faults = FaultSpec(rate=0.02)
    return [
        # The client merged two ladders overlapping at their top load
        # without deduplicating them; the service folds the repeat.
        JobSpec(networks(), SMOKE, loads=ladder + ladder[-1:], seeds=(seed, seed + 1)),
        JobSpec(networks(), SMOKE, loads=ladder, seeds=(seed,), faults=faults),
        JobSpec(networks(), SMOKE, loads=ladder, seeds=(seed,), faults=faults, transport={}),
    ]


def describe(name: str, size: str, seed: int) -> dict:
    """The full run configuration of a workload, as printed and recorded."""
    out = {
        "networks": [net.label for net in networks()],
        "traffic": "uniform, global cluster (Fig. 18a)",
    }
    if name == "serve_mixed":
        jobs = [job.to_dict() for job in serve_jobs(size, seed)]
        keep = ("loads", "seeds", "faults", "transport")
        return {
            **out,
            "run": jobs[0]["run"],
            "workers": SERVE_WORKERS,
            "warm_rounds": WARM_ROUNDS[size],
            "jobs": [{k: job.get(k) for k in keep} for job in jobs],
        }
    cfg = paper_config(name, size, seed)
    return {
        **out,
        "run": {
            "mode": cfg.name,
            "warmup_packets": cfg.warmup_packets,
            "measure_packets": cfg.measure_packets,
            "max_cycles": cfg.max_cycles,
            "sizes": [cfg.sizes.kind, cfg.sizes.low, cfg.sizes.high],
            "loads": list(cfg.loads),
            "seed": cfg.seed,
        },
    }


def setup(name: str, workdir: Path) -> None:
    """Everything a workload sets up before its first point.

    Imports, one build of every distinct network, and for the serve
    workload the service with its (empty) cache.
    """
    import repro.experiments.runner  # noqa: F401
    import repro.metrics.collector  # noqa: F401

    for net in networks():
        net.build()
    if name == "serve_mixed":
        from repro.serve.service import SweepService
        from repro.serve.supervisor import SupervisePolicy

        SweepService(workdir / "cache", policy=SupervisePolicy(workers=SERVE_WORKERS))


# --------------------------------------------------------------- outcome


@dataclass
class Outcome:
    """What a run measured, and every check it failed."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process (or of any reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_seconds(name: str, workdir: Path) -> float:
    """Median of :data:`SETUP_PROBES` set-ups, each in a fresh process."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"setup{i}"
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(probe_dir)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


# ------------------------------------------------------- paper workloads


@dataclass
class Point:
    kind: str
    seconds: float     # host wall seconds
    norm: float        # the same, normalized to the reference speed
    m: object          # the Measurement
    probe: dict        # PointProbe record


@dataclass
class Pass:
    points: list

    @property
    def wall(self) -> float:
        return sum(p.seconds for p in self.points)

    @property
    def norm_wall(self) -> float:
        return sum(p.norm for p in self.points)

    @property
    def digest(self) -> str:
        return results_digest(p.m for p in self.points)

    def series(self, normalized: bool) -> dict:
        out: dict = {}
        for p in self.points:
            out[p.kind] = out.get(p.kind, 0.0) + (p.norm if normalized else p.seconds)
        return out


def paper_pass(cfg, probe: PointProbe, out: Outcome, tracer=None) -> Pass:
    """Run every (network, load) point once, back to back, and check it."""
    from repro.experiments import runner
    from repro.experiments.figures import uniform_workload
    from repro.traffic.clusters import global_cluster

    builder = uniform_workload(global_cluster(), cfg)
    points = []
    watch = Stopwatch()
    for net in networks():
        for load in cfg.loads:
            out.attempted += 1
            if tracer is not None:
                tracer.point = f"{net.kind}@{load:g}"
            runner.set_point_deadline(POINT_TIMEOUT_S)
            try:
                m, seconds, norm = watch.lap(runner.run_point, net, builder, load, cfg)
            except Exception as exc:  # a crashed or timed-out point fails
                out.fail(f"{net.label}@{load:g}: {type(exc).__name__}: {exc}")
                continue
            finally:
                runner.set_point_deadline(None)
            problems = check_measurement(m, net, cfg, cfg.sizes.low)
            if problems:
                out.fail(f"{net.label}@{load:g}: " + "; ".join(problems))
            points.append(Point(net.kind, seconds, norm, m, probe.points[-1]))
    return Pass(points)


def _flits(points) -> int:
    return sum(p.probe["warmup_flits"] + p.m.delivered_flits for p in points)


def timed_paper(name: str, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
    out = Outcome()
    cfg = paper_config(name, size, seed)
    probe = PointProbe().install()
    passes: list[Pass] = []
    start = clock()
    try:
        while len(passes) < MIN_PASSES or clock() - start + passes[-1].wall <= seconds:
            passes.append(paper_pass(cfg, probe, out))
    finally:
        probe.uninstall()
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        out.fail(f"passes over identical inputs disagree: {sorted(digests)}")
    all_points = [p.norm for ps in passes for p in ps.points]
    warm = [p.norm * 1e3 for ps in passes[1:] for p in ps.points]
    rss = peak_rss_mb(children=False)
    out.metrics = {
        "wall_s": statistics.median(p.norm_wall for p in passes),
        "flits_per_s": statistics.median(_flits(p.points) / p.norm_wall for p in passes),
        "point_p50_s": statistics.median(all_points),
        "slowest_network_s": statistics.median(
            max(p.series(normalized=True).values()) for p in passes
        ),
        "warm_p50_ms": statistics.median(warm),
        "warm_p90_ms": p90(warm),
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(name, workdir),
    }
    out.notes += [
        f"passes={len(passes)} points/pass={len(passes[0].points)} "
        f"warm samples={len(warm)} "
        f"host wall per pass={statistics.median(p.wall for p in passes):.3f} s",
        f"results_digest={passes[0].digest}",
    ]
    return out


def traced_paper(name: str, seed: int, size: str, trace_path: Path) -> Outcome:
    out = Outcome()
    cfg = paper_config(name, size, seed)
    probe = PointProbe().install()
    try:
        plain = paper_pass(cfg, probe, out)
        tracer = Tracer().install()
        try:
            traced = paper_pass(cfg, probe, out, tracer)
        finally:
            tracer.uninstall()
    finally:
        probe.uninstall()
    if traced.digest != plain.digest:
        out.fail("tracing changed the simulated results")
    roots = sum(s[3] - s[2] for s in tracer.spans if s[5] is None)
    out.metrics = layer_metrics(
        tracer.totals(),
        [p.probe for p in traced.points],
        [p.m for p in traced.points],
        traced.series(normalized=False),
    )
    out.metrics.update({
        "trace.overhead_ratio": traced.norm_wall / plain.norm_wall,
        "trace.span_coverage_ratio": roots / traced.wall,
    })
    out.notes.append(f"results_digest={traced.digest}")
    tracer.write(trace_path, {"workload": name, "seed": seed, "wall_s": traced.wall})
    return out


# --------------------------------------------------------- serve workload


@dataclass
class Cycle:
    """One cold pass into a fresh cache, then the warm re-submissions."""

    cold: list             # (host s, normalized s, manifest) per job
    warm: list             # normalized warm submission latencies, s
    loop_wall: float       # host s of the cold pass and every warm submission
    lap_wall: float        # the same, less the speed probes between calls
    cache_stats: dict
    payloads: dict         # key -> canonical payload JSON as computed
    specs: dict            # key -> PointSpec

    @property
    def cold_wall(self) -> float:
        return sum(wall for wall, _norm, _m in self.cold)

    @property
    def cold_norm(self) -> float:
        return sum(norm for _wall, norm, _m in self.cold)

    def measurements(self) -> list:
        from repro.metrics.collector import measurement_from_dict

        return [
            measurement_from_dict(json.loads(self.payloads[k])["measurement"])
            for k in sorted(self.payloads)
        ]


class TimedRunner:
    """The traced serve pass's point runner: ``run_point_spec``, timed.

    It runs in the forked worker, where the parent's tracer patches are
    inherited; it resets them, times the point, writes the worker's
    spans to ``out_dir`` and returns the payload object unchanged.
    """

    def __init__(self, tracer: Tracer, probe: PointProbe, out_dir: Path) -> None:
        self.tracer = tracer
        self.probe = probe
        self.out_dir = out_dir

    def __call__(self, point):
        from repro.serve.compute import run_point_spec

        self.tracer.reset()
        self.probe.points.clear()
        key = point.key()
        self.tracer.point = key[:12]
        payload = self.tracer.timed("serve.point", run_point_spec)(point)
        record = {"network": point.network.kind, "probe": self.probe.points, **self.tracer.dump()}
        (self.out_dir / f"{key}-{os.getpid()}.json").write_text(json.dumps(record))
        return payload


def serve_cycle(jobs, root: Path, out: Outcome, rounds: int, runner=None) -> tuple:
    """Serve every job cold into a fresh cache, then warm ``rounds`` times."""
    from repro.serve.cache import ResultCache
    from repro.serve.canonical import payload_json
    from repro.serve.service import SweepService
    from repro.serve.supervisor import SupervisePolicy

    cache = ResultCache(root / "cache")
    extra = {"runner": runner} if runner is not None else {}
    service = SweepService(cache, policy=SupervisePolicy(workers=SERVE_WORKERS), **extra)
    payloads: dict = {}
    put = cache.put

    def recording_put(key, payload):
        payloads[key] = payload_json(payload)
        return put(key, payload)

    cache.put = recording_put
    start = clock()
    watch = Stopwatch()
    cold = []
    for job in jobs:
        manifest, wall, norm = watch.lap(service.run_job_sync, job)
        cold.append((wall, norm, manifest))
    warm = []
    lap_wall = sum(wall for wall, _norm, _m in cold)
    for _ in range(rounds):
        for job in jobs:
            manifest, wall, norm = watch.lap(service.run_job_sync, job)
            warm.append(norm)
            lap_wall += wall
            out.attempted += 1
            if not manifest.complete or manifest.counts["computed"]:
                out.fail(f"warm job {job.job_id}: {manifest.counts}")
    loop_wall = clock() - start
    del cache.put
    specs = {p.key(): p for job in jobs for p in job.points()}
    cycle = Cycle(cold, warm, loop_wall, lap_wall, cache.stats.to_dict(), payloads, specs)
    return cycle, service


def check_cycle(cycle: Cycle, service, out: Outcome) -> None:
    """Cold manifests complete, every point sound, warm bytes == cold."""
    from repro.metrics.collector import measurement_from_dict
    from repro.serve.canonical import payload_json

    for _wall, _norm, manifest in cycle.cold:
        out.attempted += 1
        if not manifest.complete:
            out.fail(f"cold job {manifest.job_id} incomplete: {manifest.incomplete}")
    for key, spec in cycle.specs.items():
        out.attempted += 1
        raw = cycle.payloads.get(key)
        if raw is None:
            out.fail(f"point {spec.label} was never computed")
            continue
        m = measurement_from_dict(json.loads(raw)["measurement"])
        smallest = spec.run.sizes.low
        if spec.transport is not None:
            smallest = min(smallest, spec.transport["ack_length"])
        problems = check_measurement(m, spec.network, spec.run, smallest)
        served = service.cache.get(key)
        if served is None or payload_json(served) != raw:
            problems.append("warm payload differs from the cold one")
        if problems:
            out.fail(f"{spec.label}: " + "; ".join(problems))


def timed_serve(seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
    out = Outcome()
    jobs = serve_jobs(size, seed)
    cycles: list[Cycle] = []
    start = clock()
    while len(cycles) < MIN_PASSES or clock() - start + cycles[-1].loop_wall <= seconds:
        root = workdir / f"cycle{len(cycles)}"
        cycle, service = serve_cycle(jobs, root, out, WARM_ROUNDS[size])
        check_cycle(cycle, service, out)
        shutil.rmtree(root)
        cycles.append(cycle)
    digests = {results_digest(c.measurements()) for c in cycles}
    if len(digests) > 1:
        out.fail(f"cold passes into fresh caches disagree: {sorted(digests)}")
    warm = [w * 1e3 for c in cycles for w in c.warm]
    per_point = [
        c.cold_norm / sum(m.counts["computed"] for _wall, _norm, m in c.cold)
        for c in cycles
    ]
    # Read before the set-up probes, which are children too.
    rss = peak_rss_mb(children=True)
    out.metrics = {
        "wall_s": statistics.median(c.cold_norm for c in cycles),
        "flits_per_s": statistics.median(
            sum(m.delivered_flits for m in c.measurements()) / c.cold_norm for c in cycles
        ),
        "point_p50_s": statistics.median(per_point),
        "slowest_network_s": statistics.median(
            max(norm for _wall, norm, _m in c.cold) for c in cycles
        ),
        "warm_p50_ms": statistics.median(warm),
        "warm_p90_ms": p90(warm),
        "peak_rss_mb": rss,
        "setup_s": setup_seconds("serve_mixed", workdir),
    }
    out.notes += [
        f"cold passes={len(cycles)} warm samples={len(warm)} "
        f"(beyond p90: {sum(w > out.metrics['warm_p90_ms'] for w in warm)}) "
        f"host cold wall={statistics.median(c.cold_wall for c in cycles):.3f} s",
        f"results_digest={digests.pop()}",
    ]
    return out


def traced_serve(seed: int, size: str, workdir: Path, trace_path: Path) -> Outcome:
    out = Outcome()
    jobs = serve_jobs(size, seed)
    rounds = WARM_ROUNDS[size]
    plain, service = serve_cycle(jobs, workdir / "plain", out, rounds)
    check_cycle(plain, service, out)
    spans_dir = workdir / "spans"
    spans_dir.mkdir(parents=True)
    probe = PointProbe().install()
    tracer = Tracer().install()
    try:
        runner = TimedRunner(tracer, probe, spans_dir)
        traced, service = serve_cycle(jobs, workdir / "traced", out, rounds, runner)
    finally:
        tracer.uninstall()
        probe.uninstall()
    check_cycle(traced, service, out)
    digest = results_digest(traced.measurements())
    if digest != results_digest(plain.measurements()):
        out.fail("tracing changed the served results")
    roots = sum(s[3] - s[2] for s in tracer.spans if s[5] is None)
    series: dict = {}
    points = []
    for path in sorted(spans_dir.iterdir()):
        record = json.loads(path.read_text())
        tracer.merge(record)
        points += record["probe"]
        kind = record["network"]
        series[kind] = series.get(kind, 0.0) + sum(
            s[3] - s[2] for s in record["spans"] if s[1] == "serve.point"
        )
    totals = tracer.totals()
    ms = traced.measurements()
    compute_s = totals["serve.point"]["total_s"]
    out.metrics = layer_metrics(totals, points, ms, series)
    out.metrics.update({
        "cache.hits": traced.cache_stats["hits"],
        "cache.misses": traced.cache_stats["misses"],
        "serve.compute_s": compute_s,
        "serve.worker_busy_ratio": compute_s / (SERVE_WORKERS * traced.cold_wall),
        "serve.dispatch_overhead_s": traced.cold_wall - compute_s / SERVE_WORKERS,
        "serve.dedup_points": sum(m.counts["deduplicated"] for _w, _n, m in traced.cold),
        "trace.overhead_ratio": traced.cold_norm / plain.cold_norm,
        "trace.span_coverage_ratio": roots / traced.lap_wall,
    })
    out.notes.append(f"results_digest={digest}")
    tracer.write(trace_path, {"workload": "serve_mixed", "seed": seed, "wall_s": traced.lap_wall})
    return out


# ------------------------------------------------------ per-layer metrics


def layer_metrics(totals: dict, points: list, measurements: list, series: dict) -> dict:
    """Per-layer metrics from span totals and per-point counters.

    Layers a workload does not exercise read zero (the serve-only
    metrics are filled in by :func:`traced_serve`).
    """

    def count(name):
        return totals.get(name, {}).get("count", 0)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    cycles = sum(p["cycles"] for p in points)
    packets = sum(p["warmup_packets"] for p in points) + sum(m.delivered_packets for m in measurements)
    transported = [m for m in measurements if m.transport_active]
    events = sum(p["events_fired"] for p in points)
    return {
        **{f"series.{net.kind}_s": series.get(net.kind, 0.0) for net in networks()},
        "network.build_s": total("network.build"),
        "network.channels": sum(net.build().channel_count for net in networks()),
        "traffic.install_s": total("traffic.install"),
        "traffic.offer_calls": count("traffic.offer"),
        "traffic.offer_s": total("traffic.offer"),
        "routing.candidates_calls": count("routing.candidates"),
        "routing.self_s": self_s("routing.candidates") + self_s("routing.preferred_lane"),
        "routing.candidates_per_packet": ratio(count("routing.candidates"), packets),
        "alloc.grants": count("alloc.grants"),
        "alloc.grant_ratio": ratio(count("alloc.grants"), count("routing.candidates")),
        "channel.transmit_calls": count("channel.transmit"),
        "channel.transmit_s": total("channel.transmit"),
        "engine.step_calls": count("engine.step"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.cycles": cycles,
        "engine.executed_cycle_ratio": ratio(count("engine.step"), cycles),
        "engine.host_us_per_cycle": ratio(sum(series.values()), cycles) * 1e6,
        "sim.run_self_s": self_s("sim.run"),
        "sim.events_fired": events,
        "sim.events_per_cycle": ratio(events, cycles),
        "sim.max_heap_depth": max((p["max_heap_depth"] for p in points), default=0),
        "metrics.finish_s": total("metrics.finish"),
        "metrics.records": sum(p["records"] for p in points),
        "cache.get_calls": count("cache.get"),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "cache.hits": 0,
        "cache.misses": 0,
        "serve.compute_s": 0.0,
        "serve.worker_busy_ratio": 0.0,
        "serve.dispatch_overhead_s": 0.0,
        "serve.dedup_points": 0,
        "transport.goodput_ratio": ratio(
            sum(m.goodput_flits for m in transported), sum(m.delivered_flits for m in transported)
        ),
        "transport.retx_ratio": ratio(
            sum(m.retransmitted_packets for m in transported),
            sum(m.offered_packets for m in transported),
        ),
        "transport.ack_share": ratio(
            sum(m.ack_packets for m in transported), sum(m.delivered_packets for m in transported)
        ),
        "faults.failed_packets": sum(m.failed_packets for m in measurements),
        "faults.retried_packets": sum(m.retried_packets for m in measurements),
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path) -> Outcome:
    """One run of workload ``name``; ``trace`` selects per-layer metrics."""
    trace_path = workdir.parent / f"trace-{name}-{seed}.json"
    if name == "serve_mixed":
        if trace:
            return traced_serve(seed, size, workdir, trace_path)
        return timed_serve(seed, seconds, size, workdir)
    if trace:
        return traced_paper(name, seed, size, trace_path)
    return timed_paper(name, seed, seconds, size, workdir)
