"""Benchmark entry point: run one workload (or all) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_scaled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run; the names and units are
the ones ``BENCHMARK.json`` declares.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics a run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, outcome, units: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    for note in outcome.notes:
        print(f"[{name}] {note}")
    for problem in outcome.problems:
        print(f"[{name}] CHECK FAILED: {problem}")
    for metric, unit in units.items():
        print(f"[{name}] {metric:32s} {outcome.metrics[metric]:>16.6g} {unit}")
    print(f"[{name}] {'failed_ratio':32s} {outcome.failed / outcome.attempted:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": outcome.metrics[m], "unit": u} for m, u in units.items()},
    }


def run_one(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import COUNT_ONLY

    units = declared_metrics(args.trace)
    print(f"[{args.workload}] config "
          + json.dumps(workloads.describe(args.workload, args.size, args.seed)))
    if args.trace:
        print(f"[{args.workload}] counted, not timed: {', '.join(COUNT_ONLY)}")
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    # Temporary files (multiprocessing's among them) stay in the checkout.
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, args.size, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            "metrics disagree with BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(units))}"
        )
    return report(args.workload, outcome, units)


def run_all(args) -> dict:
    """Each workload in a fresh process; results namespaced by workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_scaled", "paper_full", "serve_mixed", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; every timed run makes at least two passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few short points per workload (harness self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program's own defaults: engine tier, sanitizer and every
    # other REPRO_* switch stay unset.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
