"""Golden-scenario fixtures: exact numeric pins of seeded runs.

Each fixture under ``tests/golden/fixtures/`` holds the full outcome of
one seeded simulation point (see ``tools/regen_golden.py``).  The test
re-runs the scenario and diffs the freshly computed fixture against the
committed one *field by field*, reporting every drifted leaf with its
old and new value -- a behavioural change anywhere in the simulator
(routing order, RNG draws, latency bookkeeping, scheduler dispatch)
shows up as a named field, not a mystery failure.

If a change is intentional, regenerate with::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated fixtures alongside the change.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent.parent / "tools"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "regen_golden", TOOLS / "regen_golden.py"
)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)


def _leaf_diff(expected, actual, path=""):
    """Recursively diff two JSON-ish trees; yield (path, old, new)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            yield from _leaf_diff(
                expected.get(key, "<missing>"),
                actual.get(key, "<missing>"),
                f"{path}.{key}" if path else key,
            )
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield (f"{path}.<len>", len(expected), len(actual))
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _leaf_diff(e, a, f"{path}[{i}]")
        return
    same = expected == actual or (
        isinstance(expected, float)
        and isinstance(actual, float)
        and math.isnan(expected)
        and math.isnan(actual)
    )
    if not same:
        yield (path, expected, actual)


def test_fixture_set_matches_scenarios() -> None:
    """Every scenario has a fixture and vice versa (no strays)."""
    on_disk = {p.stem for p in FIXTURES.glob("*.json")}
    assert on_disk == set(regen_golden.NAMES), (
        "fixture files and tools/regen_golden.py SCENARIOS disagree; "
        "run tools/regen_golden.py"
    )


@pytest.mark.parametrize("name", sorted(regen_golden.NAMES))
def test_golden_scenario(name: str) -> None:
    """Re-run one golden scenario and diff it field by field."""
    path = FIXTURES / f"{name}.json"
    expected = json.loads(path.read_text())
    actual = json.loads(regen_golden.dumps(regen_golden.compute_fixture(name)))
    drift = list(_leaf_diff(expected, actual))
    assert not drift, (
        f"golden scenario {name!r} drifted in {len(drift)} field(s):\n"
        + "\n".join(f"  {p}: {old!r} -> {new!r}" for p, old, new in drift[:20])
        + "\n(regenerate with tools/regen_golden.py if intentional)"
    )
