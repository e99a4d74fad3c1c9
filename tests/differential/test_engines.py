"""Differential certification: fast engine == reference engine, bitwise.

Each case seeds one simulation point and runs it under both execution
paths, asserting the full outcome snapshot -- measurement window,
engine counters, every delivery record -- is equal, and that the fast
path fires no more kernel events than the reference.  The grid spans all four networks, two traffic patterns, light
and near-saturation loads, fault injection (soft + hard transient
events, which exercise abort/materialization on the fast path), and
runs under the runtime sanitizer (which disables the fast path's
free-run shortcut, covering its fallback behaviour), plus multi-lane
wires beyond the paper's v = 2 VMIN.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.traffic.workload import MessageSizeModel
from tests.differential.harness import (
    CFG,
    NETWORK_KINDS,
    assert_identical,
)

#: Long worms in a short window: few packets, many flits each.
LONG_CFG = replace(
    CFG,
    warmup_packets=20,
    measure_packets=120,
    sizes=MessageSizeModel("uniform", 64, 256),
)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("pattern", ("uniform", "shuffle"))
@pytest.mark.parametrize("load", (0.2, 0.9))
def test_fault_free_identity(kind: str, pattern: str, load: float) -> None:
    """4 networks x 2 patterns x 2 loads, no faults (16 cases)."""
    assert_identical(kind, pattern, load)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("load", (0.3, 0.8))
def test_faulted_identity(kind: str, load: float) -> None:
    """Soft + hard transient faults mid-run (8 cases).

    The hard event aborts in-flight worms, which on the fast path must
    first materialize any free-running worm's lane state; the repair
    events bump the fault epoch and invalidate blocked-header caches.
    """
    assert_identical(kind, "uniform", load, faults=True)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("pattern", ("uniform", "shuffle"))
def test_sanitized_identity(kind: str, pattern: str) -> None:
    """Same grid under REPRO_SANITIZE=1 (8 cases).

    Both runs self-check the engine invariants every cycle, and the
    fast path runs with its free-run shortcut disabled -- so this also
    certifies the per-worm sweep without fast-forwarding.
    """
    assert_identical(kind, pattern, 0.6, sanitize=True)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_sanitized_faulted_identity(kind: str) -> None:
    """Sanitizer and fault injection together (4 cases)."""
    assert_identical(kind, "uniform", 0.7, faults=True, sanitize=True)


@pytest.mark.parametrize(
    "kind,load,options",
    [
        ("vmin", 0.7, {"net_kwargs": {"virtual_channels": 3}}),
        ("vmin", 0.7, {"net_kwargs": {"virtual_channels": 4}}),
        ("vmin", 0.2, {"run_cfg": LONG_CFG}),
        ("vmin", 1.0, {"run_cfg": LONG_CFG}),
        ("bmin", 0.7, {"net_kwargs": {"bmin_virtual_channels": 2}}),
    ],
    ids=["vmin-v3", "vmin-v4", "vmin-long-0.2", "vmin-long-1.0", "bmin-v2"],
)
def test_multi_lane_identity(kind: str, load: float, options: dict) -> None:
    """Shared wires the main grid does not reach (5 cases).

    The fast channel sweep inlines ``PhysChannel.transmit``'s round
    robin over precomputed scan orders; the reference calls it.  v = 3
    and 4 wrap the pointer across more than two lanes; 64-256-flit VMIN
    worms release tails onto wires other worms still share, leave their
    last flit in lanes a new owner re-acquires, and share delivery wires
    for hundreds of cycles; BMIN runs with two lanes per wire.
    """
    assert_identical(kind, "uniform", load, **options)
