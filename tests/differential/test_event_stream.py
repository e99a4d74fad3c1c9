"""Event-for-event certification of the optimized engines' publish sites.

Attaching a hot bus sink (the :class:`EventRecorder`) makes the fast
engine take its exact-event-order channel sweep, and
every inject / acquire / block / release / transmit / deliver publish
must then match the reference engine's stream element-for-element --
ordering included.  This is strictly stronger than end-state equality:
it pins the *within-cycle* schedule of every path.
"""

from __future__ import annotations

import pytest

from tests.differential.harness import (
    NETWORK_KINDS,
    EventRecorder,
    assert_snapshots_match,
    run_case,
)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("load", (0.2, 0.8))
def test_event_stream_identity(kind: str, load: float) -> None:
    """4 networks x 2 loads with a hot recording sink (8 cases)."""
    rec_fast = EventRecorder()
    rec_ref = EventRecorder()
    snap_fast = run_case(kind, "uniform", load, "fast", sink=rec_fast)
    snap_ref = run_case(kind, "uniform", load, "reference", sink=rec_ref)
    assert_snapshots_match(snap_fast, snap_ref, f"{kind}/load={load}")
    assert len(rec_fast.events) == len(rec_ref.events)
    # Compare element-wise for a readable first-divergence message.
    for i, (a, b) in enumerate(zip(rec_fast.events, rec_ref.events)):
        assert a == b, (
            f"{kind}/load={load}: event stream diverges at index {i}: "
            f"fast={a} reference={b}"
        )


@pytest.mark.parametrize("kind", ("dmin", "bmin"))
def test_event_stream_identity_with_faults(kind: str) -> None:
    """Hot sink + fault injection: aborts and repairs in the stream."""
    rec_fast = EventRecorder()
    rec_ref = EventRecorder()
    snap_fast = run_case(
        kind, "uniform", 0.7, "fast", sink=rec_fast, faults=True
    )
    snap_ref = run_case(
        kind, "uniform", 0.7, "reference", sink=rec_ref, faults=True
    )
    assert_snapshots_match(snap_fast, snap_ref, f"{kind}/faults")
    assert rec_fast.events == rec_ref.events
