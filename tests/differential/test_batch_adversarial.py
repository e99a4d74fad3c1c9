"""Adversarial mode-switch cases aimed at the fast tier's seams.

The fast engine's speed comes from mode switches the reference tier
never makes: the all-blocked exit (skip Phase A's scan), the
span-skipping clock (skip whole cycles, deferring service-order
shuffle draws as ``_shuffle_debt``), and free-run fast-forward (worms
streaming into their destination leave the per-worm sweep and replay
scheduled ``_lazy`` actions instead).  Every switch has an entry
condition proven against engine state -- so the dangerous inputs are
the ones that *invalidate* that state mid-flight: faults landing
inside a burst, hard aborts while worms free-run, a governor rewriting
injection rates while worms free-run, and saturation workloads that
thrash between quiet spans and contended scans every few cycles.

Each case runs the fast-vs-reference comparison of
:func:`tests.differential.harness.assert_identical`.  The module keeps
its historical name (it first targeted the same seams on a separate
optimized tier) so its test ids stay stable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.traffic.workload import MessageSizeModel
from repro.wormhole.engine import WormholeEngine
from tests.differential.harness import CFG, NETWORK_KINDS, assert_identical

#: Long fixed messages: worms stream for 128 cycles per hop-free
#: stretch, so the fast clock builds real spans (and real shuffle
#: debt) for the mid-run fault events at t=250/600 to tear down.
CFG_LONG = replace(
    CFG,
    warmup_packets=20,
    measure_packets=80,
    max_cycles=30_000,
    sizes=MessageSizeModel("fixed", 128, 128),
)

#: Past-saturation load for the governor cases (mirrors test_overload).
OVERLOAD = 0.9


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_fault_mid_burst(kind):
    """Soft then hard faults land while long bursts are in flight:
    the fault epoch bump must invalidate blocked-decision caches (and
    the all-blocked exit's ``_blk_valid`` count) exactly where the
    reference rescans."""
    assert_identical(kind, "uniform", 0.9, faults=True, run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", ("dmin", "bmin"))
@pytest.mark.parametrize("load", (0.2, 0.4))
def test_abort_during_free_run(kind, load):
    """The t=600 hard fault cuts a wire under a quiet network: on the
    fast tier the victims are *free-running* (``_lazy`` actions pending
    mid-span), so the abort must materialize them, unwind lane
    ownership, and settle any deferred shuffle debt before the queue's
    membership changes."""
    assert_identical(kind, "uniform", load, faults=True, run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_governor_throttle_on_vectorized_path(kind):
    """AIMD rate rewrites past saturation while worms free-run and the
    clock alternates spans with scans: the governor's same-cycle
    updates must stay commutative under every mode switch."""
    assert_identical(
        kind, "uniform", OVERLOAD, overload="shed-newest", governed=True
    )


@pytest.mark.parametrize("kind", ("dmin", "tmin"))
@pytest.mark.parametrize("seed", (1, 4))
def test_forced_vector_with_faults(kind, seed):
    """Faults against free-running worms under two seeds: aborted
    worms' scheduled ``_lazy`` actions must die (token bump) on the
    exact cycle the reference drops the worm."""
    assert_identical(
        kind, "uniform", 0.7, faults=True, run_cfg=replace(CFG, seed=seed)
    )


@pytest.mark.parametrize("kind", ("dmin", "vmin"))
def test_saturation_thrash_sanitized(kind):
    """Hotspot saturation alternates all-blocked spans with contended
    scans every few cycles -- maximal mode-switch churn -- with the
    runtime sanitizer auditing channel state on every tier."""
    assert_identical(kind, "hotspot", 1.0, faults=True, sanitize=True)


@pytest.mark.parametrize("kind", ("dmin", "tmin"))
def test_watchdog_recovery_thrash(kind):
    """A recovering watchdog aborting stalled worms under the fast
    clock: recovery runs at cycle boundaries, so the span gate must
    refuse to sleep past an armed check."""
    assert_identical(kind, "uniform", 0.8, faults=True, watchdog=True,
                     run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", ("bmin", "vmin"))
def test_shuffle_pattern_faulted_sanitized(kind):
    """Permutation traffic (every source one fixed destination) keeps
    pending queues short and shuffle debt frequent; faults plus the
    sanitizer audit the deferred-draw replay."""
    assert_identical(kind, "shuffle", 0.6, faults=True, sanitize=True)


def test_forced_vector_sanitized():
    """Sanitizer + long hotspot worms: with the sanitizer armed, worms
    never free-run and the clock steps one cycle at a time, so long
    hot-spot worms stream through the per-worm sweep while blocked
    headers pile up behind them; the invariant walk reads
    ``_pending_route``, the blocked-header caches and lane state after
    every cycle."""
    assert_identical("dmin", "hotspot", 0.6, sanitize=True, run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", ("tmin", "dmin"))
def test_shuffle_debt_replay(kind, monkeypatch):
    """Long hotspot worms block two or more headers behind streaming
    worms for many cycles, so the clock accrues real shuffle debt over
    a multi-header queue and :meth:`WormholeEngine._flush_shuffles`
    replays several owed shuffles at once -- and the replayed draws
    must leave every observable equal to the reference, which draws
    each shuffle on its own cycle.  The runtime sanitizer keeps worms
    off free-run and the clock to single cycles, so no debt can build
    under it: this case runs unsanitized even under REPRO_SANITIZE=1
    (the sanitized seams are the other cases' job)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    replays = []
    flush = WormholeEngine._flush_shuffles

    def spy(engine):
        replays.append((engine._shuffle_debt, len(engine._pending_route)))
        flush(engine)

    monkeypatch.setattr(WormholeEngine, "_flush_shuffles", spy)
    assert_identical(kind, "hotspot", 0.6, run_cfg=CFG_LONG)
    assert any(debt >= 2 and queue >= 2 for debt, queue in replays), replays
