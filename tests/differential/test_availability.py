"""Engine-tier bit-identity of the availability (fault-rate) sweep point.

:func:`repro.experiments.availability.availability_point` stacks MTBF
channel churn and exponential-backoff source retry on the fabric and
labels every stream by the fault rate rather than the load.  It picks
its engine tier from ``REPRO_ENGINE`` like every other point, and it
must pair each tier with that tier's scheduler -- the reference phases
on the plain binary heap, fast on the calendar queue -- so a
``--engine=reference`` availability run really is the reference
implementation end to end.

The test runs one churned, retried point per network under every tier
and asserts the scheduler pairing plus equal results: the measurement
window (failed / retried / dropped counts included), the eventual
delivery ratio and the churn tallies.
"""

import pytest

import repro.experiments.availability as availability
from repro.experiments.config import NetworkConfig
from tests.differential.harness import CFG, NETWORK_KINDS

#: Enough unavailability and load that churn kills worms and the retry
#: layer recovers some of them inside the short differential horizon.
FAULT_RATE = 0.05
LOAD = 0.5
MTTR = 300.0

#: tier -> (scheduler, fast phases) it must run on.
TIERS = {
    "reference": ("heap", False),
    "fast": ("calendar", True),
}


def _run(kind: str, tier: str, monkeypatch) -> tuple:
    seen = []
    build_point = availability.build_point

    def spy(*args, **kwargs):
        sim = build_point(*args, **kwargs)
        seen.append((sim.env.scheduler, sim.engine.fast))
        return sim

    monkeypatch.setattr(availability, "build_point", spy)
    monkeypatch.setenv("REPRO_ENGINE", tier)
    point = availability.availability_point(
        NetworkConfig(kind, k=2, n=3), CFG, FAULT_RATE, load=LOAD, mttr=MTTR
    )
    assert seen == [TIERS[tier]], (tier, seen)
    return point


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_availability_point_identical_across_tiers(kind, monkeypatch):
    reference = _run(kind, "reference", monkeypatch)
    assert reference.failures_injected > 0  # churn genuinely fired
    assert reference.measurement.delivered_packets > 0
    assert _run(kind, "fast", monkeypatch) == reference
