"""Stability-config points through the serving layer (PR 7 wiring).

`PointSpec.stability` selects the overload-toolkit execution path
(:func:`repro.experiments.stability.stability_point`).  These tests pin
the three contracts that keep the cache sound around it: canonical
normalization (two spellings of one config cannot split keys), job_id
stability for pre-existing plain jobs, and deterministic payloads.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.serve.canonical import payload_json
from repro.serve.compute import run_point_spec
from repro.serve.job import (
    STABILITY_DEFAULTS,
    FaultSpec,
    JobSpec,
    PointSpec,
    validate_stability,
)

NET = NetworkConfig(kind="dmin", k=2, n=3)
WL = WorkloadSpec(k=2, n=3)


def spec_with(stability):
    return JobSpec(
        networks=(NET,),
        run=SMOKE,
        workload=WL,
        loads=(0.4,),
        seeds=(7,),
        stability=stability,
    )


# -------------------------------------------------------- normalization


def test_defaults_are_materialized():
    assert validate_stability({}) == dict(sorted(STABILITY_DEFAULTS.items()))
    assert validate_stability(None) is None


def test_two_spellings_one_key():
    """Omitted-vs-explicit defaults must hash identically."""
    implicit = PointSpec(NET, WL, 0.4, 7, SMOKE, stability={"capacity": 64})
    explicit = PointSpec(
        NET, WL, 0.4, 7, SMOKE,
        stability={**STABILITY_DEFAULTS, "capacity": 64},
    )
    assert implicit.stability == explicit.stability
    assert implicit.key() == explicit.key()


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown stability key"):
        validate_stability({"admission": "aimd"})


def test_bad_values_rejected():
    with pytest.raises(ValueError, match="batches"):
        validate_stability({"batches": 4})
    with pytest.raises(ValueError, match="capacity"):
        validate_stability({"capacity": 0})
    with pytest.raises(ValueError, match="mode"):
        validate_stability({"mode": "yolo"})


def test_stability_and_faults_exclusive():
    with pytest.raises(ValueError, match="combine stability and faults"):
        PointSpec(
            NET, WL, 0.4, 7, SMOKE,
            faults=FaultSpec(rate=0.01),
            stability={},
        )


# ------------------------------------------------------------ round-trip


def test_jobspec_round_trips_with_stability():
    spec = spec_with({"capacity": 64, "governed": False})
    again = JobSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.job_id == spec.job_id
    assert again.points()[0].stability == spec.points()[0].stability


def test_plain_jobs_keep_their_job_id():
    """`to_dict` omits a None stability block, so every job_id minted
    before the field existed still addresses the same manifest."""
    spec = spec_with(None)
    assert "stability" not in spec.to_dict()
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_points_inherit_job_stability():
    (point,) = spec_with({"capacity": 64}).points()
    assert point.stability is not None
    assert point.stability["capacity"] == 64
    assert point.stability["batches"] == STABILITY_DEFAULTS["batches"]


# --------------------------------------------------------------- payload


@pytest.fixture(scope="module")
def payload():
    (point,) = spec_with({"capacity": 64}).points()
    return run_point_spec(point)


def test_payload_carries_classification(payload):
    block = payload["stability"]
    assert block["classification"] in ("stable", "metastable", "collapsed")
    assert block["config"]["capacity"] == 64
    assert set(block["steady"]) == {
        "samples", "truncation", "mean", "cv", "drift",
    }
    assert payload["measurement"]["delivered_packets"] > 0


def test_payload_is_deterministic(payload):
    (point,) = spec_with({"capacity": 64}).points()
    again = run_point_spec(point)
    assert payload_json(again) == payload_json(payload)


def test_payload_is_json_serializable(payload):
    json.loads(payload_json(payload))


def test_stability_point_runs_its_own_workload(payload):
    """The point simulates the workload it is keyed by: a hotspot point
    differs from its uniform twin in key *and* in measurement."""
    (uniform,) = spec_with({"capacity": 64}).points()
    hot = dataclasses.replace(
        uniform,
        workload=WorkloadSpec(pattern="hotspot", hot_fraction=0.25, k=2, n=3),
    )
    assert hot.key() != uniform.key()
    assert run_point_spec(hot)["measurement"] != payload["measurement"]
