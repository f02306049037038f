"""Scenario pack: seeded replay determinism, conformance, quota isolation.

The replay test is the serving analogue of the engine's bit-identity
contract: a scenario is a pure function of ``(name, seed, knobs)``, so two
runs must produce byte-identical serve manifests (compared via the
volatile-field-stripped fingerprint).  Everything here runs on the
virtual-time loop in profile mode, so wall time stays in seconds.
"""

import pytest

from repro.serve import SCENARIOS, run_scenario
from repro.serve.scenarios import Scenario, ScenarioReport, manifest_fingerprint


def test_pack_covers_required_scenarios():
    for name in ("diurnal", "burst", "heavy_tail", "straggler", "multitenant"):
        assert name in SCENARIOS, f"scenario pack missing {name!r}"
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.objectives, f"{name}: no conformance objectives"
        assert scenario.description


def test_manifest_fingerprint_ignores_volatile_fields():
    base = {"model": "m", "metrics": {"p99": 1.25}, "created": "now",
            "git_sha": "abc123"}
    same = {"model": "m", "metrics": {"p99": 1.25}, "created": "later",
            "git_sha": "def456"}
    different = {"model": "m", "metrics": {"p99": 1.26}, "created": "now",
                 "git_sha": "abc123"}
    assert manifest_fingerprint(base) == manifest_fingerprint(same)
    assert manifest_fingerprint(base) != manifest_fingerprint(different)


def test_seeded_replay_is_bit_identical():
    first = run_scenario("diurnal", seed=7, requests=80)
    second = run_scenario("diurnal", seed=7, requests=80)
    assert first.fingerprint == second.fingerprint
    assert first.summary() == second.summary()
    assert first.completed + first.shed == 80


def test_different_seed_changes_the_run():
    a = run_scenario("heavy_tail", seed=1, requests=60)
    b = run_scenario("heavy_tail", seed=2, requests=60)
    assert a.fingerprint != b.fingerprint


def test_batching_policy_is_part_of_the_fingerprint_surface():
    edf = run_scenario("diurnal", seed=3, requests=60)
    head = run_scenario("diurnal", seed=3, requests=60, batching="head")
    assert edf.batching == "edf" and head.batching == "head"
    # Same arrivals either way; policy only reorders service.
    assert edf.completed + edf.shed == head.completed + head.shed == 60


def test_burst_scenario_scales_up():
    report = run_scenario("burst", seed=0, requests=160)
    auto = report.stats["autoscaler"]
    assert auto["enabled"]
    assert auto["scale_ups"] >= 1
    assert report.stats["devices"]["current"] >= SCENARIOS["burst"].devices
    directions = {e["direction"] for e in auto["events"]}
    assert "up" in directions


def test_multitenant_quota_isolation():
    report = run_scenario("multitenant", seed=0, requests=120)
    tenants = report.stats["tenants"]
    assert tenants["greedy"]["shed"] > 0, "greedy tenant never hit its quota"
    assert tenants["paying"]["shed"] == 0, "quota shed leaked onto paying tenant"
    assert report.shed_by_reason.get("quota", 0) == tenants["greedy"]["shed"]


def test_scenario_verify_bit_identity_under_edf():
    report = run_scenario("diurnal", seed=0, requests=48, verify=4)
    assert report.verified >= 1


def test_multitenant_objectives_hold_at_default_scale():
    # One full-scale conformance sample in-suite; the CI scenario matrix
    # runs the whole pack x both batching policies at default scale.
    report = run_scenario("multitenant", seed=0)
    assert report.check() == [], report.render()


def test_report_render_and_check_shape():
    report = run_scenario("straggler", seed=0, requests=60)
    text = report.render()
    assert "straggler" in text and "fingerprint" in text
    summary = report.summary()
    assert summary["requests"] == 60
    assert isinstance(report.check(), list)


# Full fingerprints at (seed=7, requests=80), recorded before profile-mode
# entries began reusing their first simulation: the serve path's cache must
# leave every manifest bit-identical.
GOLDEN_FINGERPRINTS = {
    "burst": "f10d717a41c4838d069ba0e6656d8f41c5866fa7153c0a37717e7127f0ebdca2",
    "diurnal": "eb5456d76ea9e3251ac7ad2a3a18be86fc5bc2be6fbb2477888f5486bd4d58d6",
    "heavy_tail": "a1fc05262315542f12955b85f550f6a74505d21a51681f336c421f4a1111eb00",
    "multitenant": "a1d2b19a6550b37be18e876d95284f6c9e7644b37520cdd1a4f08762ade7cd66",
    "straggler": "9912dd403ee814ec4c96ca6f1be9e09c2342b10bae9f1b19204a190db65c7a73",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_golden_fingerprint(name):
    assert set(GOLDEN_FINGERPRINTS) == set(SCENARIOS)
    report = run_scenario(name, seed=7, requests=80)
    assert report.fingerprint == GOLDEN_FINGERPRINTS[name]


def test_unknown_objective_op_is_rejected():
    with pytest.raises(ValueError, match=r"'typo'.*'completed'.*'mn'"):
        Scenario(name="typo", description="mistyped objective",
                 objectives=(("completed", "mn", 1.0),))
    report = ScenarioReport(
        scenario="typo", seed=0, batching="edf", unit_s=1.0, duration_s=1.0,
        requests=1, completed=1, shed=0, verified=0, fingerprint="",
        objectives=(("completed", "mn", 1.0), ("completed", "min", 1.0)))
    assert report.check() == ["completed: unknown objective op 'mn'"]
