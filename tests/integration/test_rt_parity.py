"""Oracle parity: the same 4-app home passes ``check_all`` on both runtimes.

The sim half is cheap (virtual time) and stays in tier-1; the rt half
drives real sockets in wall time and is rt-marked.
"""

import pytest

from repro.core.invariants import check_all
from repro.eval.rt import (
    cross_validate,
    record_metrics,
    run_rt_case,
    run_sim_case,
    scenario_named,
    workload_schedule,
)

PARITY = scenario_named("parity4")


def test_workload_schedule_is_deterministic():
    a = workload_schedule(PARITY, seed=5, duration=6.0)
    b = workload_schedule(PARITY, seed=5, duration=6.0)
    assert a == b
    assert a != workload_schedule(PARITY, seed=6, duration=6.0)
    assert all(sensor in PARITY.push_sensors for _, sensor, _ in a)


def test_parity4_sim_record_passes_all_oracles():
    record, emitted = run_sim_case(PARITY, seed=42, duration=6.0)
    violations = check_all(record)
    assert violations == [], [str(v) for v in violations]
    assert emitted > 0
    # Mixed modes negotiated as declared: d1 overridden to Gap.
    assert record.sensor_modes["d1"] == "gap"
    assert record.sensor_modes["m1"] == "gapless"


def test_smoke3_fault_script_is_one_plan():
    assert scenario_named("smoke3").faults(10.0).to_dicts() == [
        {"at": 2.0, "kind": "set_link_loss", "args": ["m1", "p0", 0.25]},
        {"at": 5.5, "kind": "set_link_loss", "args": ["m1", "p0", 0.0]},
        {"at": 5.0, "kind": "crash_process", "args": ["p2"]},
        {"at": 2.5, "kind": "set_link_loss", "args": ["p0", "p1", 0.3]},
        {"at": 6.0, "kind": "set_link_loss", "args": ["p0", "p1", 0.0]},
    ]


def test_smoke3_sim_half_skips_only_the_process_pair_loss():
    # The sim applies the radio loss and the crash; the p0 <-> p1 TCP loss
    # has no sim analogue. The digest was measured before the fault
    # script became one plan, so the sim half provably did not move.
    record, emitted = run_sim_case(scenario_named("smoke3"), seed=42, duration=5.0)
    assert record.trace.digest() == "0198f9bfdfdda7c87af6e74a6269bd97"
    assert (emitted, len(record.actuations)) == (12, 12)


@pytest.mark.rt
def test_parity4_rt_record_passes_all_oracles():
    record, _emitted, violations, _metrics, diagnostics = run_rt_case(
        PARITY, seed=42, duration=6.0, mode="in-process",
    )
    assert violations == [], [str(v) for v in violations]
    # Same structural facts as the sim record.
    assert record.sensor_modes["d1"] == "gap"
    assert record.sensor_modes["m1"] == "gapless"
    assert set(record.alive) == {"hub", "tv", "fridge"}
    assert all(record.alive.values())
    # Every per-event frame took its declared shape; every node sent some.
    nodes = diagnostics["nodes"]
    assert sorted(nodes) == ["fridge", "hub", "tv"]
    assert not any(node["wire_fallbacks"] for node in nodes.values()), nodes
    assert all(node["senders"] for node in nodes.values()), nodes
    # The proxy reports each pair; what reached a peer left in batches.
    pairs = diagnostics["proxy"]
    assert len(pairs) == 6 and any(cell["forwarded"] for cell in pairs.values())
    for cell in pairs.values():
        sender = cell["sender"]
        assert sender["frames"] + sender["dial_lost"] <= cell["forwarded"], cell
        assert sender["frames"] >= sender["writes"] >= (sender["frames"] > 0), cell


@pytest.mark.rt
def test_smoke3_rt_agrees_with_sim_prediction():
    scenario = scenario_named("smoke3")
    sim_record, sim_emitted = run_sim_case(scenario, seed=42, duration=5.0)
    rt = run_rt_case(scenario, seed=42, duration=5.0, mode="in-process")
    checks = cross_validate(rt.metrics, record_metrics(sim_record, sim_emitted))
    failed = [c for c in checks if not c["ok"]]
    assert not failed, failed
