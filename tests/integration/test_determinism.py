"""Determinism regression tests over the trace digest.

Two guarantees are pinned here:

1. **Run-to-run determinism** — the same scenario with the same seed
   produces a bit-identical record stream (equal ``trace.digest()``).
2. **Optimization-neutrality** — the fast-path kernel work (indexed
   tracing, cached wire accounting, O(1) scheduler bookkeeping,
   ``call_repeating``, the inline digest lanes) did not change what the
   simulator computes: the golden digests below pin the record stream
   across optimizations. They are regenerated only on an intentional
   format or behaviour change (most recently: the digest-v2 binary
   encoding), never to paper over an accidental one.
"""

from __future__ import annotations

from repro.eval.workloads import single_sensor_home
from repro.sim.faults import FaultPlan

# Digest of the mixed-fault scenario below. If an intentional behaviour
# change invalidates it, regenerate with scenario_digest(7) and say so in
# the commit message. Last regenerated for digest v3 (one string framing in
# every lane; same record stream, new bytes), from the unchanged simulation.
GOLDEN_DIGEST = "97e2640623f95214d6bd86a97db7ac04"


def run_mixed_fault_scenario(seed: int = 7):
    """A home exercising every kernel hot path: transport sends, radio
    delivery, heartbeats, a crash/recovery, a partition/heal and link loss."""
    home, sensor = single_sensor_home(n_processes=4, receiving=2, seed=seed)
    plan = (
        FaultPlan()
        .set_link_loss("s1", "p1", 0.2, at=5.0)
        .crash("p2", at=8.0)
        .recover("p2", at=14.0)
        .partition([["p0", "p1"], ["p2", "p3"]], at=20.0)
        .heal(at=26.0)
    )
    plan.apply(home)
    home.run_until(1.0)
    sensor.start_periodic(5.0)
    home.run_until(40.0)
    return home


def scenario_digest(seed: int = 7) -> str:
    return run_mixed_fault_scenario(seed).trace.digest()


def test_same_seed_same_digest():
    assert scenario_digest(7) == scenario_digest(7)


def test_different_seed_different_digest():
    assert scenario_digest(7) != scenario_digest(8)


def test_golden_digest_unchanged_by_optimizations():
    assert scenario_digest(7) == GOLDEN_DIGEST


# Digest of the device-fault scenario below: every soft device
# fault (stick/drift/flap/ghost/brownout) plus its clearing action, over the
# standard device workload with the repair layer on. Pins both the fault
# models and the repair layer's decisions. Regenerate with
# device_fault_scenario_digest(11) on intentional behaviour change. Last
# regenerated for digest v3.
DEVICE_FAULT_GOLDEN = "d889cbd97bcf850c63d6a72cd0229e21"


def device_fault_scenario_digest(seed: int = 11) -> str:
    from repro.apps.scenarios import device_scenario
    from repro.core.invariants import ORACLE_TRACE_KINDS
    from repro.core.scenario import build_sim_home
    from repro.eval.chaos import device_workload

    home = build_sim_home(
        device_scenario(repair=True), seed=seed,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS), trace_digest=True,
    )
    home.start()
    plan = (FaultPlan()
            .stick_sensor("m1", True, at=300.0)
            .drift_sensor("t1", 0.02, at=400.0)
            .flap_link("d1", 60.0, 0.5, at=500.0)
            .ghost_events("s1", 40.0, at=600.0)
            .unstick_sensor("m1", at=700.0)
            .brownout("m1", 0.1, at=800.0)
            .stop_drift("t1", at=900.0)
            .stop_flap("d1", at=1000.0)
            .stop_ghost("s1", at=1100.0)
            .replace_battery("m1", at=1200.0))
    plan.apply(home)
    home.play(device_workload(seed, 1800.0)[0])
    home.run_until(1800.0)
    return home.trace.digest()


def test_device_fault_scenario_digest_pinned():
    assert device_fault_scenario_digest(11) == DEVICE_FAULT_GOLDEN


def test_device_fault_scenario_seed_sensitivity():
    assert device_fault_scenario_digest(12) != DEVICE_FAULT_GOLDEN


# Trace digest of every Table 1 app run end to end by its catalog script
# (seed 42, 45 s). Pins the scripts, their order at a shared instant, and
# the periodic-window timers of the windowed apps.
TABLE1_DIGESTS = {
    "occupancy-hvac": "03ef03487925b013faa4798a78eccd07",
    "user-hvac": "dafaa53db30128c138a21cd0fed2f9f5",
    "automated-lighting": "beb8dd7bfa1ec39931884e055adec925",
    "appliance-alert": "0491aae0858838baca9dc44ccae546a3",
    "activity-tracking": "fc3867e0f8d966fe0367f41c2944502d",
    "fall-alert": "e5a9e4bb1f9ddb0db8b1000337a414b8",
    "inactive-alert": "848c6ab2e03ebe227676b936c3fd649c",
    "flood-fire-alert": "17566d3cf0e3916f3eb740a69544fa49",
    "intrusion-detection": "0a20b21f6c4310ebbedaeb2eb6a173b1",
    "energy-billing": "a006fdaa643c0baa5640c6638b36ace4",
    "temperature-hvac": "f6830b9df9386bab313775a5c146c8ea",
    "air-monitoring": "e70e31bfebe1cd17f798b1e9b65fbcb3",
    "surveillance": "e88626308e3536117e6bf755230cbada",
}


def test_table1_app_digests_pinned():
    from repro.apps.catalog import TABLE1, run_catalog_app

    digests = {
        spec.key: run_catalog_app(spec, seed=42, duration=45.0).trace.digest()
        for spec in TABLE1
    }
    assert digests == TABLE1_DIGESTS


def test_digest_matches_incremental_hasher():
    """The streaming (digest=True) and recompute-from-storage paths agree."""
    from repro.sim.tracing import Trace

    stored = Trace()
    streamed = Trace(digest=True)
    for trace in (stored, streamed):
        trace.record(0.5, "net_send", src="a", dst="b", kind="keepalive", bytes=90)
        trace.record(1.0, "suspect", peers=["p1", "p2"])
        trace.record(1.5, "custom", data={"k": (1, 2)}, flag=None)
    assert stored.digest() == streamed.digest()


def fig1_home_run(keep_kinds, subscribe_to=None, seed: int = 7):
    """The Fig. 1 home with a streaming digest, from midnight until the
    residents have left for work; returns (digest, counts)."""
    from dataclasses import replace

    from repro.core.home import Home
    from repro.eval.workloads import (
        OccupancyConfig, _fig1_config, _fig1_workload, _set_fig1_link_loss,
    )

    config = _fig1_config(seed, trace_digest=True)
    home = Home(replace(config, keep_trace_kinds=keep_kinds))
    workload = _fig1_workload(home, seed, OccupancyConfig(days=1.0))
    home.start()
    _set_fig1_link_loss(home)
    if subscribe_to is not None:
        home.trace.subscribe(lambda event: None, kinds=subscribe_to)
    workload.schedule()
    home.run_until(0.4 * 86_400.0)
    return home.trace.digest(), home.trace.counts


def test_fig1_home_digest_is_independent_of_what_observes_the_trace():
    """Aggregate-only (multicast plans, channel digest lanes), every record
    kept (per-message send, the generic encoder) and a read-only net_send
    subscriber are the same run: same counts, one digest. Under digest v2
    these were three different values."""
    aggregate_only = fig1_home_run(set())
    assert aggregate_only[1]["net_send"] > 0 and aggregate_only[1]["radio_emit"] > 0
    assert fig1_home_run(None) == aggregate_only
    assert fig1_home_run(set(), subscribe_to=("net_send",)) == aggregate_only
