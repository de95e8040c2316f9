"""Unit tests for the randomized fault-schedule generator and shrinker."""

import hashlib
import json

import pytest

from repro.sim.chaos import (
    FAULT_WINDOW,
    FaultDomain,
    FaultScheduleGenerator,
    IntensityProfile,
    PROFILES,
    normalize,
    shrink,
)
from repro.sim.faults import FaultPlan

HORIZON = 3600.0


def domain() -> FaultDomain:
    return FaultDomain(
        processes=("p0", "p1", "p2"),
        sensors=("s1", "s2"),
        actuators=("a1",),
        links=(("s1", "p0"), ("s2", "p1")),
    )


def generator(profile: str = "severe") -> FaultScheduleGenerator:
    return FaultScheduleGenerator(domain(), PROFILES[profile], HORIZON)


# -- sampling -----------------------------------------------------------------


def test_same_seed_same_plan():
    a = generator().generate(7)
    b = generator().generate(7)
    assert a.actions == b.actions
    assert len(a) > 0


def test_different_seeds_differ():
    plans = {tuple(generator().generate(s).actions) for s in range(5)}
    assert len(plans) > 1


@pytest.mark.parametrize("seed", range(8))
def test_actions_stay_inside_the_fault_window(seed):
    lo, hi = HORIZON * FAULT_WINDOW[0], HORIZON * FAULT_WINDOW[1]
    plan = generator().generate(seed)
    for action in plan.actions:
        assert lo <= action.at <= hi


@pytest.mark.parametrize("seed", range(8))
def test_crashes_pair_with_recoveries(seed):
    plan = generator().generate(seed)
    down: set[str] = set()
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    for _, action in ordered:
        if action.kind == "crash_process":
            assert action.args[0] not in down
            down.add(action.args[0])
        elif action.kind == "recover_process":
            assert action.args[0] in down
            down.discard(action.args[0])
    assert not down, "every crash must have a matching recovery"


@pytest.mark.parametrize("seed", range(8))
def test_at_least_one_process_stays_up(seed):
    plan = generator().generate(seed)
    total = len(domain().processes)
    down: set[str] = set()
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    for _, action in ordered:
        if action.kind == "crash_process":
            down.add(action.args[0])
        elif action.kind == "recover_process":
            down.discard(action.args[0])
        assert len(down) < total


@pytest.mark.parametrize("seed", range(8))
def test_at_most_one_partition_open(seed):
    plan = generator().generate(seed)
    open_partition = False
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    for _, action in ordered:
        if action.kind == "set_partition":
            assert not open_partition
            open_partition = True
        elif action.kind == "heal_partition":
            assert open_partition
            open_partition = False
    assert not open_partition


@pytest.mark.parametrize("seed", range(8))
def test_link_ramps_restore_base_loss(seed):
    plan = generator().generate(seed)
    current: dict[tuple[str, str], float] = {}
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    for _, action in ordered:
        if action.kind == "set_link_loss":
            device, process, rate = action.args
            current[(device, process)] = rate
    for link, rate in current.items():
        assert rate == domain().base_loss.get(link, 0.0)


def test_zero_rates_yield_empty_plan():
    silent = IntensityProfile(
        name="silent", crash_rate=0.0, partition_rate=0.0,
        device_fail_rate=0.0, link_ramp_rate=0.0,
    )
    plan = FaultScheduleGenerator(domain(), silent, HORIZON).generate(1)
    assert len(plan) == 0


def test_single_process_domain_never_crashes_it():
    solo = FaultDomain(processes=("p0",))
    plan = FaultScheduleGenerator(solo, PROFILES["severe"], HORIZON).generate(3)
    assert not any(a.kind == "crash_process" for a in plan.actions)


def test_invalid_horizon_rejected():
    with pytest.raises(ValueError):
        FaultScheduleGenerator(domain(), PROFILES["mild"], 0.0)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        FaultScheduleGenerator(
            FaultDomain(processes=()), PROFILES["mild"], HORIZON
        )


# -- soft device-fault episodes ----------------------------------------------


_DEVICE_PAIRS = {
    "stick_sensor": "unstick_sensor",
    "drift_sensor": "stop_drift",
    "flap_link": "stop_flap",
    "ghost_events": "stop_ghost",
    "brownout": "replace_battery",
}


def device_domain() -> FaultDomain:
    return FaultDomain(
        processes=("p0", "p1"),
        binary_sensors=("m1", "d1"),
        numeric_sensors=("t1",),
        battery_sensors=("m1", "t1"),
        correlated=(("m1", "m2"),),
    )


def device_generator() -> FaultScheduleGenerator:
    return FaultScheduleGenerator(device_domain(), PROFILES["device"], HORIZON)


def test_device_profile_emits_soft_faults():
    plan = device_generator().generate(1)
    kinds = {a.kind for a in plan.actions}
    assert kinds & set(_DEVICE_PAIRS), "expected at least one soft fault"


@pytest.mark.parametrize("seed", range(8))
def test_device_episodes_are_paired_and_non_overlapping(seed):
    plan = device_generator().generate(seed)
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    active: dict[str, str] = {}  # device -> start kind
    for _, action in ordered:
        if action.kind in _DEVICE_PAIRS:
            device = action.args[0]
            assert device not in active, \
                f"{device} got {action.kind} while {active[device]} is open"
            active[device] = action.kind
        elif action.kind in _DEVICE_PAIRS.values():
            device = action.args[0]
            starts = [k for k, v in _DEVICE_PAIRS.items() if v == action.kind]
            assert active.get(device) == starts[0]
            del active[device]
    assert not active, "every soft fault must be cleared inside the window"


@pytest.mark.parametrize("seed", range(8))
def test_device_episodes_respect_correlated_groups(seed):
    plan = device_generator().generate(seed)
    ordered = sorted(enumerate(plan.actions),
                     key=lambda pair: (pair[1].at, pair[0]))
    group = {"m1", "m2"}
    open_in_group = 0
    for _, action in ordered:
        if not action.args or action.args[0] not in group:
            continue
        if action.kind in _DEVICE_PAIRS:
            open_in_group += 1
            assert open_in_group <= 1
        elif action.kind in _DEVICE_PAIRS.values():
            open_in_group -= 1


@pytest.mark.parametrize("seed", range(8))
def test_device_fault_parameters_are_valid(seed):
    plan = device_generator().generate(seed)
    for action in plan.actions:
        if action.kind == "stick_sensor":
            device, value = action.args
            if device in ("m1", "d1"):
                assert isinstance(value, bool)
            else:
                assert 18.0 <= value <= 28.0
        elif action.kind == "drift_sensor":
            assert action.args[0] == "t1"  # numeric only
            assert 0.0 < abs(action.args[1]) <= PROFILES["device"].max_drift_per_s
        elif action.kind == "flap_link":
            _, period, duty = action.args
            assert period > 0 and 0.0 < duty < 1.0
        elif action.kind == "ghost_events":
            assert action.args[0] in ("m1", "d1")  # binary push only
            assert action.args[1] > 0
        elif action.kind == "brownout":
            assert action.args[0] in ("m1", "t1")
            assert 0.0 <= action.args[1] <= 0.15


def test_legacy_profiles_are_digest_stable_with_device_fields():
    """Profiles with zero device-fault rates must generate plans that are
    bit-identical whether or not the domain declares soft-fault targets
    (adding the feature cannot shift existing campaigns)."""
    bare = domain()
    extended = FaultDomain(
        processes=bare.processes, sensors=bare.sensors,
        actuators=bare.actuators, links=bare.links,
        binary_sensors=("s1",), numeric_sensors=("s2",),
        battery_sensors=("s1",), correlated=(("s1", "s2"),),
    )
    for profile in ("mild", "severe"):
        for seed in range(6):
            a = FaultScheduleGenerator(bare, PROFILES[profile], HORIZON)
            b = FaultScheduleGenerator(extended, PROFILES[profile], HORIZON)
            assert a.generate(seed).actions == b.generate(seed).actions


#: SHA-256 over every campaign plan below: the chaos domain under the three
#: historical profiles and the device domain under ``device``, seeds 0-19.
CAMPAIGN_PLANS_SHA256 = (
    "03572d14167a5ead0087074220383e8daf616dbc66495af47f2efa22e97d4426"
)


def test_generated_campaign_plans_are_pinned():
    """The plans every campaign cell draws are a pure function of (domain,
    profile, seed, horizon): a refactor of the generator must not move one
    action, time or argument of them."""
    from repro.eval.chaos import chaos_domain, device_domain

    plans = []
    for domain, profiles in ((chaos_domain(), ("mild", "moderate", "severe")),
                             (device_domain(), ("device",))):
        for profile in profiles:
            gen = FaultScheduleGenerator(domain, PROFILES[profile], HORIZON)
            plans.extend(
                [profile, seed, gen.generate(seed).to_dicts()]
                for seed in range(20)
            )
    blob = json.dumps(plans, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CAMPAIGN_PLANS_SHA256


# -- normalize ----------------------------------------------------------------


def test_normalize_keeps_valid_plans_intact():
    plan = generator().generate(5)
    assert normalize(plan.actions) == list(plan.actions)


def test_normalize_drops_orphaned_crash_and_recover():
    plan = (FaultPlan()
            .crash("p0", at=10.0)
            .crash("p0", at=20.0)      # p0 already down: dropped
            .recover("p0", at=30.0)
            .recover("p0", at=40.0))   # p0 already up: dropped
    kept = normalize(plan.actions)
    assert [(a.kind, a.at) for a in kept] == [
        ("crash_process", 10.0),
        ("recover_process", 30.0),
    ]


def test_normalize_preserves_other_kinds():
    plan = (FaultPlan()
            .fail_sensor("s1", at=5.0)
            .recover("p0", at=6.0)     # p0 was never crashed: dropped
            .set_link_loss("s1", "p0", 0.5, at=7.0))
    kept = normalize(plan.actions)
    assert [a.kind for a in kept] == ["fail_sensor", "set_link_loss"]


def test_normalize_keeps_device_plans_intact():
    plan = device_generator().generate(3)
    assert normalize(plan.actions) == list(plan.actions)


def test_normalize_drops_orphaned_device_actions():
    plan = (FaultPlan()
            .stick_sensor("m1", True, at=10.0)
            .stick_sensor("m1", False, at=15.0)   # already stuck: dropped
            .unstick_sensor("m1", at=20.0)
            .unstick_sensor("m1", at=25.0)        # not stuck: dropped
            .stop_flap("d1", at=30.0)             # never flapping: dropped
            .brownout("t1", 0.1, at=35.0)
            .brownout("t1", 0.05, at=40.0)        # battery already weak: dropped
            .replace_battery("t1", at=45.0))
    kept = normalize(plan.actions)
    assert [(a.kind, a.at) for a in kept] == [
        ("stick_sensor", 10.0),
        ("unstick_sensor", 20.0),
        ("brownout", 35.0),
        ("replace_battery", 45.0),
    ]


def test_shrink_handles_device_action_subsets():
    plan = device_generator().generate(2)
    soft = [a for a in plan.actions if a.kind in _DEVICE_PAIRS]
    assert soft, "need at least one soft fault for this seed"
    culprit = soft[0]
    shrunk = shrink(plan, _failing_if_contains(culprit.kind, culprit.args[0]))
    assert len(shrunk) <= len(plan)
    assert any(a.kind == culprit.kind for a in shrunk.actions)
    assert normalize(shrunk.actions) == list(shrunk.actions)


# -- shrink -------------------------------------------------------------------


def _failing_if_contains(kind: str, name: str):
    def is_failing(plan: FaultPlan) -> bool:
        return any(a.kind == kind and a.args[:1] == (name,)
                   for a in plan.actions)
    return is_failing


def test_shrink_finds_single_culprit():
    plan = generator().generate(2)
    assert len(plan) > 3
    culprit = next(a for a in plan.actions if a.kind == "crash_process")
    shrunk = shrink(plan, _failing_if_contains("crash_process",
                                               culprit.args[0]))
    assert len(shrunk) < len(plan)
    assert any(a.kind == "crash_process" for a in shrunk.actions)
    # the result itself still satisfies the predicate
    assert _failing_if_contains("crash_process", culprit.args[0])(shrunk)


def test_shrink_result_is_normalized():
    plan = generator().generate(4)
    shrunk = shrink(plan, lambda p: True)
    assert normalize(shrunk.actions) == list(shrunk.actions)


def test_shrink_respects_eval_budget():
    calls = 0

    def counting(plan: FaultPlan) -> bool:
        nonlocal calls
        calls += 1
        return False  # nothing ever fails: worst case for ddmin

    shrink(generator().generate(6), counting, max_evals=10)
    assert calls <= 10


def test_shrink_of_singleton_plan_is_identity():
    plan = FaultPlan().fail_sensor("s1", at=100.0)
    shrunk = shrink(plan, lambda p: True)
    assert shrunk.actions == plan.actions
