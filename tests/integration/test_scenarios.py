"""One home description, three runtimes.

Every registered :class:`~repro.core.scenario.Scenario` must mean the same
home to the simulator, to an in-process ``LocalCluster`` and to a
subprocess child; the one sim case runner must be the sequence it
replaced; and the chaos homes must pass every oracle on real sockets.
"""

import asyncio
import functools

import pytest

from repro.apps.scenarios import MODES, SCENARIOS, chaos_scenario, device_scenario
from repro.core.delivery import GAP, GAPLESS, PollingPolicy, PollMode
from repro.core import scenario as scenario_module
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.invariants import ORACLE_TRACE_KINDS, RunRecord, check_all
from repro.core.operators import Operator
from repro.core.scenario import Scenario, build_sim_home
from repro.core.windows import CountWindow
from repro.devices.sensor import PollSensor, PushSensor
from repro.eval import chaos
from repro.eval.rt import run_rt_case
from repro.rt.child import _ChildNode
from repro.rt.cluster import build_cluster
from repro.sim.chaos import PROFILES, FaultScheduleGenerator
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource


# -- (a) one description, three readers -----------------------------------------


def _facts(plan, device_info):
    """What a deployment must agree on, whatever derived it."""
    return {
        "processes": plan.processes,
        "sensor_hosts": plan.sensor_hosts,
        "actuator_hosts": plan.actuator_hosts,
        "apps": [app.name for app in plan.apps],
        "categories": {
            name: info.mode if info.category == "sensor" else info.category
            for name, info in device_info.items()
        },
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sim_cluster_and_child_derive_the_same_deployment(name):
    scenario = SCENARIOS[name]
    first = scenario.processes[0]

    home = build_sim_home(scenario, seed=1).start()
    sim = _facts(home.plan, home.processes[first].device_info)

    async def cluster_facts():
        async with build_cluster(scenario, seed=1, use_proxy=False) as cluster:
            node = cluster.node(first)
            # Let the first dials land: a cluster stopped mid-connect leaks
            # the half-accepted sockets (ResourceWarning under -X dev, at
            # the parent commit too; ROADMAP item 3).
            await asyncio.sleep(0.1)
            return _facts(node.plan, node.device_info)

    child = _ChildNode(
        {"scenario": name, "node": first, "port": 0, "addresses": {}, "origin": 0.0}
    ).node

    assert set(sim["categories"].values()) <= {"push", "poll", "actuator"}
    assert asyncio.run(cluster_facts()) == sim
    assert _facts(child.plan, child.device_info) == sim


# -- the kind of a sensor is stated, never guessed ----------------------------------


def test_device_scenario_builds_the_kinds_it_states():
    home = build_sim_home(device_scenario(repair=True), seed=1)
    smoke = home.sensor("s1")
    assert smoke.kind == "smoke" and isinstance(smoke, PushSensor)
    assert home.sensor("m1").kind == "motion"
    assert home.sensor("d2").kind == "door"
    assert isinstance(home.sensor("t1"), PollSensor)


def test_a_name_does_not_decide_the_kind():
    scenario = Scenario(
        name="mic", processes=("p0",),
        sensors={"mic1": ("microphone", ("p0",)), "m9": ("door", ("p0",))},
    )
    home = build_sim_home(scenario, seed=1)
    assert home.sensor("mic1").kind == "microphone"
    assert home.sensor("mic1").event_size == 1024
    assert home.sensor("m9").kind == "door"


def test_unknown_sensor_kind_raises():
    scenario = Scenario(
        name="bad", processes=("p0",), sensors={"z1": ("sonar", ("p0",))},
    )
    with pytest.raises(KeyError, match="unknown sensor kind 'sonar'"):
        build_sim_home(scenario, seed=1)


# -- (b) the one runner is the sequence it replaced ------------------------------------

_PUSH = {"m1": ("p1", "p2"), "d1": ("p3",)}


def _chaos_home_by_hand(seed: int, mode: str) -> Home:
    """The chaos home declared call by call, as it was before ``Scenario``."""
    push_delivery = GAP if mode == "gap" else GAPLESS
    home = Home(HomeConfig(
        seed=seed,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS),
        trace_digest=True,
        delivery_override=(
            {name: "naive-broadcast" for name in _PUSH}
            if mode == "naive-broadcast" else {}
        ),
    ))
    for name in ("p0", "p1", "p2", "p3"):
        home.add_process(name, adapters=("ip", "zwave"))
    home.add_sensor("d1", kind="door", technology="ip", processes=["p3"])
    home.add_sensor("m1", kind="motion", technology="ip", processes=["p1", "p2"])
    home.add_sensor("t1", kind="temperature", technology="zwave",
                    processes=["p0", "p1"])
    home.add_actuator("a1", processes=["p0"])
    home.add_actuator("a2", processes=["p1"])

    def alarm_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "set", bool(events[-1].value))

    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    for name in sorted(_PUSH):
        alarm.add_sensor(name, push_delivery, CountWindow(1))
    alarm.add_actuator("a1", push_delivery)

    def climate_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("a2", "set", round(float(events[-1].value)))

    climate = Operator("ClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        "t1", GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=30.0, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("a2", GAPLESS)
    home.deploy(App("alarm", alarm))
    home.deploy(App("climate", climate))
    return home


def _chaos_case_by_hand(seed: int, mode: str, horizon: float, plan: FaultPlan):
    home = _chaos_home_by_hand(seed, mode)
    home.start()
    plan.apply(home)

    def cleanup() -> None:  # hard faults only: all the chaos profiles inject
        for name, process in sorted(home.processes.items()):
            if not process.alive:
                home.recover_process(name)
        home.heal_partition()
        for name in home.sensor_names:
            if home.sensor(name).failed:
                home.recover_sensor(name)
        for name in home.actuator_names:
            if home.actuator(name).failed:
                home.recover_actuator(name)
        for sensor, hosts in sorted(_PUSH.items()):
            for process in hosts:
                home.set_link_loss(sensor, process, 0.0)

    home.scheduler.call_at(horizon * chaos.CLEANUP_FRACTION, cleanup)
    source = RandomSource(seed).child("chaos-workload")
    for name, mean in (("d1", 45.0), ("m1", 20.0)):
        rng = source.child(name)
        t, toggle = 1.0, True
        while True:
            t += rng.expovariate(1.0 / mean)
            if t >= horizon * chaos.EMISSION_STOP_FRACTION:
                break
            home.scheduler.call_at(t, home.sensor(name).emit, toggle)
            toggle = not toggle
    home.run_until(horizon)
    record = RunRecord.from_home(
        home,
        fault_free=len(plan) == 0,
        lossless=not any(a.kind == "set_link_loss" for a in plan.actions),
    )
    return check_all(record), home


def _observed(violations, home):
    trace = home.trace
    return {
        "violations": [str(v) for v in violations],
        "digest": trace.digest(),
        "counts": dict(trace.counts),
        "records": {
            kind: [(e.time, sorted(e.fields.items(), key=repr))
                   for e in trace.of_kind(kind)]
            for kind in sorted(ORACLE_TRACE_KINDS)
        },
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("faulted", [False, True], ids=["empty-plan", "severe-plan"])
def test_run_chaos_case_is_the_hand_written_sequence(monkeypatch, mode, faulted):
    # Every record, kept or not, reaches the streaming digest on both sides.
    monkeypatch.setattr(
        scenario_module, "HomeConfig", functools.partial(HomeConfig, trace_digest=True)
    )
    seed, horizon = 5, 600.0
    plan = FaultPlan()
    if faulted:
        plan = FaultScheduleGenerator(
            chaos.chaos_domain(), PROFILES["severe"], horizon
        ).generate(seed)
        assert len(plan) >= 10
    by_hand = _observed(*_chaos_case_by_hand(seed, mode, horizon, plan))
    by_runner = _observed(*chaos.run_chaos_case(seed, mode, horizon, plan))
    assert by_hand["counts"]["sensor_emit"] > 20
    assert by_runner == by_hand


# -- (c) the chaos homes on real sockets -----------------------------------------------


@pytest.mark.rt
@pytest.mark.parametrize("mode", MODES)
def test_chaos_scenario_passes_every_oracle_on_a_local_cluster(mode):
    record, emitted, violations, _metrics = run_rt_case(
        chaos_scenario(mode), seed=7, duration=4.0, mode="in-process",
        with_faults=False,
    )
    assert violations == [], [str(v) for v in violations]
    assert emitted >= 10
    assert len(record.actuations) >= emitted  # every toggle sets a1; t1 sets a2
