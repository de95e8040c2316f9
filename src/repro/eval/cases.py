"""One simulated case: scenario + fault plan + script -> RunRecord.

Every sim evaluation that judges a run with the oracles — a chaos cell, a
device cell, the sim half of an rt cross-validation — is the same
sequence, so it is written once: build the scenario's home, start it,
apply the fault plan, arm the guarded cleanup, play the workload script,
run, cut the record. Both the plan and the script are values, so a case
is data end to end. The order is part of the contract: entries scheduled
for the same instant fire in insertion order, so plan -> cleanup ->
script is what the pinned digests were recorded with.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.home import Home, Script
from repro.core.invariants import RunRecord
from repro.core.scenario import Scenario, build_sim_home
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource


def toggle_script(
    source: RandomSource, means: Mapping[str, float], start: float, stop: float
) -> Iterator[tuple[float, str, bool]]:
    """Scripted ``(time, sensor, value)`` emissions, sensor by sensor.

    Each sensor in ``means`` toggles on/off at exponential gaps (its mean,
    in seconds) inside ``(start, stop)``, drawn from its own child stream
    of ``source`` — so the script depends on nothing else in the run, a
    fault plan or its shrunk reproducer least of all.
    """
    for sensor, mean in means.items():
        rng = source.child(sensor)
        t, value = start, True
        while True:
            t += rng.expovariate(1.0 / mean)
            if t >= stop:
                break
            yield t, sensor, value
            value = not value


def cleanup(home: Home, links: tuple[tuple[str, str], ...]) -> None:
    """Guarded repairs so every run ends whole, soft faults included.

    A fault generator pairs faults with repairs inside its window; this
    sweep only matters for shrunk sub-plans whose repair action was
    removed. Every repair checks state first, so it never raises
    ``FaultError`` whatever subset of the plan ran.
    """
    for name, process in sorted(home.processes.items()):
        if not process.alive:
            home.recover_process(name)
    home.heal_partition()
    for name in home.sensor_names:
        sensor = home.sensor(name)
        if sensor.failed:
            home.recover_sensor(name)
        if sensor.stuck:
            home.unstick_sensor(name)
        if sensor.drifting:
            home.stop_drift(name)
        if home.is_flapping(name):
            home.stop_flap(name)
        if home.is_ghosting(name):
            home.stop_ghost(name)
        if sensor.battery.weak or sensor.battery.depleted:
            home.replace_battery(name)
    for name in home.actuator_names:
        if home.actuator(name).failed:
            home.recover_actuator(name)
    for sensor_name, process in links:
        home.set_link_loss(sensor_name, process, 0.0)


def run_case(
    scenario: Scenario,
    *,
    seed: int,
    plan: FaultPlan,
    script: Script,
    until: float,
    cleanup_at: float | None = None,
    **config: Any,
) -> tuple[RunRecord, Home]:
    """Run ``scenario`` on the simulator under ``plan``, playing ``script``.

    ``cleanup_at`` arms :func:`cleanup` over the scenario's push links;
    ``config`` reaches :class:`~repro.core.home.HomeConfig` through the
    builder.
    """
    home = build_sim_home(scenario, seed=seed, **config)
    home.start()
    plan.apply(home)
    if cleanup_at is not None:
        home.scheduler.call_at(cleanup_at, cleanup, home, scenario.push_links)
    home.play(script)
    home.run_until(until)
    record = RunRecord.from_home(
        home,
        fault_free=len(plan) == 0,
        lossless=not any(a.kind == "set_link_loss" for a in plan.actions),
    )
    return record, home
