"""Real-runtime evaluation: the ``rt`` experiment surface.

The simulator predicts; the rt harness verifies. This module defines a
small registry of named scenarios that can be built *twice* — once as a
simulated :class:`repro.core.home.Home` and once as a real
:class:`repro.rt.cluster.LocalCluster` (in-process asyncio nodes) or
:class:`repro.rt.proc.ProcessHome` (one OS process per node, faults via
actual ``SIGKILL``) — driven by the same scripted workload and the same
declarative :class:`~repro.sim.faults.FaultPlan`.

Both runtimes produce the same runtime-agnostic
:class:`~repro.core.invariants.RunRecord`, so:

- every safety/liveness oracle in :func:`repro.core.invariants.check_all`
  runs unchanged against the real-socket run, and
- :mod:`repro.eval.metrics` reads delivery %, delay, and network overhead
  off both records, and the report cross-validates the rt measurements
  against the sim prediction within explicit tolerance bands.

``rivulet-experiment rt`` runs a scenario end to end and writes
``RT_report.json``; see ``docs/rt.md`` for the fault-model mapping and
the tolerance rationale.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.delivery import GAP, GAPLESS, PollingPolicy, PollMode
from repro.core.events import Event
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.invariants import RunRecord, Violation, check_all
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.eval import metrics
from repro.eval.report import write_report
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource

# rt runs use tighter timing than the paper's 0.5 s / 2.0 s defaults so a
# CI smoke run finishes in seconds; sim predictions use the same values so
# the failover shapes are comparable.
HEARTBEAT_INTERVAL = 0.15
FAILURE_DETECTION_S = 0.6

#: Emissions stop at this fraction of the duration so in-flight events can
#: settle before the record is cut (mirrors chaos.EMISSION_STOP_FRACTION).
EMISSION_STOP_FRACTION = 0.85


@dataclass(frozen=True)
class ProxyLossEpisode:
    """An rt-only link degradation: frame loss between two processes.

    The sim transport has no per-process-pair Bernoulli loss (TCP hides
    it), so this episode exists only on the real wire, injected by
    :class:`repro.rt.proxy.FaultProxy`. Cross-validation tolerances
    account for it; see docs/rt.md.
    """

    src: str
    dst: str
    loss: float
    start_frac: float
    stop_frac: float


@dataclass(frozen=True)
class RtScenario:
    """A home that can be built on either runtime."""

    name: str
    processes: tuple[str, ...]
    push_sensors: dict[str, tuple[str, ...]]  # sensor -> receiving processes
    poll_sensors: dict[str, tuple[str, ...]] = field(default_factory=dict)
    poll_epoch_s: float = 0.5
    actuators: dict[str, tuple[str, ...]] = field(default_factory=dict)
    make_apps: Callable[[], list[App]] = lambda: []
    delivery_override: dict[str, str] = field(default_factory=dict)
    #: Process SIGKILLed (subprocess mode) / crash-stopped (in-process) at
    #: ``crash_frac * duration``.
    victim: str | None = None
    crash_frac: float = 0.5
    #: Sensor->process radio-loss episode, supported by BOTH runtimes
    #: (sim ``set_link_loss`` / rt emit-loss): (sensor, process, rate).
    radio_loss: tuple[str, str, float] | None = None
    radio_loss_window: tuple[float, float] = (0.2, 0.6)
    #: rt-only TCP degradation through the fault proxy.
    proxy_loss: ProxyLossEpisode | None = None


def _smoke3_apps() -> list[App]:
    def alarm_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "set", bool(events[-1].value))

    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    alarm.add_sensor("m1", GAPLESS, CountWindow(1))
    alarm.add_sensor("d1", GAPLESS, CountWindow(1))
    alarm.add_actuator("a1", GAPLESS)

    watch = Operator("WatchLogic", on_window=lambda ctx, c: None)
    watch.add_sensor("d1", GAPLESS, CountWindow(1))
    return [App("alarm", alarm), App("watch", watch)]


def _parity4_apps() -> list[App]:
    """The 4-app home both runtimes must pass ``check_all`` on."""

    def alarm_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "set", bool(events[-1].value))

    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    alarm.add_sensor("m1", GAPLESS, CountWindow(1))
    alarm.add_sensor("d1", GAP, CountWindow(1))
    alarm.add_actuator("a1", GAPLESS)

    def light_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "dim", 30 if events[-1].value else 100)

    light = Operator("LightLogic", on_window=light_logic)
    light.add_sensor("d1", GAP, CountWindow(1))
    light.add_actuator("a1", GAP)

    def climate_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("a2", "set", round(float(events[-1].value)))

    climate = Operator("ClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        "t1", GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=0.5, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("a2", GAPLESS)

    monitor = Operator("MonitorLogic", on_window=lambda ctx, c: None)
    monitor.add_sensor("m1", GAPLESS, CountWindow(1))
    return [
        App("alarm", alarm), App("light", light),
        App("climate", climate), App("monitor", monitor),
    ]


SCENARIOS: dict[str, RtScenario] = {
    # The CI smoke home: 3 processes, every sensor keeps a live receiver
    # when the victim dies, one radio-loss episode (both runtimes) and one
    # TCP-loss episode (rt only, through the proxy).
    "smoke3": RtScenario(
        name="smoke3",
        processes=("p0", "p1", "p2"),
        push_sensors={"m1": ("p0", "p1"), "d1": ("p1", "p2")},
        actuators={"a1": ("p0",)},
        make_apps=_smoke3_apps,
        victim="p2",
        crash_frac=0.5,
        radio_loss=("m1", "p0", 0.25),
        radio_loss_window=(0.2, 0.55),
        proxy_loss=ProxyLossEpisode("p0", "p1", 0.3, 0.25, 0.6),
    ),
    # The oracle-parity home: 4 apps over 3 processes, mixed Gap/Gapless
    # plus a coordinated poll sensor; no faults, both record sources must
    # pass check_all with zero violations.
    "parity4": RtScenario(
        name="parity4",
        processes=("hub", "tv", "fridge"),
        push_sensors={"m1": ("hub", "tv"), "d1": ("tv", "fridge")},
        poll_sensors={"t1": ("hub", "tv")},
        poll_epoch_s=0.5,
        actuators={"a1": ("hub",), "a2": ("tv",)},
        make_apps=_parity4_apps,
        delivery_override={"d1": "gap"},
    ),
}


def scenario_named(name: str) -> RtScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown rt scenario {name!r} (choose from {sorted(SCENARIOS)})"
        ) from None


# -- workload (shared by both runtimes) -------------------------------------------------

#: Mean inter-emission gap per push sensor, seconds of run time.
_EMIT_MEANS = {"m1": 0.35, "d1": 0.5}


def workload_schedule(
    scenario: RtScenario, seed: int, duration: float
) -> list[tuple[float, str, Any]]:
    """Deterministic (time, sensor, value) script, identical on sim and rt."""
    source = RandomSource(seed).child("rt-workload")
    stop = duration * EMISSION_STOP_FRACTION
    schedule: list[tuple[float, str, Any]] = []
    for sensor in sorted(scenario.push_sensors):
        rng = source.child(sensor)
        mean = _EMIT_MEANS.get(sensor, 0.4)
        t = 0.8
        toggle = True
        while True:
            t += rng.expovariate(1.0 / mean)
            if t >= stop:
                break
            schedule.append((t, sensor, toggle))
            toggle = not toggle
    schedule.sort(key=lambda item: item[0])
    return schedule


def thermometer_value(sensor: str, seq: int) -> float:
    """Deterministic poll reading shared by rt poll handlers."""
    return 21.0 + (seq % 5) * 0.5


def fault_plan(scenario: RtScenario, duration: float) -> FaultPlan:
    """The declarative fault script for one run of ``scenario``.

    Expressed as a standard :class:`FaultPlan`, so the *same object* is
    applied to the simulated home and replayed against the live cluster
    by :class:`repro.rt.faults.RtFaultDriver`. The rt-only proxy episode
    is not part of the plan (the sim transport cannot lose TCP frames).
    """
    plan = FaultPlan()
    if scenario.radio_loss is not None:
        sensor, process, rate = scenario.radio_loss
        on, off = scenario.radio_loss_window
        plan.set_link_loss(sensor, process, rate, at=on * duration)
        plan.set_link_loss(sensor, process, 0.0, at=off * duration)
    if scenario.victim is not None:
        plan.crash(scenario.victim, at=scenario.crash_frac * duration)
    return plan


# -- builders --------------------------------------------------------------------------


def build_cluster(scenario: RtScenario, *, seed: int, use_proxy: bool = True):
    """The scenario as an in-process asyncio cluster (not yet started)."""
    from repro.rt.cluster import LocalCluster

    cluster = LocalCluster(
        seed=seed,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        failure_detection_s=FAILURE_DETECTION_S,
        delivery_override=scenario.delivery_override or None,
        use_proxy=use_proxy,
    )
    for name in scenario.processes:
        cluster.add_process(name)
    for sensor, receivers in sorted(scenario.push_sensors.items()):
        cluster.add_push_sensor(sensor, receivers=list(receivers))
    for sensor, receivers in sorted(scenario.poll_sensors.items()):
        counter = {"seq": 0}

        def handler(name: str, respond, _counter=counter) -> None:
            _counter["seq"] += 1
            respond(Event(
                sensor_id=name, seq=_counter["seq"],
                emitted_at=asyncio.get_event_loop().time(),
                value=thermometer_value(name, _counter["seq"]), size_bytes=4,
            ))

        cluster.add_poll_sensor(
            sensor, handler, receivers=list(receivers),
            service_time=0.02, default_epoch=scenario.poll_epoch_s,
        )
    for actuator, hosts in sorted(scenario.actuators.items()):
        cluster.add_actuator(actuator, hosts=list(hosts))
    for app in scenario.make_apps():
        cluster.deploy(app)
    return cluster


def build_sim_home(scenario: RtScenario, *, seed: int) -> Home:
    """The same scenario as a simulated Home (not yet started)."""
    config = HomeConfig(
        seed=seed,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        failure_detection_s=FAILURE_DETECTION_S,
        delivery_override=dict(scenario.delivery_override),
    )
    home = Home(config)
    for name in scenario.processes:
        home.add_process(name, adapters=("ip", "zwave"))
    for sensor, receivers in sorted(scenario.push_sensors.items()):
        kind = "motion" if sensor.startswith("m") else "door"
        home.add_sensor(sensor, kind=kind, technology="ip",
                        processes=list(receivers))
    for sensor, receivers in sorted(scenario.poll_sensors.items()):
        home.add_sensor(sensor, kind="temperature", technology="zwave",
                        processes=list(receivers))
    for actuator, hosts in sorted(scenario.actuators.items()):
        home.add_actuator(actuator, processes=list(hosts))
    for app in scenario.make_apps():
        home.deploy(app)
    return home


# -- runners ---------------------------------------------------------------------------


def run_sim_case(
    scenario: RtScenario, *, seed: int, duration: float, with_faults: bool = True
) -> tuple[RunRecord, int]:
    """Run the scenario on the simulator; returns (record, events_emitted)."""
    home = build_sim_home(scenario, seed=seed)
    home.start()
    plan = fault_plan(scenario, duration) if with_faults else FaultPlan()
    plan.apply(home)
    schedule = workload_schedule(scenario, seed, duration)
    for t, sensor, value in schedule:
        home.scheduler.call_at(t, home.sensor(sensor).emit, value)
    # Settle tail: virtual time is free, give retransmissions room.
    home.run_until(duration + 3.0)
    record = RunRecord.from_home(
        home,
        fault_free=len(plan) == 0,
        lossless=not any(a.kind == "set_link_loss" for a in plan.actions),
    )
    return record, len(schedule)


async def _drive_cluster(
    cluster, scenario: RtScenario, *, seed: int, duration: float,
    with_faults: bool,
) -> int:
    """Shared driver: workload + fault plan + proxy episode, in wall time."""
    from repro.rt.faults import RtFaultDriver

    loop = asyncio.get_running_loop()
    t0 = loop.time()
    driver = None
    if with_faults:
        driver = RtFaultDriver(cluster)
        driver.schedule(fault_plan(scenario, duration))
        episode = scenario.proxy_loss
        if episode is not None and cluster.proxy is not None:
            loop.call_later(
                episode.start_frac * duration,
                cluster.set_peer_loss, episode.src, episode.dst, episode.loss,
            )
            loop.call_later(
                episode.stop_frac * duration,
                cluster.set_peer_loss, episode.src, episode.dst, 0.0,
            )
    schedule = workload_schedule(scenario, seed, duration)
    for t, sensor, value in schedule:
        target = t0 + t
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        cluster.emit(sensor, value)
    remaining = (t0 + duration) - loop.time()
    if remaining > 0:
        await asyncio.sleep(remaining)
    if driver is not None:
        driver.cancel()
        await driver.drain()
    if scenario.poll_sensors:
        # Poll epochs generate steady-state traffic that never quiesces;
        # a short fixed settle drains the in-flight push events instead.
        await asyncio.sleep(0.8)
    else:
        await cluster.quiesce(idle_for=0.4, timeout=8.0)
    return len(schedule)


async def run_cluster_case(
    scenario: RtScenario, *, seed: int, duration: float,
    with_faults: bool = True, use_proxy: bool = True,
) -> tuple[RunRecord, int]:
    """Run the scenario on the in-process asyncio cluster."""
    cluster = build_cluster(scenario, seed=seed, use_proxy=use_proxy)
    async with cluster:
        emitted = await _drive_cluster(
            cluster, scenario, seed=seed, duration=duration,
            with_faults=with_faults,
        )
        record = cluster.run_record()
    return record, emitted


def run_rt_case(
    scenario: RtScenario, *, seed: int, duration: float, mode: str = "subprocess",
    with_faults: bool = True,
) -> tuple[RunRecord, int]:
    """Run the scenario on a real runtime (blocking wrapper).

    ``mode="subprocess"`` spawns one OS process per Rivulet node and
    injects crashes with real ``SIGKILL``; ``mode="in-process"`` runs
    asyncio nodes inside this interpreter (faster, used by tests).
    """
    if mode == "in-process":
        return asyncio.run(run_cluster_case(
            scenario, seed=seed, duration=duration, with_faults=with_faults,
        ))
    if mode == "subprocess":
        from repro.rt.proc import run_process_case

        return asyncio.run(run_process_case(
            scenario, seed=seed, duration=duration, with_faults=with_faults,
        ))
    raise ValueError(f"unknown rt mode {mode!r} (in-process|subprocess)")


# -- metrics + cross-validation --------------------------------------------------------


def record_metrics(record: RunRecord, events_emitted: int) -> dict[str, Any]:
    """The comparable measurement vector off one RunRecord."""
    trace = record.trace
    deliveries = sum(1 for _ in trace.of_kind("logic_delivery"))
    return {
        "events_emitted": events_emitted,
        "delivered_fraction": metrics.delivered_fraction(trace, events_emitted),
        "mean_delay_ms": (
            metrics.mean_delay_ms(trace) if deliveries else math.nan
        ),
        "event_messages": metrics.event_messages_sent(trace),
        "event_bytes": metrics.event_bytes_sent(trace),
        "actuations": len(record.actuations),
        "logic_deliveries": deliveries,
    }


#: Cross-validation tolerance bands (documented in docs/rt.md).
DELIVERY_BAND = 0.10          # |rt − sim| delivered fraction
RT_DELAY_SLACK_MS = 250.0     # rt mean delay may exceed sim's by this much
MESSAGES_RATIO_BAND = (0.3, 3.0)  # rt/sim event-message ratio


def cross_validate(rt_m: dict[str, Any], sim_m: dict[str, Any]) -> list[dict[str, Any]]:
    """Compare rt measurements against the sim prediction, band by band."""
    checks: list[dict[str, Any]] = []

    delta = abs(rt_m["delivered_fraction"] - sim_m["delivered_fraction"])
    checks.append({
        "name": "delivered_fraction",
        "rt": rt_m["delivered_fraction"],
        "sim": sim_m["delivered_fraction"],
        "band": f"|rt - sim| <= {DELIVERY_BAND}",
        "ok": bool(delta <= DELIVERY_BAND),
    })

    # One-sided: promotion replay after a crash re-delivers old events with
    # large (and legitimate) delays in BOTH runtimes, so an absolute ceiling
    # would flag healthy failover. The rt stack itself must only add bounded
    # localhost overhead on top of the sim prediction.
    delay = rt_m["mean_delay_ms"]
    sim_delay = sim_m["mean_delay_ms"]
    checks.append({
        "name": "mean_delay_ms",
        "rt": delay,
        "sim": sim_delay,
        "band": f"rt <= sim + {RT_DELAY_SLACK_MS} ms",
        "ok": bool(
            not math.isnan(delay)
            and not math.isnan(sim_delay)
            and delay <= sim_delay + RT_DELAY_SLACK_MS
        ),
    })

    lo, hi = MESSAGES_RATIO_BAND
    sim_msgs = sim_m["event_messages"]
    ratio = rt_m["event_messages"] / sim_msgs if sim_msgs else math.nan
    checks.append({
        "name": "event_messages_ratio",
        "rt": rt_m["event_messages"],
        "sim": sim_msgs,
        "band": f"{lo} <= rt/sim <= {hi}",
        "ok": bool(not math.isnan(ratio) and lo <= ratio <= hi),
    })
    return checks


def _violations_summary(violations: list[Violation]) -> list[dict[str, str]]:
    return [
        {"oracle": v.oracle, "detail": v.message} for v in violations
    ]


def run_rt_report(
    *,
    scenario_name: str = "smoke3",
    seed: int = 42,
    duration: float = 6.0,
    mode: str = "subprocess",
    out_path: str | None = "RT_report.json",
) -> dict[str, Any]:
    """The full ``cli rt`` pipeline: rt run + sim prediction + bands."""
    scenario = scenario_named(scenario_name)

    rt_record, rt_emitted = run_rt_case(
        scenario, seed=seed, duration=duration, mode=mode,
    )
    rt_violations = check_all(rt_record)
    rt_m = record_metrics(rt_record, rt_emitted)

    sim_record, sim_emitted = run_sim_case(
        scenario, seed=seed, duration=duration,
    )
    sim_violations = check_all(sim_record)
    sim_m = record_metrics(sim_record, sim_emitted)

    checks = cross_validate(rt_m, sim_m)
    report = {
        "scenario": scenario_name,
        "mode": mode,
        "seed": seed,
        "duration_s": duration,
        "fault_plan": [
            {"at": a.at, "kind": a.kind, "args": list(a.args)}
            for a in fault_plan(scenario, duration).actions
        ],
        "proxy_loss": (
            {
                "src": scenario.proxy_loss.src,
                "dst": scenario.proxy_loss.dst,
                "loss": scenario.proxy_loss.loss,
            }
            if scenario.proxy_loss is not None else None
        ),
        "rt": {
            "metrics": rt_m,
            "violations": _violations_summary(rt_violations),
        },
        "sim": {
            "metrics": sim_m,
            "violations": _violations_summary(sim_violations),
        },
        "cross_validation": checks,
        "ok": bool(
            not rt_violations
            and not sim_violations
            and all(c["ok"] for c in checks)
        ),
    }
    write_report(report, out_path)
    return report


def render_rt_summary(report: dict[str, Any]) -> str:
    """Human-readable pass/fail table for the terminal."""
    lines = [
        f"rt scenario {report['scenario']!r} "
        f"({report['mode']}, seed={report['seed']}, "
        f"{report['duration_s']:g}s)",
        f"  rt  violations: {len(report['rt']['violations'])}",
        f"  sim violations: {len(report['sim']['violations'])}",
    ]
    for v in report["rt"]["violations"]:
        lines.append(f"    rt  VIOLATION {v['oracle']}: {v['detail']}")
    for v in report["sim"]["violations"]:
        lines.append(f"    sim VIOLATION {v['oracle']}: {v['detail']}")
    for check in report["cross_validation"]:
        status = "ok " if check["ok"] else "FAIL"

        def show(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        lines.append(
            f"  [{status}] {check['name']}: rt={show(check['rt'])} "
            f"sim={show(check['sim'])} ({check['band']})"
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)
