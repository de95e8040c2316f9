"""The registry of named homes: every :class:`~repro.core.scenario.Scenario`
the evaluation runs, with the app logic each one deploys.

A registered scenario builds on the simulator, on the in-process asyncio
cluster and as OS subprocesses alike (a subprocess child finds its home
here by name). What drives and judges a run — workloads, fault domains,
oracles — lives in :mod:`repro.eval`.
"""

from __future__ import annotations

from functools import partial

from repro.core.delivery import GAP, GAPLESS, Delivery, PollingPolicy, PollMode
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.repair import RepairPolicy
from repro.core.scenario import ProxyLossEpisode, Scenario
from repro.core.windows import CountWindow

# The rt homes use tighter timing than the paper's 0.5 s / 2.0 s defaults so
# a CI smoke run finishes in seconds; sim predictions use the same values so
# the failover shapes are comparable.
HEARTBEAT_INTERVAL = 0.15
FAILURE_DETECTION_S = 0.6

#: Delivery modes the chaos home comes in, for its push sensors.
MODES = ("gapless", "gap", "naive-broadcast")


def alarm_logic(ctx, combined) -> None:
    events = combined.all_events()
    if events:
        ctx.actuate("a1", "set", bool(events[-1].value))


def climate_logic(ctx, combined) -> None:
    events = combined.all_events()
    if events and events[-1].value is not None:
        ctx.actuate("a2", "set", round(float(events[-1].value)))


def _alarm_app(*sensors: tuple[str, Delivery], actuator: Delivery = GAPLESS) -> App:
    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    for sensor, delivery in sensors:
        alarm.add_sensor(sensor, delivery, CountWindow(1))
    alarm.add_actuator("a1", actuator)
    return App("alarm", alarm)


def _climate_app(epoch_s: float) -> App:
    climate = Operator("ClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        "t1", GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=epoch_s, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("a2", GAPLESS)
    return App("climate", climate)


def _smoke3_apps() -> list[App]:
    watch = Operator("WatchLogic", on_window=lambda ctx, c: None)
    watch.add_sensor("d1", GAPLESS, CountWindow(1))
    return [_alarm_app(("m1", GAPLESS), ("d1", GAPLESS)), App("watch", watch)]


def _parity4_apps() -> list[App]:
    """The 4-app home both runtimes must pass ``check_all`` on."""

    def light_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "dim", 30 if events[-1].value else 100)

    light = Operator("LightLogic", on_window=light_logic)
    light.add_sensor("d1", GAP, CountWindow(1))
    light.add_actuator("a1", GAP)

    monitor = Operator("MonitorLogic", on_window=lambda ctx, c: None)
    monitor.add_sensor("m1", GAPLESS, CountWindow(1))
    return [
        _alarm_app(("m1", GAPLESS), ("d1", GAP)), App("light", light),
        _climate_app(0.5), App("monitor", monitor),
    ]


def _chaos_apps(push_delivery: Delivery) -> list[App]:
    return [
        _alarm_app(("d1", push_delivery), ("m1", push_delivery),
                   actuator=push_delivery),
        _climate_app(30.0),
    ]


def chaos_scenario(mode: str) -> Scenario:
    """The standard chaos home: four processes, two restricted-reach push
    sensors, a coordinated poll sensor, two actuators, two small apps.

    ``mode`` selects the delivery protocol of the push sensors; the poll
    sensor always runs Gapless with a coordinated polling policy so every
    campaign run exercises the poll-epoch machinery too.
    """
    if mode not in MODES:
        raise ValueError(f"unknown delivery mode {mode!r} (choose from {MODES})")
    return Scenario(
        name=f"chaos-{mode}",
        processes=("p0", "p1", "p2", "p3"),
        sensors={
            "m1": ("motion", ("p1", "p2")),
            "d1": ("door", ("p3",)),
            "t1": ("temperature", ("p0", "p1")),
        },
        actuators={"a1": ("p0",), "a2": ("p1",)},
        make_apps=partial(_chaos_apps, GAP if mode == "gap" else GAPLESS),
        delivery_override=(
            {"m1": mode, "d1": mode} if mode == "naive-broadcast" else {}
        ),
    )


def device_repair_policies() -> dict[str, RepairPolicy]:
    """The per-app repair configurations of the device scenario."""
    return {
        # Substitute the backup motion sensor when m1 sticks; hold the
        # last good occupancy over a retry-free glitch; quarantine (and
        # alert the resident) after a sustained disagreement.
        "hvac": RepairPolicy(
            correlations={"m1": ("m2",)}, stuck_after=3, quarantine_after=8,
            hold_last_known_good=True, echo_timeout_s=10.0,
        ),
        # Entry bursts are short: a tight echo timeout lets d2 speak for
        # a flapped/browned-out d1 well inside the latency budget.
        "intrusion": RepairPolicy(
            correlations={"d1": ("d2",)}, stuck_after=3, echo_timeout_s=5.0,
        ),
        "safety": RepairPolicy(
            correlations={"s1": ("s2",)}, stuck_after=3, echo_timeout_s=5.0,
        ),
        # The temperature sensor has no backup: bound it, retry briefly,
        # then hold the last in-range reading.
        "climate": RepairPolicy(
            valid_range={"t1": (10.0, 35.0)}, retry_timeout_s=20.0,
            hold_last_known_good=True,
        ),
    }


def _device_apps(repair: bool) -> list[App]:
    def hvac_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "m1"]
        if events:
            occupied = bool(events[-1].value)
            ctx.actuate("thermostat", "set_point", 21.5 if occupied else 16.0)

    hvac = Operator("HvacLogic", on_window=hvac_logic)
    for name in ("m1", "m2"):
        hvac.add_sensor(name, GAPLESS, CountWindow(1))
    hvac.add_actuator("thermostat", GAPLESS)

    def intrusion_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "d1"]
        if events and events[-1].value:
            ctx.actuate("siren", "sound", True)

    intrusion = Operator("IntrusionLogic", on_window=intrusion_logic)
    for name in ("d1", "d2"):
        intrusion.add_sensor(name, GAPLESS, CountWindow(1))
    intrusion.add_actuator("siren", GAPLESS)

    def safety_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "s1"]
        if events and events[-1].value:
            ctx.alert("hazard detected")

    safety = Operator("SafetyLogic", on_window=safety_logic)
    for name in ("s1", "s2"):
        safety.add_sensor(name, GAPLESS, CountWindow(1))

    # Not climate_logic: the vent takes one decimal, a2 a whole degree.
    def vent_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("vent", "set", round(float(events[-1].value), 1))

    climate = Operator("DeviceClimateLogic", on_window=vent_logic)
    climate.add_sensor(
        "t1", GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=60.0, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("vent", GAPLESS)

    policies = device_repair_policies() if repair else {}
    return [
        App(name, operator, repair=policies.get(name))
        for name, operator in (("hvac", hvac), ("intrusion", intrusion),
                               ("safety", safety), ("climate", climate))
    ]


def device_scenario(repair: bool) -> Scenario:
    """The device-fault home: push sensors in correlated primary/backup
    pairs per room function, every sensor heard by every process.

    ``repair`` toggles the apps' :class:`RepairPolicy` opt-ins — the only
    difference between the two runs of a device-campaign cell.
    """
    everyone = ("hub", "tv", "fridge")
    kinds = {
        "m1": "motion", "m2": "motion", "d1": "door", "d2": "door",
        "s1": "smoke", "s2": "smoke", "t1": "temperature",
    }
    return Scenario(
        name="device" if repair else "device-norepair",
        processes=everyone,
        sensors={name: (kind, everyone) for name, kind in kinds.items()},
        actuators={"thermostat": ("hub",), "siren": ("tv",), "vent": ("fridge",)},
        make_apps=partial(_device_apps, repair),
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        # The CI smoke home: 3 processes, every sensor keeps a live receiver
        # when the victim dies, one radio-loss episode (both runtimes) and
        # one TCP-loss episode (rt only, through the proxy).
        Scenario(
            name="smoke3",
            processes=("p0", "p1", "p2"),
            sensors={"m1": ("motion", ("p0", "p1")), "d1": ("door", ("p1", "p2"))},
            actuators={"a1": ("p0",)},
            make_apps=_smoke3_apps,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            failure_detection_s=FAILURE_DETECTION_S,
            victim="p2",
            radio_loss=("m1", "p0", 0.25),
            radio_loss_window=(0.2, 0.55),
            proxy_loss=ProxyLossEpisode("p0", "p1", 0.3, 0.25, 0.6),
        ),
        # The oracle-parity home: 4 apps over 3 processes, mixed Gap/Gapless
        # plus a coordinated poll sensor; no faults, both record sources
        # must pass check_all with zero violations.
        Scenario(
            name="parity4",
            processes=("hub", "tv", "fridge"),
            sensors={
                "m1": ("motion", ("hub", "tv")),
                "d1": ("door", ("tv", "fridge")),
                "t1": ("temperature", ("hub", "tv")),
            },
            actuators={"a1": ("hub",), "a2": ("tv",)},
            make_apps=_parity4_apps,
            delivery_override={"d1": "gap"},
            heartbeat_interval=HEARTBEAT_INTERVAL,
            failure_detection_s=FAILURE_DETECTION_S,
        ),
        *(chaos_scenario(mode) for mode in MODES),
        device_scenario(True),
        device_scenario(False),
    )
}


def scenario_named(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (choose from {', '.join(sorted(SCENARIOS))})"
        ) from None
