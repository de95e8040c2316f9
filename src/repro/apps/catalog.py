"""Table 1 as an executable catalog.

Each :class:`AppSpec` carries the paper's Table 1 row (primary function,
sensor type, category, desired delivery type) plus what the benchmark
harness needs to run the app end to end in a small home:

- ``setup(home)`` — declare the devices the app needs and return the app;
- ``script`` — a representative burst of sensor activity, as
  ``(t, sensor, value)`` emissions for :meth:`~repro.core.home.Home.play`
  (empty for poll-based apps, which drive themselves through polling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.elder_care import fall_alert, inactive_alert
from repro.apps.energy import appliance_alert, energy_billing
from repro.apps.hvac import occupancy_hvac, temperature_hvac, user_hvac
from repro.apps.intrusion import intrusion_detection
from repro.apps.lighting import automated_lighting
from repro.apps.safety import air_monitoring, flood_fire_alert, surveillance
from repro.apps.tracking import activity_tracking
from repro.core.delivery import Delivery, GAP, GAPLESS
from repro.core.graph import App
from repro.core.home import Home, Script


@dataclass(frozen=True)
class AppSpec:
    """One Table 1 row, executable."""

    key: str
    application: str
    primary_function: str
    sensor_types: tuple[str, ...]
    category: str
    delivery: Delivery
    setup: Callable[[Home], App]
    script: Script = ()


def _setup_occupancy_hvac(home: Home) -> App:
    home.add_sensor("occ1", kind="occupancy")
    home.add_actuator("thermostat", kind="thermostat")
    return occupancy_hvac("occ1", "thermostat")


def _setup_user_hvac(home: Home) -> App:
    home.add_sensor("cam1", kind="camera")
    home.add_actuator("thermostat", kind="thermostat")
    return user_hvac("cam1", "thermostat")


def _setup_lighting(home: Home) -> App:
    home.add_sensor("occ1", kind="occupancy")
    home.add_sensor("cam1", kind="camera")
    home.add_sensor("mic1", kind="microphone")
    home.add_actuator("light1")
    return automated_lighting(["occ1", "cam1", "mic1"], "light1")


def _setup_appliance_alert(home: Home) -> App:
    home.add_sensor("oven", kind="appliance")
    home.add_sensor("occ1", kind="occupancy")
    return appliance_alert("oven", "occ1", check_interval_s=15.0)


def _setup_activity(home: Home) -> App:
    home.add_sensor("mic1", kind="microphone")
    return activity_tracking("mic1", window_s=10.0)


def _setup_fall_alert(home: Home) -> App:
    home.add_sensor("wearable1", kind="wearable")
    home.add_actuator("siren")
    return fall_alert("wearable1", siren="siren")


def _setup_inactive(home: Home) -> App:
    home.add_sensor("motion1", kind="motion")
    home.add_sensor("door1", kind="door")
    return inactive_alert(["motion1", "door1"], inactivity_window_s=20.0)


def _setup_flood_fire(home: Home) -> App:
    home.add_sensor("water1", kind="water")
    home.add_sensor("smoke1", kind="smoke")
    home.add_actuator("siren")
    return flood_fire_alert(["water1", "smoke1"], siren="siren")


def _setup_intrusion(home: Home) -> App:
    home.add_sensor("door1", kind="door")
    home.add_sensor("door2", kind="door")
    home.add_actuator("siren")
    return intrusion_detection(["door1", "door2"], siren="siren")


def _setup_billing(home: Home) -> App:
    home.add_sensor("power1", kind="energy")
    app, _state = energy_billing("power1", report_interval_s=10.0)
    return app


def _setup_temperature_hvac(home: Home) -> App:
    for i in (1, 2, 3, 4):
        home.add_sensor(f"temp{i}", kind="temperature")
    home.add_actuator("hvac", kind="hvac")
    return temperature_hvac(
        [f"temp{i}" for i in (1, 2, 3, 4)], "hvac",
        epoch_s=2.0, window_s=2.0, threshold=20.0,
    )


def _setup_air(home: Home) -> App:
    home.add_sensor("co2_1", kind="co2")
    return air_monitoring("co2_1", threshold_ppm=400.0, epoch_s=5.0)


def _setup_surveillance(home: Home) -> App:
    home.add_sensor("cam1", kind="camera")
    return surveillance("cam1")


TABLE1: list[AppSpec] = [
    AppSpec("occupancy-hvac", "Occupancy-based HVAC",
            "Set the thermostat set-point based on the occupancy",
            ("occupancy",), "Efficiency", GAP,
            _setup_occupancy_hvac,
            [(1.0, "occ1", True), (5.0, "occ1", True), (9.0, "occ1", False)]),
    AppSpec("user-hvac", "User-based HVAC",
            "Set the thermostat set-point based on the user's clothing level",
            ("camera",), "Efficiency", GAP,
            _setup_user_hvac,
            [(1.0, "cam1", 0.8), (12.0, "cam1", 0.2)]),
    AppSpec("automated-lighting", "Automated lighting",
            "Turn on lights if user is present",
            ("occupancy", "camera", "microphone"), "Convenience", GAP,
            _setup_lighting,
            [(1.0, "occ1", True), (4.0, "occ1", True), (2.0, "mic1", 0.9)]),
    AppSpec("appliance-alert", "Appliance alert",
            "Alert user if appliance is left on while home is unoccupied",
            ("appliance", "energy"), "Efficiency", GAP,
            _setup_appliance_alert,
            [(1.0, "oven", 1800.0), (30.0, "oven", 1750.0),
             (2.0, "occ1", False), (31.0, "occ1", False)]),
    AppSpec("activity-tracking", "Activity tracking",
            "Periodically infer physical activity using microphone frames",
            ("microphone",), "Convenience", GAP,
            _setup_activity,
            [(t, "mic1", 0.8) for t in (1.0, 3.0, 5.0, 7.0)]),
    AppSpec("fall-alert", "Fall alert",
            "Issue alert on a fall-detected event",
            ("wearable",), "Elder care", GAPLESS,
            _setup_fall_alert,
            [(1.0, "wearable1", "walk"), (5.0, "wearable1", "fall")]),
    AppSpec("inactive-alert", "Inactive alert",
            "Issue alert if motion/activity not detected",
            ("motion", "door"), "Elder care", GAPLESS,
            _setup_inactive,
            # ... then silence: the second 20 s window is empty -> alert.
            [(1.0, "motion1", True)]),
    AppSpec("flood-fire-alert", "Flood/fire alert",
            "Issue alert on a water (or fire) detected event",
            ("water", "smoke"), "Safety", GAPLESS,
            _setup_flood_fire,
            [(3.0, "water1", True)]),
    AppSpec("intrusion-detection", "Intrusion-detection",
            "Record image/issue alert on a door/window-open event",
            ("door",), "Safety", GAPLESS,
            _setup_intrusion,
            [(2.0, "door1", True)]),
    AppSpec("energy-billing", "Energy billing",
            "Update energy cost on a power-consumption event",
            ("energy",), "Billing", GAPLESS,
            _setup_billing,
            [(float(t), "power1", 25.0) for t in range(1, 12)]),
    AppSpec("temperature-hvac", "Temperature-based HVAC",
            "Actuate heating/cooling if temperature crosses a threshold",
            ("temperature",), "Efficiency", GAPLESS,
            _setup_temperature_hvac),
    AppSpec("air-monitoring", "Air (or light) monitoring",
            "Issue alert if CO2/CO level surpasses a threshold",
            ("co2",), "Safety", GAPLESS,
            _setup_air),
    AppSpec("surveillance", "Surveillance",
            "Record image if it has an unknown object",
            ("camera",), "Safety", GAPLESS,
            _setup_surveillance,
            [(float(t), "cam1", {"object": "background"}) for t in range(1, 6)]
            + [(6.0, "cam1", {"object": "stranger"})]),
]


def spec_named(key: str) -> AppSpec:
    for spec in TABLE1:
        if spec.key == key:
            return spec
    raise KeyError(f"no Table 1 app named {key!r}")


def build_app(key: str, home: Home) -> App:
    """Declare a catalog app's devices in ``home`` and return the app."""
    return spec_named(key).setup(home)


def run_catalog_app(spec: AppSpec, *, seed: int = 42, duration: float = 45.0) -> Home:
    """Run one Table 1 app end to end in a three-process home."""
    home = Home(seed=seed)
    for process in ("hub", "tv", "fridge"):
        home.add_process(process)
    app = spec.setup(home)
    home.deploy(app)
    home.start()
    home.play(spec.script)
    home.run_until(duration)
    return home
