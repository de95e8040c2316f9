"""Catalog of off-the-shelf sensors (paper Table 3 + Section 8.5).

The paper classifies commodity sensors into *small* (4-8 B events:
temperature, humidity, motion, moisture, door/window, UV, energy, vibration)
and *large* (1-20 KB: IP camera frames, microphone sample batches). Poll
service times for the Z-Wave sensors of Section 8.5 are included verbatim:
temperature 600 ms, luminance 600 ms, relative humidity 4 s, UV 5 s.

:func:`make_sensor` turns a catalog entry into a live simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.devices.sensor import PollSensor, PushSensor, Sensor
from repro.net import radio as radio_module
from repro.net.radio import RadioNetwork, RadioTechnology
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one commodity sensor model."""

    kind: str
    mode: str  # "push" | "poll"
    event_size: int
    technology: str
    size_class: str  # "small" | "large" (Table 3)
    max_rate_per_s: float = 10.0
    service_time: float | None = None  # poll sensors only
    default_epoch: float | None = None  # app-requested epoch (Section 8.5)
    measure: Callable[[float, RandomSource], Any] | None = None


def _temperature(now: float, rng: RandomSource) -> float:
    return round(21.0 + rng.gauss(0.0, 0.4), 2)


def _humidity(now: float, rng: RandomSource) -> float:
    return round(45.0 + rng.gauss(0.0, 2.0), 1)


def _luminance(now: float, rng: RandomSource) -> float:
    return max(0.0, round(300.0 + rng.gauss(0.0, 40.0), 0))


def _uv(now: float, rng: RandomSource) -> float:
    return max(0.0, round(2.0 + rng.gauss(0.0, 0.5), 1))


def _co2(now: float, rng: RandomSource) -> float:
    return max(350.0, round(450.0 + rng.gauss(0.0, 30.0), 0))


SENSOR_CATALOG: dict[str, SensorSpec] = {
    # -- small, push-based ------------------------------------------------------
    "motion": SensorSpec("motion", "push", 4, "zwave", "small"),
    "door": SensorSpec("door", "push", 4, "zwave", "small"),
    "moisture": SensorSpec("moisture", "push", 4, "zwave", "small"),
    "vibration": SensorSpec("vibration", "push", 4, "zwave", "small"),
    "smoke": SensorSpec("smoke", "push", 4, "zigbee", "small"),
    "water": SensorSpec("water", "push", 4, "zwave", "small"),
    "occupancy": SensorSpec("occupancy", "push", 4, "zigbee", "small"),
    "energy": SensorSpec("energy", "push", 8, "zwave", "small"),
    "wearable": SensorSpec("wearable", "push", 8, "ble", "small"),
    "appliance": SensorSpec("appliance", "push", 8, "zwave", "small"),
    # -- small, poll-based (Section 8.5 service times / epochs) ------------------
    "temperature": SensorSpec(
        "temperature", "poll", 4, "zwave", "small",
        service_time=0.6, default_epoch=1.8, measure=_temperature,
    ),
    "luminance": SensorSpec(
        "luminance", "poll", 4, "zwave", "small",
        service_time=0.6, default_epoch=1.8, measure=_luminance,
    ),
    "humidity": SensorSpec(
        "humidity", "poll", 4, "zwave", "small",
        service_time=4.0, default_epoch=12.0, measure=_humidity,
    ),
    "uv": SensorSpec(
        "uv", "poll", 4, "zwave", "small",
        service_time=5.0, default_epoch=15.0, measure=_uv,
    ),
    "co2": SensorSpec(
        "co2", "poll", 4, "zigbee", "small",
        service_time=1.0, default_epoch=10.0, measure=_co2,
    ),
    # -- smartphone-based (Section 7: Android Sensor Manager) --------------------
    "accelerometer": SensorSpec("accelerometer", "push", 8, "ip", "small",
                                max_rate_per_s=10.0),
    "gps": SensorSpec("gps", "push", 8, "ip", "small", max_rate_per_s=1.0),
    # -- large ---------------------------------------------------------------------
    "microphone": SensorSpec("microphone", "push", 1024, "ip", "large"),
    "camera": SensorSpec("camera", "push", 16_384, "ip", "large", max_rate_per_s=10.0),
}


def technology_named(name: str) -> RadioTechnology:
    try:
        return radio_module.TECHNOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown radio technology {name!r}; known: {sorted(radio_module.TECHNOLOGIES)}"
        ) from None


def sensor_spec(kind: str) -> SensorSpec:
    try:
        return SENSOR_CATALOG[kind]
    except KeyError:
        raise KeyError(
            f"unknown sensor kind {kind!r}; known: {sorted(SENSOR_CATALOG)}"
        ) from None


def make_sensor(
    kind: str,
    name: str,
    *,
    scheduler: Scheduler,
    radio: RadioNetwork,
    rng: RandomSource,
    trace: Trace,
    event_size: int | None = None,
    technology: str | None = None,
    service_time: float | None = None,
    failure_rate: float = 0.0,
) -> Sensor:
    """Instantiate a catalog sensor, optionally overriding its defaults."""
    spec = sensor_spec(kind)
    tech = technology_named(technology or spec.technology)
    size = spec.event_size if event_size is None else event_size
    common = dict(
        scheduler=scheduler, radio=radio, rng=rng.child(f"sensor/{name}"),
        trace=trace, technology=tech, event_size=size, kind=spec.kind,
    )
    if spec.kind == "camera":
        from repro.devices.camera import VideoCamera

        return VideoCamera(name, fps=spec.max_rate_per_s,
                           base_frame_bytes=size, **common)
    if spec.mode == "push":
        return PushSensor(name, **common)
    return PollSensor(
        name,
        service_time=spec.service_time if service_time is None else service_time,
        measure=spec.measure,
        failure_rate=failure_rate,
        **common,
    )
