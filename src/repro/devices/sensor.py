"""Sensors: push-based and poll-based, with crash/recovery.

Push-based sensors "detect, or respond to, physical phenomenon by emitting
events" on their own schedule; poll-based sensors "generate events only in
response to requests" (Section 4). Two behaviours observed on real hardware
are modelled because the evaluation depends on them:

- a crashed sensor "simply reports no events" (Section 3.1);
- "many off-the-shelf sensors only support one outstanding poll request, and
  simply drop the other requests, often silently" (Section 4.1 / Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.events import Event
from repro.devices.battery import (
    EVENT_EMISSION_COST,
    POLL_SERVICE_COST,
    WEAK_LEVEL,
    Battery,
)
from repro.net.radio import RadioNetwork, RadioTechnology
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


class Sensor:
    """Base class: identity, failure state, event construction."""

    def __init__(
        self,
        name: str,
        *,
        scheduler: Scheduler,
        radio: RadioNetwork,
        rng: RandomSource,
        trace: Trace,
        technology: RadioTechnology,
        event_size: int,
        kind: str = "generic",
        battery: Battery | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.technology = technology
        self.event_size = event_size
        self.battery = battery or Battery()
        self._scheduler = scheduler
        self._radio = radio
        self._rng = rng
        self._trace = trace
        self._seq = 0
        self._failed = False
        self._stuck = False
        self._stuck_value: Any = None
        self._drift_rate = 0.0
        self._drift_start = 0.0
        self._brownout_rng: RandomSource | None = None
        self._emit_channel = trace.device_channel("sensor_emit", name)
        radio.register_device(self)

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Battery drain / unplug: the sensor goes silent."""
        self._failed = True
        self._trace.record(self._scheduler.now, "sensor_failed", sensor=self.name)

    def recover(self) -> None:
        self._failed = False
        self._trace.record(self._scheduler.now, "sensor_recovered", sensor=self.name)

    # -- soft device faults (IoTRepair taxonomy) -------------------------------

    @property
    def stuck(self) -> bool:
        return self._stuck

    @property
    def drifting(self) -> bool:
        return self._drift_rate != 0.0

    def stick(self, value: Any) -> None:
        """Stuck-at fault: every reading reports ``value`` until unstuck."""
        self._stuck = True
        self._stuck_value = value
        self._trace.record(self._scheduler.now, "sensor_stuck", sensor=self.name)

    def unstick(self) -> None:
        self._stuck = False
        self._stuck_value = None
        self._trace.record(self._scheduler.now, "sensor_unstuck", sensor=self.name)

    def set_drift(self, rate: float) -> None:
        """Calibration drift: numeric readings gain ``rate * elapsed`` offset."""
        self._drift_rate = rate
        self._drift_start = self._scheduler.now
        self._trace.record(
            self._scheduler.now, "sensor_drift", sensor=self.name, rate=rate
        )

    def clear_drift(self) -> None:
        self._drift_rate = 0.0
        self._trace.record(
            self._scheduler.now, "sensor_drift_cleared", sensor=self.name
        )

    def _apply_faults(self, value: Any) -> Any:
        """Corrupt a reading per the active soft faults (stuck wins)."""
        if self._stuck:
            return self._stuck_value
        if self._drift_rate and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return value + self._drift_rate * (self._scheduler.now - self._drift_start)
        return value

    def _brownout_dropped(self) -> bool:
        """Weak-battery transmission failure. Draws randomness only while the
        battery is actually weak, so fault-free runs never touch the stream
        (child derivation is stateless: creating it lazily is digest-safe)."""
        if not self.battery.weak:
            return False
        if self._brownout_rng is None:
            self._brownout_rng = self._rng.child("brownout")
        drop_p = 1.0 - self.battery.level / WEAK_LEVEL
        return self._brownout_rng.chance(drop_p)

    def _next_event(self, value: Any) -> Event:
        self._seq += 1
        return Event(
            sensor_id=self.name,
            seq=self._seq,
            emitted_at=self._scheduler._now,
            value=value,
            size_bytes=self.event_size,
        )

    @property
    def events_emitted(self) -> int:
        return self._seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self._failed else "ok"
        return f"<{type(self).__name__} {self.name} ({self.kind}, {state})>"


class PushSensor(Sensor):
    """A sensor that proactively multicasts events to all linked processes.

    The emission schedule is pluggable: ``start_periodic`` produces the
    fixed-rate streams used throughout Section 8, ``emit`` lets workload
    generators (occupancy simulation, scripted scenarios) drive it directly.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._periodic_handle = None

    def emit(self, value: Any) -> Event | None:
        """Emit one event now. Returns it, or None if the sensor is down."""
        if self._failed or self.battery.depleted:
            return None
        if self._brownout_dropped():
            # The MCU woke and tried to transmit: energy is spent, no event.
            self.battery.drain(EVENT_EMISSION_COST)
            self._trace.record(
                self._scheduler.now, "sensor_brownout_drop", sensor=self.name
            )
            return None
        event = self._next_event(self._apply_faults(value))
        self.battery.drain(EVENT_EMISSION_COST)
        self._emit_channel.record(self._scheduler._now, event.seq)
        self._radio.emit(self.name, event)
        return event

    def start_periodic(
        self,
        rate_per_s: float,
        value_fn: Callable[[float], Any] | None = None,
        *,
        jitter: float = 0.0,
    ) -> None:
        """Emit at a fixed rate (events/second), optionally jittered."""
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        interval = 1.0 / rate_per_s

        def tick() -> None:
            value = value_fn(self._scheduler.now) if value_fn else self._seq + 1
            self.emit(value)
            delay = interval if jitter == 0 else self._rng.jittered(interval, jitter)
            self._periodic_handle = self._scheduler.call_later(delay, tick)

        self._periodic_handle = self._scheduler.call_later(interval, tick)

    def stop_periodic(self) -> None:
        if self._periodic_handle is not None:
            self._periodic_handle.cancel()
            self._periodic_handle = None


@dataclass
class PollStats:
    """Per-sensor poll accounting for the Fig. 8 benchmark."""

    served: int = 0
    dropped_busy: int = 0
    dropped_failed: int = 0


class PollSensor(Sensor):
    """A sensor that answers poll requests, one at a time.

    ``service_time`` is the paper's "polling period": how long the sensor
    takes to produce a reading (500-600 ms for a Z-Wave temperature sensor,
    4 s for relative humidity, 5 s for UV — Section 8.5). While serving one
    request, concurrent requests are silently dropped.
    """

    def __init__(
        self,
        *args: Any,
        service_time: float = 0.5,
        measure: Callable[[float, RandomSource], Any] | None = None,
        failure_rate: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if service_time <= 0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        self.service_time = service_time
        self.failure_rate = failure_rate
        self._measure = measure or (lambda now, rng: rng.gauss(21.0, 0.5))
        self._busy = False
        self.poll_stats = PollStats()

    @property
    def busy(self) -> bool:
        return self._busy

    def receive_poll(self, respond: Callable[[Event | None], None]) -> None:
        """Serve a poll request, or silently drop it if failed/busy."""
        if self._failed or self.battery.depleted:
            self.poll_stats.dropped_failed += 1
            self._trace.record(
                self._scheduler.now, "poll_dropped_failed", sensor=self.name
            )
            return
        if self._busy:
            self.poll_stats.dropped_busy += 1
            self._trace.record(
                self._scheduler.now, "poll_dropped_busy", sensor=self.name
            )
            return
        self._busy = True
        self.battery.drain(POLL_SERVICE_COST)
        # service_time is the worst-case "polling period" of the data sheet;
        # actual measurements complete a bit earlier.
        duration = self._rng.uniform(0.72, 0.95) * self.service_time
        self._scheduler.call_later(duration, self._finish_poll, respond)

    def _finish_poll(self, respond: Callable[[Event | None], None]) -> None:
        self._busy = False
        if self._failed:
            respond(None)
            return
        if self.failure_rate and self._rng.chance(self.failure_rate):
            # Hardware glitch: the poll completes but no reading comes back.
            self._trace.record(self._scheduler.now, "poll_glitch", sensor=self.name)
            respond(None)
            return
        if self._brownout_dropped():
            self._trace.record(self._scheduler.now, "poll_brownout", sensor=self.name)
            respond(None)
            return
        value = self._apply_faults(self._measure(self._scheduler.now, self._rng))
        event = self._next_event(value)
        self.poll_stats.served += 1
        self._trace.record(
            self._scheduler.now, "poll_served", sensor=self.name, seq=event.seq
        )
        respond(event)
