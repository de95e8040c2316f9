"""Silent-sensor failure detection (extension; paper related work [44, 52]).

The platform's fault model can *detect* a missing epoch for poll-based
sensors, but a dead push-based sensor is indistinguishable from a quiet
one. The paper points at FailureSense/Idea-style detection as complementary
work; this module implements the rate-model variant:

- for every push-based sensor, track an exponentially weighted moving
  average (EWMA) of its inter-arrival times as events are seen locally;
- once enough samples exist, a silence longer than
  ``silence_factor x EWMA + slack`` raises a ``sensor_suspected`` trace
  event (and notifies listeners); the suspicion clears when the sensor is
  heard again.

The watch observes the delivery instances' seen-event streams, so under
Gapless it sees every event any process ingested — a sensor is only
suspected when the *whole home* stopped hearing it, not when one link is
lossy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryService, DeviceInfo
    from repro.core.env import RuntimeEnv
    from repro.core.plan import DeploymentPlan

SuspicionListener = Callable[[str, bool], None]


@dataclass
class _SensorModel:
    last_seen: float
    ewma_gap: float | None = None
    samples: int = 0
    suspected: bool = False

    def observe(self, now: float, alpha: float) -> None:
        gap = now - self.last_seen
        self.last_seen = now
        self.samples += 1
        if self.ewma_gap is None:
            self.ewma_gap = gap
        else:
            self.ewma_gap = (1 - alpha) * self.ewma_gap + alpha * gap


class SensorWatch:
    """Per-process silent-failure detector for push-based sensors."""

    def __init__(
        self,
        env: "RuntimeEnv",
        plan: "DeploymentPlan",
        device_info: dict[str, "DeviceInfo"],
        delivery: "DeliveryService",
        *,
        check_interval: float = 5.0,
        min_samples: int = 5,
        silence_factor: float = 6.0,
        slack_s: float = 2.0,
        ewma_alpha: float = 0.2,
    ) -> None:
        self._env = env
        self._plan = plan
        self._device_info = device_info
        self._delivery = delivery
        self.check_interval = check_interval
        self.min_samples = min_samples
        self.silence_factor = silence_factor
        self.slack_s = slack_s
        self.ewma_alpha = ewma_alpha
        self._models: dict[str, _SensorModel] = {}
        self._listeners: list[SuspicionListener] = []

    def start(self) -> None:
        for sensor, instance in self._delivery.instances.items():
            info = self._device_info.get(sensor)
            if info is None or info.mode != "push":
                continue  # poll sensors already have epoch-gap detection
            instance.add_seen_listener(self._make_observer(sensor))
        self._env.defer(self.check_interval, self._check)

    def add_listener(self, listener: SuspicionListener) -> None:
        """``listener(sensor, suspected)`` on every suspicion transition."""
        self._listeners.append(listener)

    def suspected_sensors(self) -> list[str]:
        return sorted(s for s, m in self._models.items() if m.suspected)

    def expected_gap(self, sensor: str) -> float | None:
        model = self._models.get(sensor)
        return model.ewma_gap if model else None

    # -- internals ---------------------------------------------------------------

    def _make_observer(self, sensor: str) -> Callable[[Event], None]:
        def observe(event: Event) -> None:
            now = self._env.now()
            model = self._models.get(sensor)
            if model is None:
                self._models[sensor] = _SensorModel(last_seen=now)
                return
            model.observe(now, self.ewma_alpha)
            if model.suspected:
                model.suspected = False
                self._env.trace("sensor_unsuspected", sensor=sensor)
                self._notify(sensor, False)

        return observe

    def _check(self) -> None:
        now = self._env.now()
        for sensor, model in self._models.items():
            if model.suspected or model.samples < self.min_samples:
                continue
            if model.ewma_gap is None:
                continue
            threshold = self.silence_factor * model.ewma_gap + self.slack_s
            silence = now - model.last_seen
            if silence > threshold:
                model.suspected = True
                self._env.trace(
                    "sensor_suspected", sensor=sensor,
                    silence=round(silence, 3),
                    expected_gap=round(model.ewma_gap, 3),
                )
                self._notify(sensor, True)
        self._env.defer(self.check_interval, self._check)

    def _notify(self, sensor: str, suspected: bool) -> None:
        for listener in self._listeners:
            listener(sensor, suspected)
