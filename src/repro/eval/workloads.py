"""Workload and scenario builders for the evaluation.

Two families:

- :func:`single_sensor_home` — the Section 8.2-8.4 microbenchmark scenario:
  one IP-based software sensor (the paper built exactly this to control
  which processes receive events and at what loss rate), n processes, an
  actuator pinning the application-bearing process to ``p0``.

- :class:`OccupancyWorkload` + :func:`home_deployment` — the Fig. 1 study:
  a 15-day home deployment of four motion and two door Z-Wave sensors
  multicasting to three processes, with per-link loss asymmetries from
  obstructions.

- :func:`fleet_deployment` — N copies of the Fig. 1 home interleaved in
  one scheduler (a :class:`~repro.core.fleet.Fleet`), each with a
  per-home occupancy phase offset so the fleet's residents don't move in
  lock-step. Per-home behaviour is a pure function of the derived
  ``(fleet seed, home_id)`` seed, which is what makes sharded fleet runs
  byte-identical to monolithic ones (see repro.eval.fleet).
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.delivery import Delivery, GAPLESS
from repro.core.fleet import Fleet, default_id_format
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.devices.sensor import PushSensor
from repro.sim.random import RandomSource

DAY_S = 86_400.0

#: Stable sort key for emission plans: time only, so equal-instant
#: emissions keep the order they were drawn in.
_BY_TIME = operator.itemgetter(0)


def noop_app(
    sensor: str, guarantee: Delivery, actuator: str = "a1", name: str = "app"
) -> App:
    """A minimal single-operator app consuming one sensor."""
    operator = Operator("L", on_window=lambda ctx, combined: None)
    operator.add_sensor(sensor, guarantee, CountWindow(1))
    operator.add_actuator(actuator, guarantee)
    return App(name, operator)


def single_sensor_home(
    *,
    n_processes: int,
    receiving: list[str] | int,
    guarantee: Delivery = GAPLESS,
    delivery_mode: str | None = None,
    event_size: int = 4,
    loss_rate: float = 0.0,
    seed: int = 42,
    keep_trace_kinds: set[str] | None = None,
) -> tuple[Home, PushSensor]:
    """The microbenchmark home: processes p0..p{n-1}, one software sensor.

    ``p0`` hosts the only actuator, which makes it the application-bearing
    process (placement scores: p0 = 1 actuator [+1 if receiving], others
    at most 1). ``receiving`` selects which processes have a direct link to
    the sensor — pass ``["p1"]`` for the farthest-from-bearer placement of
    Fig. 4a (ring distance n-1 from p1 to p0) or ``["p0"]`` for Fig. 4b.
    An integer m links ``p1..pm`` (wrapping to include p0 when m = n, the
    all-receive configuration of Figs. 5-7).
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    names = [f"p{i}" for i in range(n_processes)]
    if isinstance(receiving, int):
        if not 1 <= receiving <= n_processes:
            raise ValueError(f"receiving count {receiving} out of range")
        receiving = [names[(1 + i) % n_processes] for i in range(receiving)]
    for name in receiving:
        if name not in names:
            raise ValueError(f"unknown receiving process {name!r}")

    config = HomeConfig(seed=seed, keep_trace_kinds=keep_trace_kinds)
    if delivery_mode is not None:
        config.delivery_override = {"s1": delivery_mode}
    home = Home(config)
    for name in names:
        home.add_process(name, adapters=("ip", "zwave"))
    home.add_sensor(
        "s1", kind="door", technology="ip", event_size=event_size,
        processes=list(receiving), loss_rate=loss_rate,
    )
    # Two actuators on p0 give it the top placement score regardless of
    # which processes receive the sensor: the app always lands on p0.
    home.add_actuator("a1", processes=["p0"], technology="zwave")
    home.add_actuator("a2", processes=["p0"], technology="zwave")
    app = noop_app("s1", guarantee)
    app.operators[0].add_actuator("a2", guarantee)
    home.deploy(app)
    home.start()
    sensor = home.sensor("s1")
    assert isinstance(sensor, PushSensor)
    return home, sensor


# -- the Fig. 1 fifteen-day deployment ----------------------------------------------------------


@dataclass
class OccupancyConfig:
    """Daily-rhythm parameters for the synthetic residents."""

    days: float = 15.0
    wake_hour: float = 6.5
    leave_hour: float = 8.5
    return_hour: float = 17.5
    sleep_hour: float = 23.0
    hour_jitter: float = 0.75
    burst_interval_s: float = 300.0
    """Mean seconds between movement bursts while someone is home/awake."""

    burst_events: tuple[int, int] = (3, 10)
    burst_spacing_s: tuple[float, float] = (0.8, 2.5)
    door_transitions_per_day: tuple[int, int] = (18, 30)
    door_events_per_transition: tuple[int, int] = (12, 24)
    """Commodity door sensors are chatty: open, close, and retriggers."""


class _EmissionDriver:
    """Walks a sorted emission plan with a single re-arming scheduler entry.

    Replaces one pre-scheduled closure + ``TimerHandle`` per emission
    (~0.5 MB per home-day of handles, closures and heap floats) with one
    ``array('d')`` of timestamps, one sensor list and one in-flight
    ``post_at`` entry — the per-home fleet footprint drops to a few KB
    while emission times, and therefore every trace record and digest,
    stay bit-identical.
    """

    __slots__ = ("scheduler", "times", "sensors", "idx")

    def __init__(self, scheduler, times, sensors) -> None:
        self.scheduler = scheduler
        self.times = times
        self.sensors = sensors
        self.idx = 0

    def __call__(self) -> None:
        i = self.idx
        sensor = self.sensors[i]
        i += 1
        self.idx = i
        # Re-arm *before* emitting: if the emission itself advances the
        # simulation's view of this instant, the next plan entry is already
        # queued (equal-timestamp entries join the current drain batch).
        if i < len(self.times):
            self.scheduler.post_at(self.times[i], self)
        else:
            self.sensors = ()  # release sensor refs once the plan is done
        sensor.emit(True)


@dataclass
class OccupancyWorkload:
    """Synthetic residents driving motion and door sensors over days.

    All emission times are drawn up front from a dedicated random stream,
    so the workload is reproducible and independent of the platform's own
    randomness. The draws are staged into a time-sorted plan executed by a
    single :class:`_EmissionDriver` rather than scheduled individually —
    same emission instants (the scheduler would have sorted them anyway;
    the sort is stable so equal instants keep draw order), two scheduler
    entries per emission fewer, and O(1) live scheduler state per home.
    """

    home: Home
    motion_sensors: list[str]
    door_sensors: list[str]
    rng: RandomSource
    config: OccupancyConfig = field(default_factory=OccupancyConfig)

    def schedule(self) -> int:
        """Schedule every emission; returns the number of scheduled events."""
        self._pending: list[tuple[float, PushSensor]] = []
        self._sensor_cache: dict[str, PushSensor] = {}
        scheduled = 0
        for day in range(int(self.config.days)):
            scheduled += self._schedule_day(day)
        pending = self._pending
        del self._pending, self._sensor_cache
        pending.sort(key=_BY_TIME)
        if pending:
            times = array("d", [p[0] for p in pending])
            sensors = [p[1] for p in pending]
            driver = _EmissionDriver(self.home.scheduler, times, sensors)
            self.home.scheduler.post_at(times[0], driver)
        return scheduled

    def _hour(self, base: float) -> float:
        return base + self.rng.uniform(-self.config.hour_jitter,
                                       self.config.hour_jitter)

    def _schedule_day(self, day: int) -> int:
        cfg = self.config
        day_start = day * DAY_S
        wake = day_start + self._hour(cfg.wake_hour) * 3600.0
        leave = day_start + self._hour(cfg.leave_hour) * 3600.0
        back = day_start + self._hour(cfg.return_hour) * 3600.0
        sleep = day_start + self._hour(cfg.sleep_hour) * 3600.0
        scheduled = 0
        for start, end in ((wake, leave), (back, sleep)):
            scheduled += self._schedule_motion(start, end)
        scheduled += self._schedule_doors(day_start, wake, leave, back, sleep)
        return scheduled

    def _schedule_motion(self, start: float, end: float) -> int:
        cfg = self.config
        scheduled = 0
        t = start + self.rng.expovariate(1.0 / cfg.burst_interval_s)
        while t < end:
            sensor = self.rng.choice(self.motion_sensors)
            count = self.rng.randint(*cfg.burst_events)
            at = t
            for _ in range(count):
                self._emit_at(at, sensor)
                scheduled += 1
                at += self.rng.uniform(*cfg.burst_spacing_s)
            t += self.rng.expovariate(1.0 / cfg.burst_interval_s)
        return scheduled

    def _schedule_doors(
        self, day_start: float, wake: float, leave: float, back: float, sleep: float
    ) -> int:
        cfg = self.config
        transitions = self.rng.randint(*cfg.door_transitions_per_day)
        scheduled = 0
        for _ in range(transitions):
            # Most door traffic happens around leave/return, the rest while
            # someone is home and awake.
            anchor = self.rng.weighted_choice(
                [(leave, 0.3), (back, 0.3), (self.rng.uniform(wake, sleep), 0.4)]
            )
            at = anchor + self.rng.uniform(-900.0, 900.0)
            at = max(day_start, at)
            # The front door (first in the list) sees most of the traffic.
            weights = [(d, 4.0 if i == 0 else 1.0)
                       for i, d in enumerate(self.door_sensors)]
            door = self.rng.weighted_choice(weights)
            for _ in range(self.rng.randint(*cfg.door_events_per_transition)):
                self._emit_at(at, door)
                scheduled += 1
                at += self.rng.uniform(0.4, 3.0)
        return scheduled

    def _emit_at(self, at: float, sensor_name: str) -> None:
        sensor = self._sensor_cache.get(sensor_name)
        if sensor is None:
            sensor = self.home.sensor(sensor_name)
            assert isinstance(sensor, PushSensor)
            self._sensor_cache[sensor_name] = sensor
        self._pending.append((at, sensor))


FIG1_LINK_LOSS: dict[tuple[str, str], float] = {
    # The front door sensor sits behind a concrete-slab wall relative to
    # the hub: heavy asymmetric loss, the source of Fig. 1's 2357-event gap.
    ("door1", "hub"): 0.50,
    ("door1", "tv"): 0.004,
    ("door1", "fridge"): 0.009,
    ("door2", "hub"): 0.006,
    ("door2", "tv"): 0.012,
    ("door2", "fridge"): 0.003,
    # Motion sensors see mild, room-dependent interference.
    ("motion1", "hub"): 0.025,
    ("motion1", "tv"): 0.002,
    ("motion1", "fridge"): 0.004,
    ("motion2", "hub"): 0.003,
    ("motion2", "tv"): 0.005,
    ("motion2", "fridge"): 0.002,
    ("motion3", "hub"): 0.011,
    ("motion3", "tv"): 0.001,
    ("motion3", "fridge"): 0.003,
    ("motion4", "hub"): 0.002,
    ("motion4", "tv"): 0.003,
    ("motion4", "fridge"): 0.005,
}


def _fig1_config(seed: int, **fields: Any) -> HomeConfig:
    """The Fig. 1 home's stack: heartbeats slowed to one per minute so
    days stay cheap to simulate (no failures are injected), hourly kv sync
    (no app state in this study), and no record kept — stream counts only."""
    return HomeConfig(
        seed=seed, heartbeat_interval=60.0, failure_detection_s=180.0,
        kv_sync_interval=3600.0, keep_trace_kinds=set(), **fields,
    )


def _fig1_workload(home: Home, seed: int, occupancy: OccupancyConfig) -> OccupancyWorkload:
    """Declare the Fig. 1 topology on ``home``; returns its residents' routine."""
    for name in ("hub", "tv", "fridge"):
        home.add_process(name, adapters=("zwave", "zigbee", "ip"))
    motion = [f"motion{i}" for i in range(1, 5)]
    doors = ["door1", "door2"]
    for name in motion:
        home.add_sensor(name, kind="motion")
    for name in doors:
        home.add_sensor(name, kind="door")
    return OccupancyWorkload(
        home=home, motion_sensors=motion, door_sensors=doors,
        rng=RandomSource(seed).child("occupancy"), config=occupancy,
    )


def _set_fig1_link_loss(home: Home) -> None:
    for (sensor, process), loss in FIG1_LINK_LOSS.items():
        home.set_link_loss(sensor, process, loss)


def home_deployment(
    *, seed: int = 42, days: float = 15.0
) -> tuple[Home, OccupancyWorkload]:
    """The Fig. 1 study home: 3 processes, 4 motion + 2 door Z-Wave sensors.

    No application is deployed — the study measures raw reception skew.
    """
    home = Home(_fig1_config(seed))
    workload = _fig1_workload(home, seed, OccupancyConfig(days=days))
    home.start()
    _set_fig1_link_loss(home)
    return home, workload


# -- the fleet deployment ------------------------------------------------------------

#: Per-home occupancy phase offsets are drawn uniformly from +/- this many
#: hours, so a fleet's residents wake/leave/return/sleep out of step.
FLEET_PHASE_JITTER_H = 2.0


def fleet_home_ids(n_homes: int) -> list[str]:
    """``h000 .. h{n-1}``: zero-padded so lexicographic == numeric order.

    The pad width follows :func:`repro.core.fleet.default_id_format` —
    three digits up to 1000 homes (the historical ids), wider beyond, so
    ``h1000`` never sorts between ``h100`` and ``h101``.
    """
    id_format = default_id_format(n_homes)
    return [id_format.format(index=i) for i in range(n_homes)]


def fleet_deployment(
    *,
    homes: int | None = None,
    home_ids: list[str] | None = None,
    seed: int = 42,
    days: float = 1.0,
) -> tuple[Fleet, dict[str, OccupancyWorkload]]:
    """N Fig. 1 homes interleaved in one scheduler, phases offset per home.

    Pass either a count (``homes=50`` builds ``h000..h049``) or an explicit
    ``home_ids`` subset — the latter is how sharded fleet cells build only
    their slice while reproducing exactly the homes a monolithic run would
    (every per-home quantity derives from ``(fleet seed, home_id)`` alone:
    the seed, the occupancy stream, and the phase offset drawn from the
    home's own ``phase`` stream).

    Traces are aggregate-only (``keep_trace_kinds=set()``) with a streaming
    digest, so 50-home × multi-day runs stay memory-bounded while per-home
    digests remain comparable across shardings.
    """
    if home_ids is None:
        if homes is None or homes < 1:
            raise ValueError(f"need a positive home count, got {homes!r}")
        home_ids = fleet_home_ids(homes)
    if not home_ids:
        raise ValueError("need at least one home_id")

    fleet = Fleet(seed=seed)
    workloads: dict[str, OccupancyWorkload] = {}
    for home_id in home_ids:
        home_seed = fleet.home_seed(home_id)
        home = fleet.add_home(home_id, config=_fig1_config(home_seed, trace_digest=True))
        offset = RandomSource(home_seed).child("phase").uniform(
            -FLEET_PHASE_JITTER_H, FLEET_PHASE_JITTER_H
        )
        base = OccupancyConfig(days=days)
        workloads[home_id] = _fig1_workload(home, home_seed, replace(
            base,
            wake_hour=base.wake_hour + offset,
            leave_hour=base.leave_hour + offset,
            return_hour=base.return_hour + offset,
            sleep_hour=base.sleep_hour + offset,
        ))

    fleet.start()
    for home_id in home_ids:
        _set_fig1_link_loss(fleet.home(home_id))
        workloads[home_id].schedule()
    return fleet, workloads
