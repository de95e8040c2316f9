"""Randomized fault schedules and failing-plan shrinking.

:class:`FaultScheduleGenerator` samples random-but-*valid*
:class:`~repro.sim.faults.FaultPlan`s from a :class:`FaultDomain` (what can
break) and an :class:`IntensityProfile` (how often and for how long).
Validity is structural: crashes pair with recoveries, at most one partition
is open at a time, at least one process always stays up, link-loss ramps
restore the base rate — so any generated plan replays without
:class:`~repro.sim.faults.FaultError` and any run ends with the home whole
again (the campaign runner still performs a guarded cleanup at the end of
the fault window as a belt-and-braces measure).

:func:`shrink` is greedy delta debugging (ddmin) over a failing plan's
actions: it searches for a small sub-plan that still makes the caller's
``is_failing`` predicate true. Sub-plans preserve the relative order of the
surviving actions, and :meth:`FaultPlan.apply`'s explicit ``(at, insertion
index)`` ordering makes the minimized reproducer replay identically.

All sampling draws from named :class:`~repro.sim.random.RandomSource`
streams, so a (seed, domain, profile, horizon) tuple always yields the same
plan — campaigns are replayable by seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.sim.faults import PAIRED_KINDS, FaultAction, FaultPlan
from repro.sim.random import RandomSource

_HOUR = 3600.0

#: The fault window as fractions of the horizon: no faults before warm-up
#: finishes, none after the cleanup point so every run ends healed.
FAULT_WINDOW = (0.05, 0.65)


@dataclass(frozen=True)
class IntensityProfile:
    """How hard the campaign leans on the home (rates are per hour)."""

    name: str
    crash_rate: float
    """Process crash arrivals per hour."""

    partition_rate: float
    """Network partition arrivals per hour (one open at a time)."""

    device_fail_rate: float
    """Sensor/actuator outage arrivals per hour (shared across devices)."""

    link_ramp_rate: float
    """Link-loss ramp arrivals per hour."""

    mean_downtime_s: float = 60.0
    """Mean process downtime (exponential)."""

    mean_partition_s: float = 45.0
    """Mean partition duration (exponential)."""

    mean_outage_s: float = 90.0
    """Mean device outage duration (exponential)."""

    mean_ramp_s: float = 120.0
    """Mean duration of a link-loss ramp (exponential)."""

    max_link_loss: float = 0.6
    """Upper bound for a ramped loss rate."""

    # -- soft device faults (IoTRepair taxonomy; all default 0 so the
    #    historical profiles and their plan digests are untouched) ---------

    stick_rate: float = 0.0
    """Stuck-at sensor episode arrivals per hour (shared across sensors)."""

    drift_rate: float = 0.0
    """Calibration-drift episode arrivals per hour (numeric sensors)."""

    flap_rate: float = 0.0
    """Link-flapping episode arrivals per hour."""

    ghost_rate: float = 0.0
    """Ghost-event episode arrivals per hour (binary push sensors)."""

    brownout_rate: float = 0.0
    """Battery-brownout episode arrivals per hour."""

    mean_device_fault_s: float = 300.0
    """Mean soft-device-fault episode duration (exponential)."""

    max_drift_per_s: float = 0.05
    """Upper bound for the absolute drift rate (units/second)."""

    ghost_events_per_hour: float = 40.0
    """Spurious emission rate while a ghost episode is active."""


PROFILES: dict[str, IntensityProfile] = {
    "mild": IntensityProfile(
        name="mild", crash_rate=4.0, partition_rate=2.0,
        device_fail_rate=4.0, link_ramp_rate=4.0,
        mean_downtime_s=40.0, mean_partition_s=30.0,
        mean_outage_s=60.0, mean_ramp_s=90.0, max_link_loss=0.4,
    ),
    "moderate": IntensityProfile(
        name="moderate", crash_rate=12.0, partition_rate=6.0,
        device_fail_rate=10.0, link_ramp_rate=10.0,
        mean_downtime_s=60.0, mean_partition_s=45.0,
        mean_outage_s=90.0, mean_ramp_s=120.0, max_link_loss=0.6,
    ),
    "severe": IntensityProfile(
        name="severe", crash_rate=30.0, partition_rate=15.0,
        device_fail_rate=24.0, link_ramp_rate=24.0,
        mean_downtime_s=90.0, mean_partition_s=60.0,
        mean_outage_s=120.0, mean_ramp_s=180.0, max_link_loss=0.8,
    ),
    # Soft device faults mixed with moderate infrastructure chaos. Hard
    # device outages (device_fail_rate) stay at 0 here: a sensor that is
    # simply *gone* is unfixable at the app level, and this profile exists
    # to measure what repair policies can and cannot absorb.
    "device": IntensityProfile(
        name="device", crash_rate=6.0, partition_rate=3.0,
        device_fail_rate=0.0, link_ramp_rate=6.0,
        mean_downtime_s=45.0, mean_partition_s=30.0,
        mean_ramp_s=90.0, max_link_loss=0.4,
        stick_rate=10.0, drift_rate=6.0, flap_rate=8.0,
        ghost_rate=6.0, brownout_rate=4.0,
        mean_device_fault_s=300.0, max_drift_per_s=0.05,
        ghost_events_per_hour=40.0,
    ),
}


@dataclass
class FaultDomain:
    """What the generator is allowed to break."""

    processes: Sequence[str]
    sensors: Sequence[str] = ()
    actuators: Sequence[str] = ()
    links: Sequence[tuple[str, str]] = ()
    """(device, process) pairs whose loss rate may be ramped."""

    base_loss: dict[tuple[str, str], float] = field(default_factory=dict)
    """Loss rate a ramped link is restored to (default 0)."""

    # -- soft device-fault targets (all optional) --------------------------

    binary_sensors: Sequence[str] = ()
    """Push sensors with boolean readings: stick / flap / ghost targets."""

    numeric_sensors: Sequence[str] = ()
    """Sensors with numeric readings: stick / drift / flap targets."""

    battery_sensors: Sequence[str] = ()
    """Battery-powered sensors: brownout targets."""

    correlated: Sequence[tuple[str, ...]] = ()
    """Groups of mutually correlated sensors (a primary and its backups).
    At most one member of a group carries a soft fault at a time —
    devices fail independently, and faulting a primary together with
    every sensor that could repair it models a different (unfixable)
    failure class."""


#: A soft-fault episode category -> the kind that starts it; the kind that
#: clears it is ``PAIRED_KINDS[start]``.
_EPISODE_START: dict[str, str] = {
    "stick": "stick_sensor",
    "drift": "drift_sensor",
    "flap": "flap_link",
    "ghost": "ghost_events",
    "brownout": "brownout",
}


class FaultScheduleGenerator:
    """Samples valid fault plans, deterministically per seed."""

    def __init__(
        self, domain: FaultDomain, profile: IntensityProfile, horizon: float
    ) -> None:
        """A plan names the domain's processes and devices as they are.

        A fleet tenant's independent schedule is
        ``generate(fleet.home_seed(home_id))`` applied to
        ``fleet.home(home_id)``: the per-home seed, not a scoped name,
        keeps tenants apart.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if len(domain.processes) < 1:
            raise ValueError("the fault domain needs at least one process")
        self.domain = domain
        self.profile = profile
        self.horizon = horizon
        self.window = (horizon * FAULT_WINDOW[0], horizon * FAULT_WINDOW[1])

    # -- sampling ---------------------------------------------------------------

    def _arrivals(self, rng, rate_per_hour: float) -> list[float]:
        """Poisson arrival times inside the fault window."""
        if rate_per_hour <= 0:
            return []
        start, end = self.window
        times: list[float] = []
        t = start
        while True:
            t += rng.expovariate(rate_per_hour / _HOUR)
            if t >= end:
                return times
            times.append(t)

    def generate(self, seed: int) -> FaultPlan:
        """One random-but-valid plan; the same seed yields the same plan."""
        source = RandomSource(seed).child("chaos")
        arrivals: list[tuple[float, str]] = []
        for category, rate in (
            ("crash", self.profile.crash_rate),
            ("partition", self.profile.partition_rate),
            ("device", self.profile.device_fail_rate),
            ("link", self.profile.link_ramp_rate),
        ):
            rng = source.child(category)
            arrivals.extend((t, category) for t in self._arrivals(rng, rate))
        arrivals.sort()  # (time, category) — unique times w.p. 1, still total

        draw = source.child("choices")
        plan = FaultPlan()
        end = self.window[1]
        down_until: dict[str, float] = {}
        device_down_until: dict[str, float] = {}
        partitioned_until = 0.0

        def up_processes(now: float) -> list[str]:
            return [p for p in self.domain.processes
                    if down_until.get(p, 0.0) <= now]

        for t, category in arrivals:
            if category == "crash":
                up = up_processes(t)
                if len(up) < 2:
                    continue  # keep at least one process up
                victim = draw.choice(up)
                back = min(t + draw.expovariate(
                    1.0 / self.profile.mean_downtime_s), end)
                if back <= t:
                    continue
                plan.crash(victim, at=t)
                plan.recover(victim, at=back)
                down_until[victim] = back
            elif category == "partition":
                if t < partitioned_until or len(self.domain.processes) < 2:
                    continue  # one partition at a time
                names = list(self.domain.processes)
                draw.shuffle(names)
                cut = draw.randint(1, len(names) - 1)
                heal_at = min(t + draw.expovariate(
                    1.0 / self.profile.mean_partition_s), end)
                if heal_at <= t:
                    continue
                plan.partition([names[:cut], names[cut:]], at=t)
                plan.heal(at=heal_at)
                partitioned_until = heal_at
            elif category == "device":
                devices = list(self.domain.sensors) + list(self.domain.actuators)
                candidates = [d for d in devices
                              if device_down_until.get(d, 0.0) <= t]
                if not candidates:
                    continue
                device = draw.choice(candidates)
                back = min(t + draw.expovariate(
                    1.0 / self.profile.mean_outage_s), end)
                if back <= t:
                    continue
                if device in self.domain.sensors:
                    plan.fail_sensor(device, at=t)
                    plan.recover_sensor(device, at=back)
                else:
                    plan.fail_actuator(device, at=t)
                    plan.recover_actuator(device, at=back)
                device_down_until[device] = back
            else:  # link-loss ramp
                if not self.domain.links:
                    continue
                device, process = draw.choice(list(self.domain.links))
                loss = draw.uniform(0.1, self.profile.max_link_loss)
                restore_at = min(t + draw.expovariate(
                    1.0 / self.profile.mean_ramp_s), end)
                if restore_at <= t:
                    continue
                base = self.domain.base_loss.get((device, process), 0.0)
                plan.set_link_loss(device, process, round(loss, 3), at=t)
                plan.set_link_loss(device, process, base, at=restore_at)
        self._add_device_episodes(plan, source, device_down_until)
        return plan

    # -- soft device-fault episodes ------------------------------------------------

    def _add_device_episodes(
        self,
        plan: FaultPlan,
        source: RandomSource,
        device_down_until: dict[str, float],
    ) -> None:
        """Sample paired soft-fault episodes from per-device streams.

        Every eligible device gets its own ``chaos/<device>/<category>``
        stream (the per-home category rate is split evenly across the
        devices), and *all* episode parameters are drawn at collection
        time — conflict filtering afterwards cannot perturb another
        device's draw sequence. Structural validity: episodes never
        overlap on one device (stick/clear stay paired, one brownout per
        battery before its replacement) and never overlap within a
        correlated group (so a primary's backup stays healthy — see
        :attr:`FaultDomain.correlated`).
        """
        profile = self.profile
        domain = self.domain
        binary = list(domain.binary_sensors)
        numeric = list(domain.numeric_sensors)
        soft = binary + numeric
        categories = (
            ("stick", profile.stick_rate, soft),
            ("drift", profile.drift_rate, numeric),
            ("flap", profile.flap_rate, soft),
            ("ghost", profile.ghost_rate, binary),
            ("brownout", profile.brownout_rate, list(domain.battery_sensors)),
        )
        if not any(rate > 0 and targets for _, rate, targets in categories):
            return
        end = self.window[1]
        binary_set = set(binary)
        episodes: list[tuple[float, str, str, float, tuple]] = []
        for category, rate, targets in categories:
            if rate <= 0 or not targets:
                continue
            per_device = rate / len(targets)
            for device in sorted(set(targets)):
                rng = source.child(device).child(category)
                for t in self._arrivals(rng, per_device):
                    until = min(
                        t + rng.expovariate(1.0 / profile.mean_device_fault_s), end
                    )
                    params = self._episode_params(
                        category, device in binary_set, rng
                    )
                    if until <= t:
                        continue
                    episodes.append((t, device, category, until, params))
        episodes.sort(key=lambda e: (e[0], e[1], e[2]))

        group_of: dict[str, int] = {}
        for i, group in enumerate(domain.correlated):
            for member in group:
                group_of[member] = i
        busy = dict(device_down_until)
        group_busy: dict[int, float] = {}
        for t, device, category, until, params in episodes:
            if busy.get(device, 0.0) > t:
                continue
            group = group_of.get(device)
            if group is not None and group_busy.get(group, 0.0) > t:
                continue
            start = _EPISODE_START[category]
            plan.add(t, start, device, *params)
            plan.add(until, PAIRED_KINDS[start], device)
            busy[device] = until
            if group is not None:
                group_busy[group] = until

    def _episode_params(
        self, category: str, is_binary: bool, rng: RandomSource
    ) -> tuple:
        """Draw a category's parameters (always, so filtering never skews
        a device's stream)."""
        if category == "stick":
            if is_binary:
                return (bool(rng.randint(0, 1)),)
            return (round(rng.uniform(18.0, 28.0), 2),)
        if category == "drift":
            sign = 1.0 if rng.randint(0, 1) == 0 else -1.0
            return (sign * round(rng.uniform(0.01, self.profile.max_drift_per_s), 4),)
        if category == "flap":
            return (round(rng.uniform(30.0, 120.0), 2),
                    round(rng.uniform(0.3, 0.7), 3))
        if category == "ghost":
            return (self.profile.ghost_events_per_hour,)
        # brownout: a level safely below the WEAK threshold.
        return (round(rng.uniform(0.0, 0.15), 3),)


# -- shrinking (greedy delta debugging) ---------------------------------------------

#: Every paired kind -> its start kind (a start maps to itself).
_START_OF: dict[str, str] = {
    **{start: start for start in PAIRED_KINDS},
    **{clear: start for start, clear in PAIRED_KINDS.items()},
}


def normalize(actions: Sequence[FaultAction]) -> list[FaultAction]:
    """Drop actions an arbitrary subset made invalid, preserving order.

    Removing a ``recover`` from a plan leaves its process down, so a later
    ``crash`` of the same process would raise ``FaultError`` on replay.
    This simulates every paired state machine of
    :data:`~repro.sim.faults.PAIRED_KINDS` (crash/recover and the soft
    device faults), keyed by ``(start kind, target)``, over the actions in
    apply order and drops the contradictions; every other action kind is
    unconditionally replayable. The result is a valid plan whose surviving
    actions keep their relative order.
    """
    ordered = sorted(enumerate(actions), key=lambda pair: (pair[1].at, pair[0]))
    active: set[tuple[str, str]] = set()
    dropped: set[int] = set()
    for index, action in ordered:
        start = _START_OF.get(action.kind)
        if start is None:
            continue
        key = (start, action.args[0])
        opening = action.kind == start
        if (key in active) == opening:
            dropped.add(index)  # a start while active, or a clear while not
        elif opening:
            active.add(key)
        else:
            active.remove(key)
    return [a for i, a in enumerate(actions) if i not in dropped]


def shrink(
    plan: FaultPlan,
    is_failing: Callable[[FaultPlan], bool],
    *,
    max_evals: int = 64,
) -> FaultPlan:
    """Minimize a failing plan with ddmin.

    ``is_failing(candidate)`` re-runs the scenario under ``candidate`` and
    reports whether it still violates an invariant; it is called at most
    ``max_evals`` times. The input plan is assumed failing. Candidates are
    passed through :func:`normalize` so they always replay cleanly.
    """
    current = normalize(plan.actions)
    evals = 0

    def still_failing(actions: list[FaultAction]) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return is_failing(FaultPlan(actions=list(actions)))

    n = 2
    while len(current) >= 2 and evals < max_evals:
        chunk = max(1, len(current) // n)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = normalize(
                current[:start] + current[start + chunk:]
            )
            if candidate and still_failing(candidate):
                current = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            n = min(len(current), n * 2)
    return FaultPlan(actions=current)
