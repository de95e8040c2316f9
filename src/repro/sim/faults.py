"""Declarative fault injection.

A :class:`FaultPlan` is a list of timestamped actions. An action's kind is
the one name of its fault: the method it calls on either real target, a
simulated :class:`repro.core.home.Home` or a real-runtime
:class:`repro.rt.harness.RtHarness`; nothing forwards or renames it. Plans
are data, so tests and benchmarks can build them declaratively and reuse
them across delivery modes and runtimes:

    plan = (FaultPlan()
            .crash("hub", at=24.0)
            .recover("hub", at=120.0)
            .partition([["tv", "fridge"], ["hub"]], at=60.0)
            .heal(at=90.0))
    plan.apply(home)

The fault model follows Section 3.1 of the paper: crash-recovery processes,
arbitrary network partitions, lossy sensor-process links, and sensors /
actuators that crash and recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.core.home import Home


class FaultError(RuntimeError):
    """An invalid fault injection (crash an unknown or already-crashed
    process, recover a live one, a loss rate outside [0, 1], ...).

    Raised by the fault entry points of :class:`repro.core.home.Home` and
    :class:`repro.rt.harness.RtHarness` so that generated fault schedules
    fail loudly instead of silently misbehaving.
    """


#: The paired state machines, start kind -> clearing kind. A start while
#: its (kind, target) is active, or a clear while it is not, raises
#: FaultError on replay; :func:`repro.sim.chaos.normalize` drops both and
#: the generator emits every episode as one such pair. ``brownout`` fits
#: the same shape: with pairing enforced, every brownout happens on a fresh
#: (or freshly replaced) battery, so its sampled level (<= 0.15, far below
#: a fresh battery's ~1.0) is always monotone-valid.
PAIRED_KINDS: dict[str, str] = {
    "crash_process": "recover_process",
    "stick_sensor": "unstick_sensor",
    "drift_sensor": "stop_drift",
    "flap_link": "stop_flap",
    "ghost_events": "stop_ghost",
    "brownout": "replace_battery",
}


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: ``kind`` names the target's method, args carry data."""

    at: float
    kind: str
    args: tuple = ()


@dataclass
class FaultPlan:
    """An ordered collection of :class:`FaultAction` with a fluent builder."""

    actions: list[FaultAction] = field(default_factory=list)

    def add(self, at: float, kind: str, *args: Any) -> "FaultPlan":
        """Append ``kind(*args)`` at ``at``; every builder below is one call."""
        if at < 0:
            raise ValueError(f"fault time must be >= 0, got {at}")
        self.actions.append(FaultAction(at=at, kind=kind, args=args))
        return self

    def crash(self, process: str, *, at: float) -> "FaultPlan":
        """Crash a Rivulet process (halts all activity, loses soft state)."""
        return self.add(at, "crash_process", process)

    def recover(self, process: str, *, at: float) -> "FaultPlan":
        """Recover a previously crashed process."""
        return self.add(at, "recover_process", process)

    def partition(self, groups: Sequence[Sequence[str]], *, at: float) -> "FaultPlan":
        """Partition the home network into isolated groups of processes."""
        frozen = tuple(tuple(g) for g in groups)
        return self.add(at, "set_partition", frozen)

    def heal(self, *, at: float) -> "FaultPlan":
        """Remove any network partition."""
        return self.add(at, "heal_partition")

    def fail_sensor(self, sensor: str, *, at: float) -> "FaultPlan":
        """Sensor stops emitting / answering polls (battery drain, unplug)."""
        return self.add(at, "fail_sensor", sensor)

    def recover_sensor(self, sensor: str, *, at: float) -> "FaultPlan":
        return self.add(at, "recover_sensor", sensor)

    def fail_actuator(self, actuator: str, *, at: float) -> "FaultPlan":
        """Actuator stops responding to commands."""
        return self.add(at, "fail_actuator", actuator)

    def recover_actuator(self, actuator: str, *, at: float) -> "FaultPlan":
        return self.add(at, "recover_actuator", actuator)

    def set_link_loss(
        self, device: str, process: str, loss_rate: float, *, at: float
    ) -> "FaultPlan":
        """Change the Bernoulli loss rate of one ``device -> process`` link.

        ``device`` is a sensor (its radio link; a simulated home and an rt
        harness both apply it) or another process: a process -> process
        pair is TCP frame loss in both directions, which only an rt harness
        with its fault proxy can inject (the sim transport is reliable).
        """
        return self.add(at, "set_link_loss", device, process, loss_rate)

    # -- soft device faults (IoTRepair taxonomy) -------------------------------

    def stick_sensor(self, sensor: str, value: Any, *, at: float) -> "FaultPlan":
        """Stuck-at fault: the sensor keeps reporting ``value``."""
        return self.add(at, "stick_sensor", sensor, value)

    def unstick_sensor(self, sensor: str, *, at: float) -> "FaultPlan":
        """Clear a stuck-at fault."""
        return self.add(at, "unstick_sensor", sensor)

    def drift_sensor(self, sensor: str, rate: float, *, at: float) -> "FaultPlan":
        """Calibration drift: numeric readings gain ``rate`` units/second."""
        return self.add(at, "drift_sensor", sensor, rate)

    def stop_drift(self, sensor: str, *, at: float) -> "FaultPlan":
        """Clear a calibration drift."""
        return self.add(at, "stop_drift", sensor)

    def flap_link(
        self, device: str, period: float, duty: float, *, at: float
    ) -> "FaultPlan":
        """Flapping connectivity: the device's links cycle down/up with the
        given ``period`` (seconds), up for ``duty`` fraction of each cycle."""
        return self.add(at, "flap_link", device, period, duty)

    def stop_flap(self, device: str, *, at: float) -> "FaultPlan":
        """Stop link flapping and re-enable the device's links."""
        return self.add(at, "stop_flap", device)

    def ghost_events(self, sensor: str, rate: float, *, at: float) -> "FaultPlan":
        """Ghost events: spurious emissions at ``rate`` events/hour."""
        return self.add(at, "ghost_events", sensor, rate)

    def stop_ghost(self, sensor: str, *, at: float) -> "FaultPlan":
        """Stop injecting ghost events."""
        return self.add(at, "stop_ghost", sensor)

    def brownout(self, device: str, level: float, *, at: float) -> "FaultPlan":
        """Battery brownout: drain the device's battery down to ``level``."""
        return self.add(at, "brownout", device, level)

    def replace_battery(self, device: str, *, at: float) -> "FaultPlan":
        """Swap in a fresh battery (clears a brownout)."""
        return self.add(at, "replace_battery", device)

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan containing both plans' actions."""
        return FaultPlan(actions=self.actions + other.actions)

    def apply(self, target: "Home") -> None:
        """Schedule every action on a simulated home's scheduler.

        A kind is the name of the method it calls, on the two real targets:
        a :class:`~repro.core.home.Home` here (a fleet tenant is
        ``plan.apply(fleet.home(home_id))``), and an
        :class:`~repro.rt.harness.RtHarness` through
        :class:`~repro.rt.faults.RtFaultDriver`, in wall-clock time.

        Ordering is total and explicit: actions are applied by ``(at,
        insertion index)``, so two actions with the same timestamp fire in
        the order they were added to the plan. Because any sub-plan (e.g. a
        shrunk reproducer) preserves the relative insertion order of the
        surviving actions, replaying it schedules them identically.
        """
        ordered = sorted(
            enumerate(self.actions), key=lambda pair: (pair[1].at, pair[0])
        )
        for _, action in ordered:
            method = getattr(target, action.kind)
            target.scheduler.call_at(action.at, method, *action.args)

    # -- serialization (CHAOS_report.json reproducers) ------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """A JSON-serializable form: one dict per action, in plan order."""
        out: list[dict[str, Any]] = []
        for action in self.actions:
            args: list[Any] = []
            for arg in action.args:
                if isinstance(arg, tuple):  # partition groups
                    args.append([list(g) for g in arg])
                else:
                    args.append(arg)
            out.append({"at": action.at, "kind": action.kind, "args": args})
        return out

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output (JSON round-trip)."""
        actions: list[FaultAction] = []
        for entry in dicts:
            args: list[Any] = []
            for arg in entry.get("args", ()):
                if isinstance(arg, list):  # partition groups
                    args.append(tuple(tuple(g) for g in arg))
                else:
                    args.append(arg)
            actions.append(
                FaultAction(at=float(entry["at"]), kind=str(entry["kind"]),
                            args=tuple(args))
            )
        return cls(actions=actions)

    def __len__(self) -> int:
        return len(self.actions)
