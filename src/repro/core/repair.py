"""App-level repair of suspect sensor readings (IoTRepair-style).

Commodity devices mostly fail *softer* than the crash/partition model of
Section 3.1: they get stuck at one value, drift out of calibration, flap
on and off the network, or brown out on a weak battery. IoTRepair
(PAPERS.md) shows that app-level *repair routines* — retry, substitute a
correlated sensor, quarantine-and-alert, hold the last known good value —
materially change application outcomes under such faults.

A :class:`RepairPolicy` is a per-app opt-in (``App(..., repair=policy)``).
When set, the active logic runtime routes every delivered reading through
a :class:`RepairSession` *between* platform delivery and the app callback:
platform-level guarantees (and their oracles) are untouched, and every
repair decision is recorded on the trace (kind ``"repair"``) for audit.

The session is deliberately RNG-free and timer-light, so repair never
perturbs the deterministic draw sequences of a run without faults.

Two complementary mechanisms:

- **interception** (:meth:`RepairSession.admit`) fixes *wrong* values:
  a reading flagged suspect (out of range, or stuck while a fresh
  correlated sensor disagrees) is substituted, held, buffered for retry,
  or dropped;
- **echo synthesis** fixes *missing* values: when a backup sensor keeps
  reporting but its correlated primary has been silent longer than
  ``echo_timeout_s`` (flapping link, browned-out battery), the session
  synthesizes a reading for the primary from the backup's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.env import RuntimeEnv

_MISSING = object()


@dataclass(frozen=True)
class RepairPolicy:
    """Declarative per-app repair configuration.

    ``correlations`` maps each primary sensor to the backup sensors that
    may stand in for it (``{"m1": ("m2",)}``). A primary is stuck-suspect
    only when it has repeated one value ``stuck_after`` times *and* a
    fresh, non-quarantined backup disagrees — benign constancy (an
    occupied room, a quiet smoke detector) never trips it, and backups
    themselves are never stuck-suspect. ``valid_range`` bounds numeric
    readings per sensor. Repair escalation order for a suspect reading:
    retry (buffer for ``retry_timeout_s``), substitute a fresh backup
    value, hold the last known good value, drop.
    """

    correlations: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    stuck_after: int | None = None
    valid_range: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    retry_timeout_s: float | None = None
    substitute: bool = True
    hold_last_known_good: bool = False
    quarantine_after: int | None = None
    echo_timeout_s: float | None = None
    echo_lead_s: float = 2.0
    correlation_max_age_s: float = 180.0

    def __post_init__(self) -> None:
        if self.stuck_after is not None and self.stuck_after < 2:
            raise ValueError(
                f"stuck_after must be >= 2 (one repeat is not a fault), "
                f"got {self.stuck_after}"
            )
        if self.retry_timeout_s is not None and self.retry_timeout_s <= 0:
            raise ValueError(
                f"retry_timeout_s must be positive, got {self.retry_timeout_s}"
            )
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if self.echo_timeout_s is not None and self.echo_timeout_s <= 0:
            raise ValueError(
                f"echo_timeout_s must be positive, got {self.echo_timeout_s}"
            )
        if self.echo_lead_s < 0:
            raise ValueError(
                f"echo_lead_s must be >= 0, got {self.echo_lead_s}"
            )
        if self.correlation_max_age_s <= 0:
            raise ValueError(
                f"correlation_max_age_s must be positive, "
                f"got {self.correlation_max_age_s}"
            )
        for sensor, bounds in self.valid_range.items():
            lo, hi = bounds
            if not lo < hi:
                raise ValueError(
                    f"valid_range for {sensor!r} must satisfy lo < hi, "
                    f"got ({lo}, {hi})"
                )


class RepairSession:
    """Live repair state of one app on one active logic runtime.

    Built fresh at every promotion and closed at demotion (apps are
    stateless across failovers — Section 3.2 — and so is their repair
    state). Timers run through ``env.schedule``, whose simulator
    implementation guards callbacks by process incarnation: a crash makes
    any in-flight retry/echo timer inert automatically.
    """

    def __init__(
        self,
        policy: RepairPolicy,
        app_name: str,
        env: "RuntimeEnv",
        deliver: Callable[[str, Event], None],
    ) -> None:
        self.policy = policy
        self._app = app_name
        self._env = env
        self._deliver = deliver
        self._closed = False
        self._last_value: dict[str, Any] = {}
        self._run: dict[str, int] = {}
        self._last_good: dict[str, tuple[Any, float]] = {}
        self._suspect_streak: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._last_seen: dict[str, float] = {}
        self._pending_retry: dict[str, tuple[Event, Any]] = {}
        self._synth_seq = 0
        self._backed_by: dict[str, list[str]] = {}
        for target, backups in policy.correlations.items():
            for backup in backups:
                self._backed_by.setdefault(backup, []).append(target)

    # -- interception --------------------------------------------------------------

    def admit(self, sensor: str, event: Event) -> Event | None:
        """Inspect one delivered reading; return what the app should see.

        Returns the event unchanged (healthy), a repaired copy
        (substitute / hold), or ``None`` (buffered for retry, or
        dropped). Synthesized and retry-escalated events reach the app
        later through the ``deliver`` callback.
        """
        now = self._env.now()
        value = event.value
        if self._last_value.get(sensor, _MISSING) == value:
            self._run[sensor] = self._run.get(sensor, 0) + 1
        else:
            self._run[sensor] = 1
        self._last_value[sensor] = value
        self._last_seen[sensor] = now

        reason = self._suspicion(sensor, value, now)
        if reason is None:
            self._suspect_streak[sensor] = 0
            if sensor in self._quarantined:
                self._quarantined.discard(sensor)
                self._decision(sensor, event.seq, "requalified")
            self._last_good[sensor] = (value, now)
            pending = self._pending_retry.pop(sensor, None)
            if pending is not None:
                pending[1].cancel()
                self._decision(sensor, event.seq, "retry_superseded")
            self._schedule_echoes(sensor, value, now)
            return event

        streak = self._suspect_streak.get(sensor, 0) + 1
        self._suspect_streak[sensor] = streak
        quarantine_after = self.policy.quarantine_after
        if (
            quarantine_after is not None
            and streak >= quarantine_after
            and sensor not in self._quarantined
        ):
            self._quarantined.add(sensor)
            self._decision(sensor, event.seq, "quarantine", reason=reason)
            self._env.trace(
                "alert", app=self._app, operator="repair",
                message=f"sensor {sensor} quarantined ({reason})", sensor=sensor,
            )
        if (
            self.policy.retry_timeout_s is not None
            and sensor not in self._pending_retry
        ):
            handle = self._env.schedule(
                self.policy.retry_timeout_s, self._retry_expired, sensor
            )
            self._pending_retry[sensor] = (event, handle)
            self._decision(sensor, event.seq, "retry_wait", reason=reason)
            return None
        return self._repair_value(sensor, event, now, reason)

    def _suspicion(self, sensor: str, value: Any, now: float) -> str | None:
        bounds = self.policy.valid_range.get(sensor)
        if (
            bounds is not None
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            lo, hi = bounds
            if not lo <= value <= hi:
                return "range"
        stuck_after = self.policy.stuck_after
        backups = self.policy.correlations.get(sensor)
        if (
            stuck_after is not None
            and backups
            and self._run.get(sensor, 0) >= stuck_after
        ):
            fresh = [
                self._last_good[b][0]
                for b in backups
                if b not in self._quarantined
                and b in self._last_good
                and now - self._last_good[b][1] <= self.policy.correlation_max_age_s
            ]
            if fresh and not any(v == value for v in fresh):
                return "stuck"
        return None

    def _repair_value(
        self, sensor: str, event: Event, now: float, reason: str
    ) -> Event | None:
        if self.policy.substitute:
            substitute = self._fresh_backup_value(sensor, now)
            if substitute is not _MISSING:
                self._decision(sensor, event.seq, "substitute", reason=reason)
                return replace(event, value=substitute)
        if self.policy.hold_last_known_good and sensor in self._last_good:
            self._decision(sensor, event.seq, "hold", reason=reason)
            return replace(event, value=self._last_good[sensor][0])
        self._decision(sensor, event.seq, "drop", reason=reason)
        return None

    def _fresh_backup_value(self, sensor: str, now: float) -> Any:
        for backup in self.policy.correlations.get(sensor, ()):
            if backup in self._quarantined:
                continue
            good = self._last_good.get(backup)
            if good is not None and now - good[1] <= self.policy.correlation_max_age_s:
                return good[0]
        return _MISSING

    def _retry_expired(self, sensor: str) -> None:
        if self._closed:
            return
        pending = self._pending_retry.pop(sensor, None)
        if pending is None:
            return
        event, _ = pending
        repaired = self._repair_value(
            sensor, event, self._env.now(), "retry_timeout"
        )
        if repaired is not None:
            self._deliver(sensor, repaired)

    # -- echo synthesis (missing-value repair) ---------------------------------------

    def _schedule_echoes(self, sensor: str, value: Any, now: float) -> None:
        if self.policy.echo_timeout_s is None:
            return
        for target in self._backed_by.get(sensor, ()):
            self._env.defer(
                self.policy.echo_timeout_s, self._echo_check, target, value, now
            )

    def _echo_check(self, target: str, value: Any, seen_at: float) -> None:
        if self._closed:
            return
        last = self._last_seen.get(target)
        if last is not None and last >= seen_at - self.policy.echo_lead_s:
            # The primary spoke around (or after) the backup's reading —
            # correlated sensors report within a short lead of each other,
            # so it is not silent. Checking against a small lead rather
            # than the full echo timeout matters: a primary that happened
            # to speak shortly *before* going silent must not suppress the
            # echoes of the burst it just missed.
            return
        if target in self._pending_retry:
            return
        self._synth_seq -= 1
        event = Event(
            sensor_id=target, seq=self._synth_seq, emitted_at=seen_at,
            value=value, size_bytes=8,
        )
        self._decision(target, event.seq, "synthesize")
        # Mark the primary as heard so one backup reading yields one echo,
        # not one per scheduled check.
        self._last_seen[target] = self._env.now()
        self._deliver(target, event)

    # -- bookkeeping -----------------------------------------------------------------

    def _decision(
        self, sensor: str, seq: int, decision: str, *, reason: str | None = None
    ) -> None:
        if reason is None:
            self._env.trace(
                "repair", app=self._app, sensor=sensor, seq=seq, decision=decision
            )
        else:
            self._env.trace(
                "repair", app=self._app, sensor=sensor, seq=seq,
                decision=decision, reason=reason,
            )

    @property
    def quarantined(self) -> frozenset[str]:
        return frozenset(self._quarantined)

    def close(self) -> None:
        """Demotion/teardown: cancel retries, neuter in-flight echoes."""
        self._closed = True
        for _, handle in self._pending_retry.values():
            handle.cancel()
        self._pending_retry.clear()
