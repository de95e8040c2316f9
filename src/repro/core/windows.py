"""Windows: bounded event buffers with trigger and evictor policies.

Section 6.1 defines a window as "a contiguous and finite portion of an event
stream" with three ingredients, all reproduced here:

1. a **bounded event buffer** (bounded by event count or by time span);
2. a **trigger policy** deciding when the operator sees the buffer
   (``OnCount``, ``EveryInterval``, ``OnEveryEvent``);
3. an **evictor policy** purging the buffer (``ClearAll`` for disjoint
   batches, ``KeepLast``/``EvictOlderThan`` for sliding windows).

The declarative specs (:class:`TimeWindow`, :class:`CountWindow`) mirror the
paper's Table 2 API; :class:`WindowInstance` is the runtime object living
inside an active logic node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.events import Event, slot_setters


# -- trigger policies ------------------------------------------------------------


class TriggerPolicy:
    """Decides when the buffered events are presented to the operator."""

    def on_event(self, buffer: list[Event]) -> bool:
        """Should the window fire after this event was buffered?"""
        return False

    @property
    def interval(self) -> float | None:
        """Periodic firing interval, or None for purely event-driven."""
        return None


@dataclass(frozen=True)
class OnCount(TriggerPolicy):
    """Fire whenever ``count`` events are available."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def on_event(self, buffer: list[Event]) -> bool:
        return len(buffer) >= self.count


@dataclass(frozen=True)
class EveryInterval(TriggerPolicy):
    """Fire every ``seconds`` seconds, whatever has accumulated."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError(f"interval must be positive, got {self.seconds}")

    @property
    def interval(self) -> float | None:
        return self.seconds


@dataclass(frozen=True)
class OnEveryEvent(TriggerPolicy):
    """Fire on each arriving event (CountWindow(1) semantics)."""

    def on_event(self, buffer: list[Event]) -> bool:
        return len(buffer) >= 1


# -- evictor policies ---------------------------------------------------------------


class EvictorPolicy:
    """Decides which events survive in the buffer after a trigger."""

    def evict(self, buffer: list[Event], now: float) -> list[Event]:
        raise NotImplementedError


@dataclass(frozen=True)
class ClearAll(EvictorPolicy):
    """Disjoint batches: clear the buffer upon a successful trigger."""

    def evict(self, buffer: list[Event], now: float) -> list[Event]:
        return []


@dataclass(frozen=True)
class KeepAll(EvictorPolicy):
    """Keep everything (bounded only by the buffer bound itself)."""

    def evict(self, buffer: list[Event], now: float) -> list[Event]:
        return list(buffer)


@dataclass(frozen=True)
class KeepLast(EvictorPolicy):
    """Sliding count window: only the last ``count`` events survive."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    def evict(self, buffer: list[Event], now: float) -> list[Event]:
        return list(buffer[-self.count:]) if self.count else []


@dataclass(frozen=True)
class EvictOlderThan(EvictorPolicy):
    """Sliding time window: drop events older than ``seconds``."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def evict(self, buffer: list[Event], now: float) -> list[Event]:
        cutoff = now - self.seconds
        return [e for e in buffer if e.emitted_at >= cutoff]


# -- declarative window specs (Table 2) ------------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """Base declarative window: buffer bound + trigger + evictor."""

    trigger: TriggerPolicy
    evictor: EvictorPolicy

    def bound(self, buffer: list[Event], now: float) -> list[Event]:
        """Apply the buffer bound (count or time-span) after an insert."""
        raise NotImplementedError


@dataclass(frozen=True)
class TimeWindow(WindowSpec):
    """Buffer bounded by time span; fires every ``span_s`` by default.

    ``TimeWindow(60.0)`` is the paper's HVAC example: average temperature
    every 60 seconds.
    """

    span_s: float = 0.0
    trigger: TriggerPolicy = None  # type: ignore[assignment]
    evictor: EvictorPolicy = None  # type: ignore[assignment]

    def __init__(
        self,
        span_s: float,
        trigger: TriggerPolicy | None = None,
        evictor: EvictorPolicy | None = None,
    ) -> None:
        if span_s <= 0:
            raise ValueError(f"time span must be positive, got {span_s}")
        object.__setattr__(self, "span_s", span_s)
        object.__setattr__(self, "trigger", trigger or EveryInterval(span_s))
        object.__setattr__(self, "evictor", evictor or ClearAll())

    def bound(self, buffer: list[Event], now: float) -> list[Event]:
        cutoff = now - self.span_s
        return [e for e in buffer if e.emitted_at >= cutoff]


@dataclass(frozen=True)
class CountWindow(WindowSpec):
    """Buffer bounded by event count; fires when full by default.

    ``CountWindow(1)`` is the intrusion-detection example: deliver each
    door event immediately. A sliding median over the last N camera frames
    is ``CountWindow(N, evictor=KeepLast(N - 1))``.
    """

    count: int = 0
    trigger: TriggerPolicy = None  # type: ignore[assignment]
    evictor: EvictorPolicy = None  # type: ignore[assignment]

    def __init__(
        self,
        count: int,
        trigger: TriggerPolicy | None = None,
        evictor: EvictorPolicy | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "trigger", trigger or OnCount(count))
        object.__setattr__(self, "evictor", evictor or ClearAll())

    def bound(self, buffer: list[Event], now: float) -> list[Event]:
        return list(buffer[-self.count:])


# -- runtime window ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TriggeredWindow:
    """A snapshot handed to an operator when a window fires."""

    stream: str
    events: tuple[Event, ...]
    fired_at: float

    def __init__(self, stream: str, events: tuple[Event, ...], fired_at: float) -> None:
        a, b, c = _TRIGGERED_SLOTS
        a(self, stream)
        b(self, events)
        c(self, fired_at)

    def values(self) -> list:
        return [e.value for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def empty(self) -> bool:
        return not self.events


_TRIGGERED_SLOTS = slot_setters(TriggeredWindow)


@dataclass
class WindowInstance:
    """The live buffer for one (operator, input stream) pair.

    The owner is responsible for calling :meth:`fire` on the trigger's
    periodic ``interval`` (if any); event-driven triggers are evaluated on
    every :meth:`add`.
    """

    stream: str
    spec: WindowSpec
    on_fire: Callable[[TriggeredWindow], None]
    _buffer: list[Event] = field(default_factory=list)

    def add(self, event: Event, now: float) -> bool:
        """Buffer one event; fires the window if the trigger says so."""
        self._buffer.append(event)
        self._buffer = self.spec.bound(self._buffer, now)
        if self.spec.trigger.on_event(self._buffer):
            self.fire(now)
            return True
        return False

    def fire(self, now: float) -> TriggeredWindow:
        """Snapshot the buffer, hand it to the operator, apply the evictor."""
        # Re-apply the buffer bound: for time-span windows, events may have
        # aged out since the last insert (periodic triggers on idle streams).
        self._buffer = self.spec.bound(self._buffer, now)
        snapshot = TriggeredWindow(self.stream, tuple(self._buffer), now)
        self._buffer = self.spec.evictor.evict(self._buffer, now)
        self.on_fire(snapshot)
        return snapshot

    @property
    def buffered(self) -> list[Event]:
        return list(self._buffer)
