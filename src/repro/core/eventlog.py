"""Durable per-sensor event logs.

Each Rivulet process journals every event it has seen (ingested directly,
received on the ring, or via broadcast). The log survives crashes — this is
what lets a recovered process answer Bayou-style synchronization queries
(Section 4.1) and what lets a freshly promoted logic node replay the
"outstanding events" an old primary never processed (Section 5, Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import Event
from repro.core.intervals import IntervalSet


@dataclass
class SensorLog:
    """All events a process has seen from one sensor."""

    sensor: str
    events: dict[int, Event] = field(default_factory=dict)
    seen: IntervalSet = field(default_factory=IntervalSet)

    def add(self, event: Event) -> bool:
        """Record an event. Returns True iff it was not seen before."""
        if not self.seen.add(event.seq):
            return False
        self.events[event.seq] = event
        return True

    def __contains__(self, seq: int) -> bool:
        return seq in self.seen

    def events_after(self, watermark: int) -> list[Event]:
        """Events with seq > watermark, in sequence order."""
        return [
            self.events[seq]
            for lo, hi in self.seen.ranges()
            for seq in range(max(lo, watermark + 1), hi + 1)
        ]

    def events_missing_from(self, peer_ranges: list[tuple[int, int]]) -> list[Event]:
        """Events we hold that a peer (summarised by its ranges) lacks."""
        peer = IntervalSet(peer_ranges)
        return [self.events[seq] for seq in self.seen.difference_values(peer)]

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the newest event (Bayou's sync anchor); 0 if empty."""
        top = self.seen.max_value
        return self.events[top].emitted_at if top is not None else 0.0

    def __len__(self) -> int:
        return len(self.events)


class EventStore:
    """All sensor logs of one process. Owned by the host, not the runtime —
    it persists across crash/recovery like flash storage would."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._logs: dict[str, SensorLog] = {}

    def log_for(self, sensor: str) -> SensorLog:
        log = self._logs.get(sensor)
        if log is None:
            log = SensorLog(sensor=sensor)
            self._logs[sensor] = log
        return log

    def add(self, event: Event) -> bool:
        return self.log_for(event.sensor_id).add(event)

    def has_seen(self, event: Event) -> bool:
        return event.seq in self.log_for(event.sensor_id)

    @property
    def sensors(self) -> list[str]:
        return sorted(self._logs)

    def total_events(self) -> int:
        return sum(len(log) for log in self._logs.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventStore {self.owner}: {self.total_events()} events>"
