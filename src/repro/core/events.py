"""Events — the unit of data flowing through Rivulet.

An event is an immutable record emitted by a (physical or software) sensor.
Events are globally identified by ``(sensor_id, seq)``: the paper's protocols
deduplicate on "has this event been seen before", which requires a stable
identity independent of which process ingested the event.

``size_bytes`` is the payload size on the wire and drives every network
overhead experiment (Table 3: 4-8 B for physical phenomena, 1-20 KB for
microphone frames and camera images).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

EventId = tuple[str, int]


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One sensor reading / occurrence.

    Attributes:
        sensor_id: name of the emitting sensor.
        seq: per-sensor monotonically increasing sequence number.
        emitted_at: global simulation time at which the sensor emitted it.
        value: the reading itself (bool for motion/door, float for
            temperature, bytes-like placeholder for images/audio).
        size_bytes: wire size of the encoded value (Table 3).
        epoch: poll epoch index for poll-based sensors, ``None`` for
            push-based sensors.
    """

    sensor_id: str
    seq: int
    emitted_at: float
    value: Any = field(compare=False)
    size_bytes: int = field(compare=False)
    epoch: int | None = field(default=None, compare=False)

    @property
    def event_id(self) -> EventId:
        """Stable global identity used for deduplication."""
        return (self.sensor_id, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        epoch = f" epoch={self.epoch}" if self.epoch is not None else ""
        return (
            f"<Event {self.sensor_id}#{self.seq} t={self.emitted_at:.3f}"
            f" {self.size_bytes}B{epoch} value={self.value!r}>"
        )


@dataclass(frozen=True, slots=True)
class Command:
    """An actuation command emitted by a logic node toward an actuator.

    Commands are the actuator-side analogue of events (Section 4: "the
    delivery of actuation commands is analogous"). ``issued_by`` records the
    logic node instance for duplicate-actuation analysis under partitions.
    """

    actuator_id: str
    seq: int
    issued_at: float
    action: str
    value: Any = None
    size_bytes: int = 8
    issued_by: str = ""

    @property
    def command_id(self) -> tuple[str, str, int]:
        return (self.actuator_id, self.issued_by, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Command {self.actuator_id}!{self.action} #{self.seq}"
            f" t={self.issued_at:.3f} by={self.issued_by}>"
        )
