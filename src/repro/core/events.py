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

from dataclasses import dataclass, field, fields
from typing import Any, Callable

EventId = tuple[str, int]


def slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """Each field's slot setter, in field order, for ``cls``'s own ``__init__``.

    A frozen slotted dataclass's generated ``__init__`` writes every field
    through ``object.__setattr__``; calling the slot's member descriptor
    directly writes the same slot at about half the cost, and frozen
    instances still refuse assignment. Per-event records (``Event``,
    ``Command``, ``TriggeredWindow``, ``CombinedWindows``) are built this
    way. Raises ``TypeError`` unless ``cls.__init__`` takes exactly the
    fields in field order, so a field added later cannot be skipped.
    """
    names = tuple(f.name for f in fields(cls))
    code = cls.__init__.__code__
    if code.co_varnames[1:code.co_argcount] != names:
        raise TypeError(f"{cls.__name__}.__init__ must take the fields {names}")
    return tuple(cls.__dict__[name].__set__ for name in names)


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

    def __init__(self, sensor_id: str, seq: int, emitted_at: float, value: Any,
                 size_bytes: int, epoch: int | None = None) -> None:
        a, b, c, d, e, f = _EVENT_SLOTS
        a(self, sensor_id)
        b(self, seq)
        c(self, emitted_at)
        d(self, value)
        e(self, size_bytes)
        f(self, epoch)

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

    def __init__(self, actuator_id: str, seq: int, issued_at: float, action: str,
                 value: Any = None, size_bytes: int = 8, issued_by: str = "") -> None:
        a, b, c, d, e, f, g = _COMMAND_SLOTS
        a(self, actuator_id)
        b(self, seq)
        c(self, issued_at)
        d(self, action)
        e(self, value)
        f(self, size_bytes)
        g(self, issued_by)

    @property
    def command_id(self) -> tuple[str, str, int]:
        return (self.actuator_id, self.issued_by, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Command {self.actuator_id}!{self.action} #{self.seq}"
            f" t={self.issued_at:.3f} by={self.issued_by}>"
        )


_EVENT_SLOTS = slot_setters(Event)
_COMMAND_SLOTS = slot_setters(Command)
