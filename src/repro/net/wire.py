"""Byte-accurate wire sizes for messages.

The paper measures "the amount of data transferred over the home network for
delivering an event" (Section 8.2). We therefore model sizes at the level
that matters for that comparison:

- ``FRAME_OVERHEAD`` — per-TCP-segment cost on the wire (Ethernet 14 B +
  IPv4 20 B + TCP 32 B with timestamps). Every Rivulet message is small
  enough (or is accounted as if) to ride in dedicated segments; large camera
  events are charged one frame overhead per MSS worth of payload.
- ``MESSAGE_HEADER`` — Rivulet's own serialization header (message type,
  sender id, destination id, length, protocol version).
- ``PROCESS_ID_BYTES`` — compact process identifiers used inside the
  Gapless protocol's ``S`` and ``V`` sets. A home has a handful of
  processes, so the Java prototype's custom serializer uses short ids; this
  constant is what makes Gapless cheaper than naive broadcast at >= 2
  receiving processes but more expensive at 1 (the Fig. 5 crossover).
- ``EVENT_HEADER`` — per-event metadata (sensor id, sequence number,
  timestamp) added on top of the raw payload bytes of Table 3.

Sizes are computed structurally from the payload: events, process-id
collections, numbers and strings each have well-defined encodings.

Hot-path design (see docs/performance.md): messages are immutable once
sent, so ``wire_size`` is cached per :class:`Message`;
``wire_size`` sizes the common payload values (ASCII strings, events,
process-id sets, scalars) in line on their exact type and hands anything
else to :func:`sizeof`, and the fixed per-message overhead of the
single-segment case — every protocol message except camera frames — is
precomputed as :data:`SINGLE_SEGMENT_OVERHEAD`.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import Command, Event
from repro.net.message import Message

FRAME_OVERHEAD = 66
MESSAGE_HEADER = 24
PROCESS_ID_BYTES = 4
EVENT_HEADER = 16
COMMAND_HEADER = 16
TIMESTAMP_BYTES = 8
MSS = 1448  # TCP maximum segment size payload on Ethernet

SINGLE_SEGMENT_OVERHEAD = FRAME_OVERHEAD
"""Fixed framing cost of any message whose app-layer bytes fit one segment."""


class ProcessIdSet(frozenset):
    """A set of process identifiers; encoded compactly on the wire."""


# Payload values with a fixed encoded size, dispatched on exact type (so
# bool, a subclass of int, resolves to its own 1-byte entry).
_FIXED_SIZES: dict[type, int] = {
    type(None): 1,
    bool: 1,
    float: TIMESTAMP_BYTES,
    int: 8,
}


def sizeof(value: Any) -> int:
    """Encoded size of one payload value, in bytes."""
    t = type(value)
    fixed = _FIXED_SIZES.get(t)
    if fixed is not None:
        return fixed
    if t is str:
        return 1 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if t is Event:
        return EVENT_HEADER + value.size_bytes
    if t is Command:
        return COMMAND_HEADER + value.size_bytes
    if t is ProcessIdSet:
        return 1 + PROCESS_ID_BYTES * len(value)
    if t is bytes:
        return 4 + len(value)
    return _sizeof_general(value)


def _sizeof_general(value: Any) -> int:
    """Containers and subclasses: the original recursive structural path."""
    if isinstance(value, Event):
        return EVENT_HEADER + value.size_bytes
    if isinstance(value, Command):
        return COMMAND_HEADER + value.size_bytes
    if isinstance(value, ProcessIdSet):
        return 1 + PROCESS_ID_BYTES * len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, float):
        return TIMESTAMP_BYTES
    if isinstance(value, int):
        return 8
    if isinstance(value, str):
        return 1 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(sizeof(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(sizeof(k) + sizeof(v) for k, v in value.items())
    raise TypeError(f"cannot size payload value of type {type(value).__name__}")


def payload_size(message: Message) -> int:
    """Application-layer size: Rivulet header plus encoded payload.

    This is the reference walk, one :func:`sizeof` per value;
    :func:`wire_size` computes the same number with its common cases in
    line.
    """
    return MESSAGE_HEADER + sum(map(sizeof, message.payload.values()))


def wire_size(message: Message) -> int:
    """Total bytes on the home network for one message, including framing.

    Large payloads (camera frames) span multiple TCP segments; each segment
    pays :data:`FRAME_OVERHEAD`. Cached on the message: messages are
    immutable once handed to the transport, and retransmissions/multi-hop
    forwards re-send the same object.
    """
    cached = message._wire_bytes
    if cached is not None:
        return cached
    # payload_size's walk, with sizeof's most common cases in line:
    # sizing an uncached message is a per-send cost.
    app_bytes = MESSAGE_HEADER
    fixed_sizes = _FIXED_SIZES
    for value in message.payload.values():
        t = type(value)
        if t is str and value.isascii():
            app_bytes += 1 + len(value)
        elif t is Event:
            app_bytes += EVENT_HEADER + value.size_bytes
        elif t is ProcessIdSet:
            app_bytes += 1 + PROCESS_ID_BYTES * len(value)
        else:
            fixed = fixed_sizes.get(t)
            app_bytes += fixed if fixed is not None else sizeof(value)
    if app_bytes <= MSS:
        total = app_bytes + SINGLE_SEGMENT_OVERHEAD
    else:
        total = app_bytes + -(-app_bytes // MSS) * FRAME_OVERHEAD  # ceil division
    message._wire_bytes = total
    return total
