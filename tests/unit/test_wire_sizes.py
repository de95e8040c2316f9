"""Unit tests for byte-accurate wire sizing (the Fig. 5 cost model)."""

import pytest

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import (
    EVENT_HEADER,
    FRAME_OVERHEAD,
    MESSAGE_HEADER,
    MSS,
    PROCESS_ID_BYTES,
    ProcessIdSet,
    payload_size,
    sizeof,
    wire_size,
)


def make_event(size: int = 4) -> Event:
    return Event(sensor_id="s", seq=1, emitted_at=0.0, value=0, size_bytes=size)


def test_scalar_sizes():
    assert sizeof(None) == 1
    assert sizeof(True) == 1
    assert sizeof(3.14) == 8
    assert sizeof(42) == 8
    assert sizeof("ab") == 3
    assert sizeof(b"abcd") == 8


def test_event_size_includes_header_and_payload():
    assert sizeof(make_event(100)) == EVENT_HEADER + 100


def test_command_size():
    command = Command(actuator_id="a", seq=1, issued_at=0.0, action="x")
    assert sizeof(command) == 16 + command.size_bytes


def test_process_id_set_compact_encoding():
    ids = ProcessIdSet({"hub", "fridge", "washing-machine"})
    assert sizeof(ids) == 1 + 3 * PROCESS_ID_BYTES
    # A plain collection of the same names is bigger: names are not sent.
    assert sizeof(["hub", "fridge", "washing-machine"]) > sizeof(ids)


def test_collections_and_dicts():
    assert sizeof([1, 2]) == 2 + 16
    assert sizeof((1.0,)) == 2 + 8
    assert sizeof({"k": 1}) == 2 + sizeof("k") + 8


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        sizeof(object())


def test_message_payload_size():
    message = Message(kind="k", src="a", dst="b", payload={"event": make_event(4)})
    assert payload_size(message) == MESSAGE_HEADER + EVENT_HEADER + 4


def test_small_message_single_frame():
    message = Message(kind="k", src="a", dst="b", payload={"x": 1})
    assert wire_size(message) == MESSAGE_HEADER + 8 + FRAME_OVERHEAD


def test_large_event_pays_per_segment_framing():
    big = Message(kind="k", src="a", dst="b", payload={"event": make_event(20_480)})
    app_bytes = payload_size(big)
    segments = -(-app_bytes // MSS)
    assert segments > 1
    assert wire_size(big) == app_bytes + segments * FRAME_OVERHEAD


def test_gapless_metadata_grows_with_sets():
    def msg(n: int) -> Message:
        ids = ProcessIdSet({f"p{i}" for i in range(n)})
        return Message(kind="gapless_fwd", src="a", dst="b",
                       payload={"event": make_event(4), "S": ids, "V": ids})

    assert wire_size(msg(5)) - wire_size(msg(1)) == 8 * PROCESS_ID_BYTES


def test_fig5_crossover_naive_broadcast_vs_ring():
    """At one receiving process the ring (with S/V metadata) costs more
    than naive broadcast; at two receiving processes it costs less."""
    n = 5
    event = make_event(4)
    ids_full = ProcessIdSet({f"p{i}" for i in range(n)})
    ring_messages = []
    for hop in range(1, n + 1):
        seen = ProcessIdSet({f"p{i}" for i in range(hop)})
        ring_messages.append(
            Message(kind="gapless_fwd", src="a", dst="b",
                    payload={"sensor": "s", "event": event, "S": seen, "V": ids_full})
        )
    ring_bytes = sum(wire_size(m) for m in ring_messages)

    bcast = Message(kind="nbcast", src="a", dst="b",
                    payload={"sensor": "s", "event": event})
    one_receiver = (n - 1) * wire_size(bcast)
    two_receivers = 2 * (n - 1) * wire_size(bcast)

    assert one_receiver < ring_bytes < two_receivers


# -- per-message size caching --------------------------------------------------


def test_payload_and_wire_size_cached_per_message():
    message = Message("k", "a", "b", {"x": 1})
    first = wire_size(message)
    assert message._wire_bytes == first
    # Messages are immutable once sent; the cache makes that contract
    # load-bearing — re-sizing the same object must not recompute.
    message.payload["x"] = 999999
    assert wire_size(message) == first


def test_distinct_messages_sized_independently():
    small = Message("k", "a", "b", {"x": 1})
    big = Message("k", "a", "b", {"x": "y" * 500})
    assert wire_size(big) > wire_size(small)


def test_bool_sized_as_one_byte_via_fast_path():
    # bool is an int subclass: exact-type dispatch must still give 1 byte,
    # both directly and through a message payload.
    assert sizeof(True) == 1
    assert payload_size(Message("k", "a", "b", {"flag": True})) == \
        MESSAGE_HEADER + 1


def test_subclass_payload_values_fall_back_to_general_path():
    class MyInt(int):
        pass

    assert sizeof(MyInt(7)) == 8
    assert payload_size(Message("k", "a", "b", {"v": MyInt(7)})) == \
        MESSAGE_HEADER + 8
