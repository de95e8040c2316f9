"""Unit tests for the asyncio runtime's wire format."""

import asyncio
import contextlib
import hashlib
import os
import subprocess
import sys

import pytest

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet
from repro.rt.wire import (
    HEADER_SIZE,
    MAX_DEPTH,
    MAX_FRAME,
    WIRE_VERSION,
    FrameProtocol,
    Names,
    PeerSender,
    WireError,
    close_accepted,
    decode_body,
    decode_records,
    encode_message,
    encode_record,
    frame_kind,
    split_frame,
)
from tests.helpers import each_frame, split_chunks


def roundtrip(message: Message) -> Message:
    frame = encode_message(message)
    version, body = split_frame(frame)
    assert version == WIRE_VERSION
    assert len(body) == len(frame) - HEADER_SIZE
    return decode_body(body)


def exactly(a, b) -> bool:
    """Equal, and of identical ``type()`` at every level (inside an Event's
    or Command's value too)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Event, Command)):
        return a == b and exactly(a.value, b.value) and all(
            exactly(getattr(a, f), getattr(b, f))
            for f in ("seq", "size_bytes", "epoch" if type(a) is Event else "issued_by"))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(exactly, a, b))
    if isinstance(a, dict):
        return (list(map(type, a)) == list(map(type, b))
                and a.keys() == b.keys() and all(exactly(a[k], b[k]) for k in a))
    return a == b


def test_plain_payload_roundtrip():
    message = Message(kind="k", src="a", dst="b",
                      payload={"x": 1, "y": 2.5, "z": "str", "w": None, "b": True})
    decoded = roundtrip(message)
    assert decoded.kind == "k"
    assert exactly(decoded.payload, message.payload)


def test_event_roundtrip():
    event = Event(sensor_id="door", seq=7, emitted_at=1.25, value=True,
                  size_bytes=4, epoch=3)
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"event": event}))
    assert decoded["event"] == event
    assert decoded["event"].epoch == 3
    assert decoded["event"].value is True


def test_command_roundtrip():
    command = Command(actuator_id="light", seq=2, issued_at=9.0, action="set",
                      value=False, issued_by="app@p1")
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"command": command}))
    assert decoded["command"] == command


def test_process_id_set_roundtrip():
    ids = ProcessIdSet({"p0", "p1"})
    decoded = roundtrip(Message(kind="k", src="a", dst="b", payload={"S": ids}))
    assert isinstance(decoded["S"], ProcessIdSet)
    assert set(decoded["S"]) == {"p0", "p1"}


def test_nested_containers_roundtrip():
    payload = {"ranges": [(1, 5), (9, 9)], "map": {"k": [1, 2]}}
    decoded = roundtrip(Message(kind="k", src="a", dst="b", payload=payload))
    # Tuples stay tuples: the payload arrives as it was sent.
    assert exactly(decoded.payload, payload)
    assert type(decoded["ranges"][0]) is tuple


def test_set_roundtrip_as_frozenset():
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"s": frozenset({"x", "y"}), "t": {1, 2}}))
    assert decoded["s"] == frozenset({"x", "y"})
    assert type(decoded["t"]) is frozenset and decoded["t"] == {1, 2}


def test_payloads_arrive_with_the_types_they_were_sent_with():
    """Version 2 sent JSON: int and None dict keys arrived as strings (and
    collided with string keys), tuples as lists. A replicated value must
    read back on a peer exactly as it was written."""
    value = {1: "a", None: 2, True: (1, 2), "1": "b", 2.5: [b"raw", -(2**70)]}
    message = Message("store_write", "p0", "p1",
                      {"key": "k", "lamport": 3, "writer": "p0", "value": value})
    decoded = roundtrip(message)
    assert exactly(decoded.payload, message.payload)
    assert decoded["value"][1] == (1, 2) and decoded["value"]["1"] == "b"
    assert exactly(roundtrip(Message("k", "a", "b", {"d": {1: "a", "1": "b"}}))["d"],
                   {1: "a", "1": "b"})


def test_unserializable_payload_rejected():
    with pytest.raises(WireError):
        encode_message(Message(kind="k", src="a", dst="b",
                               payload={"obj": object()}))


def test_malformed_body_rejected():
    with pytest.raises(WireError):
        decode_body(b"not json")
    with pytest.raises(WireError):
        decode_body(b'{"kind": "k"}')
    with pytest.raises(WireError):
        decode_body(b"[1, 2, 3]")
    with pytest.raises(WireError):
        decode_body(encode_message(Message("k", "a", "b", {"x": 1}))[HEADER_SIZE:-1])


def test_frame_carries_version_byte():
    frame = encode_message(Message(kind="k", src="a", dst="b", payload={}))
    assert frame[0] == WIRE_VERSION
    assert int.from_bytes(frame[1:5], "big") == len(frame) - HEADER_SIZE


def test_tag_arrays_follow_the_documented_field_order():
    """An Event is tag ``E``, then ``seq``, ``emitted_at`` and ``size_bytes``
    as one ``>qdq``, then ``sensor_id``, ``value`` and ``epoch`` as values;
    a Command is ``C``, the same ``>qdq`` (``seq``, ``issued_at``,
    ``size_bytes``), then ``actuator_id``, ``action``, ``value`` and
    ``issued_by``. ``seq`` and ``size_bytes`` are both int64s, so a swap
    must fail here first."""
    frame = encode_message(Message("k", "a", "b", {
        "e": Event("s", 1, 2.5, "v", 4, 3),
        "c": Command("light", 2, 9.0, "set", False, 8, "app@p1"),
    }))
    assert frame[HEADER_SIZE:] == (
        b"\x00"                                        # shape 0
        b"\x00\x0b"                                    # header length
        b"\x02\x01k\x01a\x01b\x01e\x01c"               # 2 keys; k, a, b; e, c
        b"E" b"\x00\x00\x00\x00\x00\x00\x00\x01"       # seq 1
        b"@\x04\x00\x00\x00\x00\x00\x00"               # emitted_at 2.5
        b"\x00\x00\x00\x00\x00\x00\x00\x04"            # size_bytes 4
        b"s\x00\x00\x00\x01s" b"s\x00\x00\x00\x01v"    # sensor_id, value
        b"i\x00\x00\x00\x00\x00\x00\x00\x03"           # epoch 3
        b"C" b"\x00\x00\x00\x00\x00\x00\x00\x02"       # seq 2
        b'@"\x00\x00\x00\x00\x00\x00'                  # issued_at 9.0
        b"\x00\x00\x00\x00\x00\x00\x00\x08"            # size_bytes 8
        b"s\x00\x00\x00\x05light" b"s\x00\x00\x00\x03set" b"F"
        b"s\x00\x00\x00\x06app@p1")


def _v_frame(version: int, body: bytes) -> bytes:
    return bytes([version]) + len(body).to_bytes(4, "big") + body


def test_version_1_frame_is_a_wire_error():
    """What the first revision wrote for ``Message("k", "a", "b", {})``:
    refused at its version byte, and its object body refused on its own."""
    assert WIRE_VERSION == 4
    body = b'{"kind":"k","src":"a","dst":"b","payload":{}}'
    frame = _v_frame(1, body)
    with pytest.raises(WireError, match="version"):
        split_frame(frame)
    with pytest.raises(WireError, match="version"):
        _frames_from_bytes(frame)
    with pytest.raises(WireError, match="shape"):
        decode_body(body)
    assert frame_kind(frame) is None


def test_version_2_frame_is_a_wire_error():
    """What the previous revision wrote for ``Message("k", "a", "b", {})``
    (a JSON array body): refused at its version byte, body and kind too."""
    body = b'["k","a","b",{}]'
    frame = _v_frame(2, body)
    with pytest.raises(WireError, match="version"):
        split_frame(frame)
    with pytest.raises(WireError, match="version"):
        _frames_from_bytes(frame)
    with pytest.raises(WireError):
        decode_body(body)
    assert frame_kind(frame) is None


def test_version_3_frame_is_a_wire_error():
    """The pinned version-3 Gapless forward: refused at its version byte,
    its body (a u16 header length where the shape byte goes) too."""
    body = (b"\x00\x24\x04\x0bgapless_fwd\x02p0\x02p1\x06sensor\x05event\x01S\x01V"
            b"s\x00\x00\x00\x04doorE" + bytes(24) + b"s\x00\x00\x00\x04doorTN"
            b"P\x00\x00\x00\x03\x02p0P\x00\x00\x00\x03\x02p1")
    frame = _v_frame(3, body)
    with pytest.raises(WireError, match="version"):
        split_frame(frame)
    with pytest.raises(WireError, match="version"):
        _frames_from_bytes(frame)
    for names in (None, NAMES):
        with pytest.raises(WireError):
            decode_body(body, names)
    assert frame_kind(frame) is None


# -- declared shapes: the refusals a shaped body can meet ---------------------------

#: A three-process home's table; "door" is id 0, p0..p2 are ids 3..5.
NAMES = Names(("door", "light", "lights", "p0", "p1", "p2"), ("p0", "p1", "p2"))


def _shaped_body() -> bytearray:
    """A Gapless forward's shape-1 body: shape, CRC at 1, src at 5, dst at
    7, sensor at 9, the event from 11, S at 37 and V at 41, then ``TN``."""
    event = Event(sensor_id="door", seq=7, emitted_at=1.25, value=True, size_bytes=4)
    frame = encode_message(Message("gapless_fwd", "p0", "p1", {
        "sensor": "door", "event": event,
        "S": ProcessIdSet({"p0"}), "V": ProcessIdSet({"p0", "p1", "p2"})}), NAMES)
    return bytearray(frame[HEADER_SIZE:])


def test_a_shaped_body_decodes_with_its_table_only():
    body = bytes(_shaped_body())
    assert decode_body(body, NAMES)["V"] == ProcessIdSet({"p0", "p1", "p2"})
    with pytest.raises(WireError, match="needs a names table"):
        decode_body(body)
    other = Names(NAMES.names + ("p3",), NAMES.processes + ("p3",))
    with pytest.raises(WireError, match="names table"):
        decode_body(body, other)


@pytest.mark.parametrize("offset, value, error", [
    (0, b"\x06", "unknown shape 6"),                   # past the declared rows
    (0, b"\xff", "unknown shape 255"),
    (5, b"\x00\x06", "IndexError"),                     # src: id 6 of a 6-name table
    (9, b"\xff\xff", "IndexError"),                     # sensor id past the table
    (11, b"\x00\x06", "IndexError"),                    # the event's sensor id
    (41, b"\x00\x00\x00\x08", "past the 3 processes"),  # V: bit 3 of 3 processes
    (37, b"\x80\x00\x00\x00", "past the 3 processes"),  # S: bit 31
    (45, b"?", "unknown value tag"),                  # the value's tag
])
def test_a_shaped_body_with_a_bad_field_is_refused(offset, value, error):
    body = _shaped_body()
    body[offset:offset + len(value)] = value
    with pytest.raises(WireError, match=error):
        decode_body(bytes(body), NAMES)


def test_a_shaped_body_cut_or_padded_is_refused():
    body = bytes(_shaped_body())
    for cut in range(len(body)):
        with pytest.raises(WireError):
            decode_body(body[:cut], NAMES)
    with pytest.raises(WireError, match="trailing"):
        decode_body(body + b"N", NAMES)


def _forward(**change) -> Message:
    return Message("gapless_fwd", change.pop("src", "p0"), "p1", {
        "sensor": "door", "event": Event("door", 7, 1.25, True, 4),
        "S": ProcessIdSet({"p0"}), "V": ProcessIdSet({"p0", "p1"}), **change})


@pytest.mark.parametrize("event", [
    Event("door", 7, 1.25, b"x" * MAX_FRAME, 4),     # past MAX_FRAME
    Event("door", 2**63, 1.25, True, 4),             # seq past int64
    Event("door", 7, 1.25, object(), 4),             # a value with no tag
])
def test_what_no_shape_can_carry_raises_wire_error(event):
    for names in (NAMES, None):
        with pytest.raises(WireError):
            encode_message(_forward(event=event), names)


class _Name(str):
    """An interned name's equal, of another type: it would decode as a str."""


def test_a_str_subclass_name_is_not_shaped():
    names = Names(NAMES.names, NAMES.processes)
    for message in (_forward(src=_Name("p0")), _forward(sensor=_Name("door"))):
        with contextlib.suppress(WireError):  # shape 0's own verdict
            encode_message(message, names)
    assert names.fallbacks == {("gapless_fwd", "type"): 2}


@pytest.mark.parametrize("where", ["kind", "src", "dst", "key"])
def test_a_str_subclass_name_is_refused_with_a_cold_and_a_warm_memo(where):
    """A str subclass equals the str it spells, so a header memo keyed by
    equality would carry it: it is refused before and after its plain
    equal was encoded."""
    name = f"memo-{where}"  # not in the memo yet

    def message(cls) -> Message:
        names = {"kind": "k", "src": "p0", "dst": "p1", "key": "x", where: cls(name)}
        return Message(names["kind"], names["src"], names["dst"], {names["key"]: 1})

    with pytest.raises(WireError, match="is not a str"):
        encode_message(message(_Name))
    plain = encode_message(message(str))  # memoizes the plain header
    with pytest.raises(WireError, match="is not a str"):
        encode_message(message(_Name))
    assert encode_message(message(str)) == plain


def test_names_of_a_plan_are_sorted_and_the_same_under_any_hash_seed():
    from repro.apps.scenarios import SCENARIOS

    plan, _devices = SCENARIOS["smoke3"].rt_deployment()
    names = Names.of(plan)
    expected = {*plan.processes, *plan.sensor_hosts, *plan.actuator_hosts,
                *(app.name for app in plan.apps)}
    assert names.names == tuple(sorted(expected))
    assert names.processes == tuple(plan.processes)
    probe = ("from repro.apps.scenarios import SCENARIOS; from repro.rt.wire import Names; "
             "print(Names.of(SCENARIOS['smoke3'].rt_deployment()[0]).crc)")
    crcs = {subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed}).stdout.strip() for seed in ("1", "2")}
    assert crcs == {str(names.crc)}


def test_wrong_version_rejected_loudly():
    frame = bytearray(encode_message(Message(kind="k", src="a", dst="b", payload={})))
    frame[0] = WIRE_VERSION + 1
    with pytest.raises(WireError, match="version"):
        split_frame(bytes(frame))


def test_oversized_length_rejected():
    header = bytes([WIRE_VERSION]) + (MAX_FRAME + 1).to_bytes(4, "big")
    with pytest.raises(WireError, match="MAX_FRAME"):
        split_frame(header + b"x")


def test_truncated_header_rejected():
    with pytest.raises(WireError, match="truncated"):
        split_frame(b"\x01\x00")


def test_length_body_mismatch_rejected():
    frame = encode_message(Message(kind="k", src="a", dst="b", payload={}))
    with pytest.raises(WireError):
        split_frame(frame + b"trailing")


def test_frame_kind_peeks_without_decoding():
    frame = encode_message(Message(kind="hb/keepalive", src="a", dst="b", payload={}))
    assert frame_kind(frame) == "hb/keepalive"
    assert frame_kind(b"\x01\x00\x00\x00\x03abc") is None
    # Only the kind is read: a payload past it is not looked at.
    garbled = encode_message(Message("gapless_fwd", "a", "b", {"x": 1}))[:-3] + b"???"
    assert frame_kind(garbled) == "gapless_fwd"


def _frames_from_bytes(data: bytes, **kwargs) -> list[bytes]:
    """Everything a :class:`FrameProtocol` delivers for ``data`` in one
    chunk, then EOF; the WireError that closed it is raised."""
    frames, error = split_chunks([data], **kwargs)
    if error is not None:
        raise error
    return frames


def test_read_frame_rejects_wrong_version_on_stream():
    bad = bytearray(encode_message(Message(kind="k", src="a", dst="b", payload={})))
    bad[0] = 9
    with pytest.raises(WireError, match="version"):
        _frames_from_bytes(bytes(bad))


def test_read_frame_rejects_oversized_length_on_stream():
    with pytest.raises(WireError, match="MAX_FRAME"):
        _frames_from_bytes(bytes([WIRE_VERSION]) + (2**31).to_bytes(4, "big"))


def test_read_frames_yields_bodies_or_whole_frames():
    frames = [encode_message(Message(kind=f"k{i}", src="a", dst="b",
                                     payload={"i": i})) for i in range(3)]
    stream = b"".join(frames)
    assert _frames_from_bytes(stream, raw=True) == frames
    bodies = _frames_from_bytes(stream)
    assert bodies == [frame[HEADER_SIZE:] for frame in frames]
    assert [decode_body(body)["i"] for body in bodies] == [0, 1, 2]


def test_read_frames_ends_cleanly_on_eof_mid_frame():
    frame = encode_message(Message(kind="k", src="a", dst="b", payload={}))
    for cut in (2, HEADER_SIZE, len(frame) - 1):  # in header, at body, in body
        assert _frames_from_bytes(frame + frame[:cut], raw=True) == [frame]


def test_read_frames_completes_a_frame_larger_than_the_chunk():
    """A 1 MB frame in 64 KB chunks: until its last byte, what the protocol
    keeps is the chunks themselves (never a growing copy), joined once at
    the end; the frames around it come out whole."""
    big = encode_message(Message(kind="sync", src="a", dst="b",
                                 payload={"blob": "x" * (1 << 20)}))
    small = encode_message(Message(kind="k", src="a", dst="b", payload={}))
    stream = small + big + small
    chunks = [stream[i:i + (64 << 10)] for i in range(0, len(stream), 64 << 10)]
    for raw in (True, False):
        assert split_chunks(chunks, raw=raw)[0] == [
            frame if raw else frame[HEADER_SIZE:] for frame in (small, big, small)]

    async def kept_pieces():
        delivered = []
        protocol = FrameProtocol(each_frame(delivered.append, raw=True), set())
        protocol.connection_made(None)
        for count, chunk in enumerate(chunks[:-1], 1):
            protocol.data_received(chunk)
            kept = protocol._pieces[1:]
            assert len(kept) == count - 1
            assert all(piece is fed for piece, fed in zip(kept, chunks[1:count]))
            assert delivered == [small]
        protocol.data_received(chunks[-1])
        return delivered

    assert asyncio.run(kept_pieces()) == [small, big, small]


# -- frame_kind: one slice at a fixed offset ----------------------------------------


def _frame(body: bytes) -> bytes:
    return bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize("kind", ["gapless_fwd", 'a"b', "a\\b", "é", "", "k\n"])
def test_frame_kind_of_encoded_message(kind):
    frame = encode_message(Message(kind=kind, src="a", dst="b", payload={"x": 1}))
    assert frame_kind(frame) == kind == decode_body(split_frame(frame)[1]).kind


@pytest.mark.parametrize("body, kind", [
    (b' ["spaced", "a", "b", {}]', None),
    ('["é","a","b",{}]'.encode("utf-8"), None),
    (b'["a\\u0041","a","b",{}]', None),
    (b'[7,"a","b",{}]', None),
    (b'["torn', None),
    (b'["a"]', None),
    (b'"abc"', None),
    (b'{"src":"a","kind":"late","dst":"b","payload":{}}', None),
    (b' {"kind": "spaced", "src": "a"}', None),
    (b'{"kind":7}', None),
    (b'{"kind":"torn', None),
    (b"[1,2]", None),
    (b"\xff\xfe", None),
    (b"", None),
])
def test_frame_kind_falls_back_to_the_full_parse(body, kind):
    """The JSON bodies of versions 1 and 2, each of which version 2 sent
    through a full parse when its prefix peek failed. Versions 3 and 4
    have no fallback: behind a version-4 byte, none of them has a kind
    (each starts with a byte no shape is declared at, or is empty)."""
    assert frame_kind(_frame(body)) == kind


def test_frame_kind_of_garbage_is_none():
    assert frame_kind(b"") is None
    assert frame_kind(b"\x01\x00") is None
    assert frame_kind(bytes([WIRE_VERSION + 1]) + b'\x00\x00\x00\x02{}') is None
    assert frame_kind(_frame(b"\x00\x00\x04\x00\x02\xff\xfe")) is None  # bad UTF-8
    assert frame_kind(_frame(b"\x00\x00\x04\x00\x09abc")) is None       # kind cut short


# -- error surface: nothing but WireError leaves the codec --------------------------


class _Level(int):
    """An int subclass: it would decode as a plain int, so it is refused."""


@pytest.mark.parametrize("payload", [
    {"obj": object()},
    {"deep": {"list": [1, {"obj": object()}]}},
    {"event": Event(sensor_id="s", seq=1, emitted_at=0.0, value=object(),
                    size_bytes=4)},
    {"key": {(1, object()): "unencodable key"}},
    {"mixed": {1, "a"}},                        # an unsortable set
    {"bytes": bytearray(b"raw")},
    {"level": _Level(3)},
    {"event": Event(sensor_id="s", seq=1, emitted_at=0, value=1, size_bytes=4)},
    {"event": Event(sensor_id="s", seq=True, emitted_at=0.0, value=1, size_bytes=4)},
    {"command": Command("light", 2**63, 9.0, "set")},
    {"ids": ProcessIdSet({"p" * 256})},         # a name over 255 bytes
    {"ids": ProcessIdSet({1})},
    {"surrogate": "\ud800"},
])
def test_unserializable_values_raise_wire_error(payload):
    with pytest.raises(WireError):
        encode_message(Message(kind="k", src="a", dst="b", payload=payload))


@pytest.mark.parametrize("message", [
    Message("k" * 256, "a", "b", {}),
    Message("k", "a", "b", {"x" * 256: 1}),
    Message("k", "a", "b", {f"k{i}": i for i in range(256)}),
    Message("k", "a", "b", {1: "an int key"}),
    Message("k", "a", "b", {"big": "x" * (MAX_FRAME + 1)}),
])
def test_unframeable_messages_raise_wire_error(message):
    with pytest.raises(WireError):
        encode_message(message)


def test_self_containing_payload_raises_wire_error():
    loop: list = []
    loop.append(loop)
    with pytest.raises(WireError):
        encode_message(Message(kind="k", src="a", dst="b", payload={"l": loop}))
    nested: object = None
    for _ in range(MAX_DEPTH + 1):
        nested = [nested]
    with pytest.raises(WireError, match="deeper"):
        encode_message(Message(kind="k", src="a", dst="b", payload={"l": nested}))


def _head(*names: str, keys: int | None = None) -> bytes:
    """A version-3 header (with its u16 length) holding ``names``: behind
    the shape-0 byte, the start of a version-4 body."""
    keys = len(names) - 3 if keys is None else keys
    head = bytes([keys]) + b"".join(
        bytes([len(n.encode())]) + n.encode() for n in names)
    return len(head).to_bytes(2, "big") + head


_ONE = _head("k", "a", "b", "x")   # one payload key, "x"


@pytest.mark.parametrize("body", [
    b"\xff\xfe{}",                                    # bad UTF-8
    b'"a string"', b"7", b"null",                       # not an array
    b'"abcd"',                                          # ... nor four characters
    b'{"kind":"k","src":"a","dst":"b"}',                # version-1 object bodies: an
    b'{"kind":"k","src":"a","dst":"b","payload":{}}',   # unpacking yields their keys
    b'{"__set__":[1]}',                                 # a tag where the body goes
    b'["k","a","b"]',                                   # no payload
    b'["k","a","b",{},{}]',                             # ... one field too many
    b'[7,"a","b",{}]',                                  # kind, src, dst not strings
    b'["k",null,"b",{}]',
    b'["k","a",["b"],{}]',
    b'["k","a","b",[1]]',                               # payload not an object
    b'["k","a","b",null]',
    b'["k","a","b",{"__set__":[1]}]',                   # ... but a tag
    b'["k","a","b",{"e":{"__event__":["s",1]}}]',       # tag array, fields missing
    b'["k","a","b",{"e":{"__event__":["s",1,0,1,4,null,1]}}]',  # ... one too many
    b'["k","a","b",{"e":{"__event__":{"sensor_id":"s","seq":1,"emitted_at":0,'
    b'"value":1,"size_bytes":4,"epoch":null}}}]',       # a version-1 object tag
    b'["k","a","b",{"c":{"__command__":7}}]',           # tag value not an array
    b'["k","a","b",{"c":{"__command__":["light",2,9.0,"set"]}}]',
    b'["k","a","b",{"p":{"__pidset__":3}}]',
    b'["k","a","b",{"p":{"__pidset__":"p0"}}]',
    b'["k","a","b",{"s":{"__set__":[[1]]}}]',           # an unhashable member
    b"[" * 100_000,                                     # nesting past the recursion limit
    # Version-3 bodies (shape-0 fields), each broken in one way.
    b"", b"\x00",                                       # no header length
    b"\x00\x00",                                        # an empty header
    b"\x00\x03\x00\x05k",                               # a name past the header
    _head("k", "a", "b", keys=1),                       # fewer names than keys + 3
    _head("k", "a", "b", "x", keys=0),                  # ... more
    b"\x00\x05\x00\x01k\x01a\x01",                      # dst cut short
    b"\x00\x07\x00\x01\xff\x01a\x01b",                  # a kind that is not UTF-8
    _head("k", "a", "b", "x", "x") + b"NN",             # a duplicate payload key
    _head("k", "a", "b") + b"N",                        # trailing bytes
    _ONE,                                               # a value missing
    _ONE + b"?",                                        # an unknown tag
    _ONE + b"NN",                                       # trailing bytes after it
    _ONE + b"i\x00\x00\x00",                            # an int cut short
    _ONE + b"f\x00",                                    # ... a float
    _ONE + b"s\x00\x00\x00\x09abc",                     # a str past the end
    _ONE + b"s\x00\x00\x00\x02\xff\xfe",                # ... not UTF-8
    _ONE + b"b\x00\x00\x00\x05ab",                      # bytes past the end
    _ONE + b"I\x00\x00\x00\x09\x01",                    # a big int past the end
    _ONE + b"l\xff\xff\xff\xff" + b"N" * 10,            # a count of 2**32 - 1
    _ONE + b"d\x00\x00\x00\x06" + b"N" * 11,            # a dict needs two per item
    _ONE + b"d\x00\x00\x00\x02i" + bytes(8) + b"Ni" + bytes(8) + b"N",  # duplicate key
    _ONE + b"d\x00\x00\x00\x01l\x00\x00\x00\x00N",      # an unhashable key
    _ONE + b"S\x00\x00\x00\x01l\x00\x00\x00\x00",       # ... set member
    _ONE + b"l\x00\x00\x00\x01" * 100 + b"N",           # nesting past MAX_DEPTH
    _ONE + (b"E" + bytes(24) + b"N") * 100 + b"NN" * 100,  # ... inside Event values
    _ONE + b"E" + bytes(10),                            # an Event stamp cut short
    _ONE + b"C" + bytes(24) + b"NNN",                   # a Command field missing
    _ONE + b"P\x00\x00\x00\x03\x05ab",                  # a pid name past the set
    _ONE + b"P\x00\x00\x00\x02\x01\xff",                # ... not UTF-8
    _ONE + b"P\x00\x00\x00\x09\x01a",                   # the set past the end
])
def test_malformed_bodies_raise_wire_error(body):
    """Each body as it stands and as shape-0 fields, with and without a
    names table."""
    for data in (body, b"\x00" + body):
        for names in (None, NAMES):
            with pytest.raises(WireError):
                decode_body(data, names)


def test_nested_tagged_values_roundtrip():
    inner = Event(sensor_id="cam", seq=1, emitted_at=0.5, value={1, 2}, size_bytes=4)
    outer = Event(sensor_id="hub", seq=2, emitted_at=1.0,
                  value=[inner, {"ids": ProcessIdSet({"p0"})}], size_bytes=8)
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"event": outer, "sets": [{"x"}, set()]}))
    assert decoded["event"] == outer
    assert decoded["event"].value == [inner, {"ids": ProcessIdSet({"p0"})}]
    assert decoded["event"].value[0].value == frozenset({1, 2})
    assert decoded["sets"] == [frozenset({"x"}), frozenset()]


# -- the journal: the frames' codec, one length-prefixed value per record -----------

#: The first record a child writes below, byte for byte.
FIRST_RECORD = (
    b"\x00\x00\x00K"                                    # u32 record length 75
    b"l\x00\x00\x00\x04"                                # a list of four
    b"s\x00\x00\x00\x05trace"
    b"f?\xf8\x00\x00\x00\x00\x00\x00"                   # 1.5
    b"s\x00\x00\x00\x06ingest"
    b"d\x00\x00\x00\x02"                                # the fields, a dict of two
    b"s\x00\x00\x00\x06sensor" b"s\x00\x00\x00\x02s1"
    b"s\x00\x00\x00\x03seq" b"i\x00\x00\x00\x00\x00\x00\x00\x03"
)
#: SHA-256 of the whole three-record journal.
JOURNAL_SHA256 = "9c783a6fb569a1fd7e60ec8d35e0fae8aa24a9af48dfedd1c12e3c9890f76601"

JOURNAL_RECORDS = [
    ["trace", 1.5, "ingest", {"sensor": "s1", "seq": 3}],
    ["trace", 2.0, "odd", {
        "event": Event("s1", 3, 1.25, {"k": (1, 2)}, 4, epoch=None),
        "members": ProcessIdSet({"p0", "p1"}), "tags": frozenset({"a", "b"}),
        "cmd": Command("light", 2, 9.0, "set", value=False, issued_by="app@p1")}],
    ["actuation", 2.5, "light", ("light", "app@p1", 2), "set", frozenset({1, 2})],
]


def _write_journal(path):
    from repro.rt.child import JournalTrace

    journal = JournalTrace(str(path))
    journal.record(1.5, "ingest", sensor="s1", seq=3)
    journal.record(
        2.0, "odd",
        event=Event("s1", 3, 1.25, {"k": (1, 2)}, 4, epoch=None),
        members=ProcessIdSet({"p1", "p0"}), tags=frozenset({"b", "a"}),
        cmd=Command("light", 2, 9.0, "set", value=False, issued_by="app@p1"),
    )
    journal.journal_actuation(2.5, "light", ("light", "app@p1", 2), "set",
                              frozenset({1, 2}))
    journal._journal.close()
    return path.read_bytes()


def test_journal_records_are_pinned_v3_values(tmp_path):
    data = _write_journal(tmp_path / "p0.journal")
    assert data.startswith(FIRST_RECORD)
    assert hashlib.sha256(data).hexdigest() == JOURNAL_SHA256
    assert data[len(FIRST_RECORD):] == b"".join(map(encode_record, JOURNAL_RECORDS[1:]))


def test_journal_reads_back_exactly_up_to_a_torn_tail(tmp_path):
    from repro.rt.proc import _read_journal

    path = tmp_path / "p0.journal"
    data = _write_journal(path)
    records = _read_journal(str(path))
    assert exactly(records, JOURNAL_RECORDS)
    assert records[1][3]["event"].value == {"k": (1, 2)}
    assert isinstance(records[1][3]["members"], ProcessIdSet)
    # A SIGKILL mid-write leaves a record whose length runs past the end
    # (or a tail too short to hold a length): every record before it loads.
    last = len(data) - len(encode_record(JOURNAL_RECORDS[2]))
    for cut in (last + 1, last + 3, last + 4, last + 20, len(data) - 1):
        path.write_bytes(data[:cut])
        assert exactly(_read_journal(str(path)), JOURNAL_RECORDS[:2])
    assert _read_journal(str(tmp_path / "never-written.journal")) == []


def test_a_json_journal_is_refused(tmp_path):
    """A version-2 (JSON lines) journal is not read as a torn empty one:
    its first four bytes are a length over MAX_FRAME."""
    from repro.rt.proc import _read_journal

    path = tmp_path / "p0.journal"
    path.write_text('["trace", 1.5, "ingest", {"sensor": "s1", "seq": 3}]\n')
    with pytest.raises(WireError, match="MAX_FRAME"):
        _read_journal(str(path))


@pytest.mark.parametrize("record", [
    b"\x00\x00\x00\x00",                    # an empty record
    b"\x00\x00\x00\x02NN",                  # trailing bytes
    b"\x00\x00\x00\x01?",                   # an unknown tag
    b"\x00\x00\x00\x05l\xff\xff\xff\xff",   # a count past the record
])
def test_malformed_journal_records_raise_wire_error(record):
    with pytest.raises(WireError):
        decode_records(encode_record(["trace", 1.0, "k", {}]) + record)


# -- the sender: one PeerSender per peer, no task and no queue hop ------------------


def test_peer_sender_closes_the_writer_it_drops(monkeypatch):
    """A peer that accepts and then hangs up mid-stream: the sender finds
    its writer closed at the next flush and redials. The dropped writer
    must be closed and the error its stream stored collected, not left to
    the garbage collector — which logs an uncollected one as "Future
    exception was never retrieved" when it happens to free the future first."""
    dialed = []
    real_open = asyncio.open_connection

    async def recording_open(*args, **kwargs):
        reader, writer = await real_open(*args, **kwargs)
        dialed.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", recording_open)

    async def go():
        async def hang_up(reader, writer):
            await reader.read(1)
            writer.transport.abort()

        server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        sender = PeerSender(server.sockets[0].getsockname()[:2])
        frame = encode_message(Message("k", "a", "b", {"pad": "x" * 1000}))
        loop = asyncio.get_running_loop()
        try:
            async with asyncio.timeout(10):
                while len(dialed) < 2:
                    sender.put(loop.time(), frame)
                    await asyncio.sleep(0.01)
        finally:
            await sender.close()
            server.close()
            await server.wait_closed()
        return dialed[0]

    dropped = asyncio.run(go())
    assert dropped.is_closing()
    stored = dropped._protocol._get_close_waiter(dropped)
    assert stored.done() and not stored._log_traceback  # already collected
    assert isinstance(stored.exception(), OSError)


def test_frames_put_during_the_first_dial_arrive_complete_and_in_order(monkeypatch):
    """The first dial is held open until every frame is put (some in the
    loop turn of the first ``put``, most turns later, while the dial is in
    flight): they wait for the connection, then leave in ``put`` order,
    none lost and no second dial."""
    real_open = asyncio.open_connection
    dials = []

    async def held_open(*args, **kwargs):
        dials.append(args)
        await dialled.wait()
        return await real_open(*args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", held_open)

    async def go():
        received, inbound = [], set()
        server = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(
                each_frame(lambda body: received.append(decode_body(body)["i"])), inbound),
            "127.0.0.1", 0)
        sender = PeerSender(server.sockets[0].getsockname()[:2])
        try:
            for i in range(300):
                assert sender.put(0.0, encode_message(Message("k", "a", "b", {"i": i})))
                if i % 50 == 49:
                    await asyncio.sleep(0)
            assert len(dials) == 1 and received == []
            dialled.set()
            async with asyncio.timeout(5):
                while len(received) < 300:
                    await asyncio.sleep(0.01)
        finally:
            await sender.close()
            server.close()
            await server.wait_closed()
            await close_accepted(inbound)
        return received

    dialled = asyncio.Event()
    assert asyncio.run(go()) == list(range(300))
    assert len(dials) == 1


def test_a_peer_that_never_reads_gets_send_dropped_not_a_growing_buffer(monkeypatch):
    """A node sending to a peer that accepts and never reads: once the
    socket buffers are full, the sender stops writing at the transport's
    high-water mark and frames pile up in its queue until the bound, after
    which every send is dropped and traced as ``send_dropped``."""
    from repro.core.scenario import rt_deployment
    from repro.core.stack import RT_STACK
    from repro.rt import node as node_module

    limit = 50
    monkeypatch.setattr(node_module, "SEND_QUEUE_LIMIT", limit)
    pad = "x" * 4096

    async def go():
        stalled = []

        async def never_read(reader, writer):
            stalled.append(writer)  # held open, never read

        server = await asyncio.start_server(never_read, "127.0.0.1", 0)
        plan, device_info = rt_deployment(("hub", "tv"), {"s": ("hub",)}, {}, {}, [])
        node = node_module.AsyncRivuletNode(
            "hub", 0, {"tv": server.sockets[0].getsockname()[:2]}, plan,
            device_info, RT_STACK)
        await node.start()
        try:
            sent = 0
            async with asyncio.timeout(20):
                node.send("tv", "bulk", pad=pad)
                sender = node._senders["tv"]
                while sender._writer is None:  # connected before the flood
                    await asyncio.sleep(0.01)
                while not node.traced.of_kind("send_dropped"):
                    for _ in range(16):  # fewer than the bound per loop turn
                        node.send("tv", "bulk", pad=pad)
                    sent += 16
                    assert sent * len(pad) < 64 << 20, "nothing was ever dropped"
                    await asyncio.sleep(0)
            transport = sender._writer.transport
            high = transport.get_write_buffer_limits()[1]
            assert len(sender._queue) == limit
            assert transport.get_write_buffer_size() <= high + limit * (len(pad) + 64)
            for _ in range(10):
                node.send("tv", "bulk", pad=pad)
            assert len(sender._queue) == limit
            drops = node.traced.of_kind("send_dropped")
            assert len(drops) >= 10
            assert {(d.fields["dst"], d.fields["reason"]) for d in drops} == {
                ("tv", "queue_full")}
        finally:
            await node.stop()
            for writer in stalled:
                writer.close()
            server.close()
            await server.wait_closed()

    asyncio.run(go())
