"""Property-based tests for the asyncio wire format: exact round trips,
pinned version-4 bytes, and a decoder that raises nothing but WireError."""

import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.events import Command, Event
from repro.core.plan import DeploymentPlan
from repro.net.message import Message
from repro.net.wire import ProcessIdSet
from repro.rt import wire
from repro.rt.wire import (
    HEADER_SIZE,
    MAX_FRAME,
    MEMO_CAP,
    WIRE_VERSION,
    WireError,
    decode_body,
    decode_records,
    encode_message,
    encode_record,
    frame_kind,
    split_frame,
)
from tests.helpers import split_chunks

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=30),
)

#: Sets of one scalar type (members must sort, or the encoder refuses them).
scalar_sets = st.one_of(
    st.frozensets(st.integers(-50, 50), max_size=4),
    st.frozensets(st.text(max_size=4), max_size=4),
)

nested_values = st.recursive(
    st.one_of(json_scalars, scalar_sets),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

events = st.builds(
    Event,
    sensor_id=st.text(min_size=1, max_size=12),
    seq=st.integers(1, 2**31),
    emitted_at=st.floats(0, 1e9, allow_nan=False),
    value=nested_values,
    size_bytes=st.integers(0, 65_536),
    epoch=st.one_of(st.none(), st.integers(0, 10**6)),
)

commands = st.builds(
    Command,
    actuator_id=st.text(min_size=1, max_size=12),
    seq=st.integers(1, 2**31),
    issued_at=st.floats(0, 1e9, allow_nan=False),
    action=st.sampled_from(["set", "toggle", "é"]),
    value=nested_values,
    size_bytes=st.integers(0, 64),
    issued_by=st.text(max_size=8),
)

pidsets = st.sets(st.text(min_size=1, max_size=8), max_size=6).map(ProcessIdSet)

payload_values = st.one_of(nested_values, events, commands, pidsets)


#: A three-process home's table: ids are positions, the mask counts p0, p1, p2.
NAMES = wire.Names(("door", "light", "lights", "p0", "p1", "p2"), ("p0", "p1", "p2"))


def roundtrip(message: Message) -> Message:
    frame = encode_message(message)
    version, body = split_frame(frame)
    assert version == WIRE_VERSION
    return decode_body(body)


def _decoded_form(value):
    """What ``decode_body`` is specified to hand back for an encoded value:
    the value itself, except that a ``set`` comes back as a ``frozenset``."""
    if isinstance(value, (Event, Command)):
        return type(value)(**{
            **{f: getattr(value, f) for f in value.__dataclass_fields__},
            "value": _decoded_form(value.value)})
    if type(value) is set:
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_decoded_form, value))
    if isinstance(value, dict):
        return {_decoded_form(k): _decoded_form(v) for k, v in value.items()}
    return value


def _same(a, b) -> bool:
    """Equality of identical ``type()`` at every level: inside Event and
    Command fields, set members and dict keys too, with NaN equal to itself."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (Event, Command)):
        return all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(a[ka], b[kb]) for ka, kb in zip(a, b))
    if isinstance(a, frozenset):
        return a == b and sorted(map(type, a), key=str) == sorted(map(type, b), key=str)
    return a == b


@given(st.dictionaries(st.text(min_size=1, max_size=10), payload_values,
                       max_size=5),
       st.text(min_size=1, max_size=10))
def test_roundtrip_preserves_payload(payload, kind):
    message = Message(kind=kind, src="a", dst="b", payload=payload)
    decoded = roundtrip(message)
    assert decoded.kind == kind
    assert decoded.src == "a" and decoded.dst == "b"
    assert _same(decoded.payload, _decoded_form(payload))


@given(events)
def test_event_roundtrip_exact(event):
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"event": event}))
    assert decoded["event"] == event
    assert _same(decoded["event"], event)


# -- every encodable type, nested anywhere, arrives with its own type ----------------


#: Hashable values, for dict keys and set members.
keys = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=6), st.binary(max_size=4),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.sets(st.integers(-50, 50), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
        st.frozensets(st.tuples(st.integers(0, 3), st.binary(max_size=2)), max_size=3),
        st.builds(
            Event, sensor_id=st.text(min_size=1, max_size=8),
            seq=st.integers(-(2**63), 2**63 - 1), emitted_at=st.floats(),
            value=children, size_bytes=st.integers(0, 65_536),
            epoch=st.one_of(st.none(), st.integers(0, 10**6)),
        ),
        st.builds(
            Command, actuator_id=st.text(min_size=1, max_size=8),
            seq=st.integers(1, 2**31), issued_at=st.floats(0, 1e9),
            action=st.sampled_from(["set", "toggle", "é"]), value=children,
            size_bytes=st.integers(0, 64), issued_by=st.text(max_size=8),
        ),
    )


wire_values = st.recursive(
    st.one_of(json_scalars, pidsets, keys, st.floats(), st.integers(),
              st.binary(max_size=8)),
    _containers, max_leaves=10,
)


@given(st.dictionaries(st.text(min_size=1, max_size=10), wire_values, max_size=5),
       st.text(max_size=12), st.text(max_size=6))
@example({"v": {1: "a", None: 2, True: (1, 2)}, "d": {1: "a", "1": "b"}}, "k", "a")
def test_frames_roundtrip_with_identical_types(payload, kind, src):
    message = Message(kind=kind, src=src, dst="b", payload=payload)
    frame = encode_message(message)
    assert frame_kind(frame) == kind
    decoded = decode_body(split_frame(frame)[1])
    assert (decoded.kind, decoded.src, decoded.dst) == (kind, src, "b")
    assert list(decoded.payload) == list(payload)
    assert _same(decoded.payload, _decoded_form(payload))
    record = encode_record(["trace", 1.0, kind, payload])
    assert _same(decode_records(record), [["trace", 1.0, kind, _decoded_form(payload)]])


# -- declared shapes: what fits a row is shaped, anything else is shape 0 --------------

table_names = st.text(min_size=1, max_size=8)


@st.composite
def tables(draw) -> wire.Names:
    """The names table of a generated plan."""
    processes = draw(st.lists(table_names, min_size=1, max_size=8, unique=True))
    host = [processes[0]]
    sensors = draw(st.lists(table_names, max_size=4, unique=True))
    actuators = draw(st.lists(table_names, max_size=4, unique=True))
    return wire.Names.of(DeploymentPlan(
        processes, dict.fromkeys(sensors, host), dict.fromkeys(actuators, host)))


def _stamped(cls, name_field: str, at_field: str, names: wire.Names, tagged):
    """An Event or a Command whose name is interned and whose stamp fits."""
    return st.builds(cls, **{
        name_field: st.sampled_from(names.names),
        "seq": st.integers(-(2**63), 2**63 - 1), at_field: st.floats(),
        "size_bytes": st.integers(-(2**63), 2**63 - 1), **tagged})


def shaped_messages(names: wire.Names):
    """Messages of every declared kind that fit their row in ``names``."""
    name = st.sampled_from(names.names)
    by_codec = {
        "name": name,
        "pids": st.sets(st.sampled_from(names.processes)).map(ProcessIdSet),
        "event": _stamped(Event, "sensor_id", "emitted_at", names, {
            "value": wire_values, "epoch": st.one_of(st.none(), st.integers())}),
        "command": _stamped(Command, "actuator_id", "issued_at", names, {
            "action": json_scalars, "value": wire_values, "issued_by": json_scalars}),
    }
    return st.sampled_from(wire.SHAPES).flatmap(lambda shape: st.builds(
        Message, st.just(shape[0]), name, name,
        st.tuples(*(by_codec[codec] for _key, codec in shape[1])).map(
            lambda values: dict(zip((key for key, _codec in shape[1]), values)))))


def _shape_of(kind: str) -> int:
    return [row_kind for row_kind, _row in wire.SHAPES].index(kind) + 1


tables_and_messages = tables().flatmap(
    lambda names: st.tuples(st.just(names), shaped_messages(names)))


def _decodes_exactly(frame: bytes, message: Message, names: wire.Names) -> None:
    decoded = decode_body(split_frame(frame)[1], names)
    assert (decoded.kind, decoded.src, decoded.dst) == (message.kind, message.src, message.dst)
    assert frame_kind(frame) == message.kind
    assert list(decoded.payload) == list(message.payload)
    assert _same(decoded.payload, _decoded_form(message.payload))


@given(tables_and_messages)
def test_declared_kinds_roundtrip_in_their_shape(case):
    names, message = case
    frame = encode_message(message, names)
    assert frame[HEADER_SIZE] == _shape_of(message.kind)
    assert names.fallbacks == {}
    _decodes_exactly(frame, message, names)
    # The same message without a table, and a table from the same plan.
    _decodes_exactly(encode_message(message), message, names)
    twin = wire.Names(names.names, names.processes)
    assert decode_body(split_frame(frame)[1], twin).kind == message.kind


def _off_shape(message: Message, names: wire.Names, push: str, data) -> Message:
    """``message`` with one thing pushed off its row, for the ``push`` reason."""
    payload = dict(message.payload)
    if push == "keys":
        return Message(message.kind, message.src, message.dst, dict(reversed(payload.items())))
    key = data.draw(st.sampled_from([*payload, None]))
    if push == "name":
        stranger = data.draw(table_names.filter(lambda n: n not in names.ids))
        if key is None:
            return Message(message.kind, stranger, message.dst, payload)
        value = payload[key]
        if isinstance(value, ProcessIdSet):
            payload[key] = ProcessIdSet({*value, stranger})
        elif isinstance(value, Event):
            payload[key] = dataclasses.replace(value, sensor_id=stranger)
        elif isinstance(value, Command):
            payload[key] = dataclasses.replace(value, actuator_id=stranger)
        else:
            payload[key] = stranger
    else:  # "type": still encodable, as another type
        value = payload[key or next(iter(payload))]
        if isinstance(value, ProcessIdSet):
            value = frozenset(value)
        elif isinstance(value, Event):
            value = dataclasses.replace(value, sensor_id=len(value.sensor_id))
        elif isinstance(value, Command):
            value = dataclasses.replace(value, actuator_id=(value.actuator_id,))
        else:
            value = [value]
        payload[key or next(iter(payload))] = value
    return Message(message.kind, message.src, message.dst, payload)


@given(tables_and_messages, st.sampled_from(["keys", "name", "type"]), st.data())
def test_a_message_off_its_shape_roundtrips_as_shape_0(case, push, data):
    names, message = case
    message = _off_shape(message, names, push, data)
    frame = encode_message(message, names)
    assert frame[HEADER_SIZE] == 0
    assert names.fallbacks == {(message.kind, push): 1}
    _decodes_exactly(frame, message, names)


@given(tables_and_messages, st.sampled_from(["seq", "size_bytes"]))
def test_a_bool_stamp_is_refused_in_every_shape(case, field):
    """``q`` would pack True as 1 and decode an int: refused with or
    without a table, never sent as another type."""
    names, message = case
    key, value = next((k, v) for k, v in message.payload.items()
                      if isinstance(v, (Event, Command)))
    payload = {**message.payload, key: dataclasses.replace(value, **{field: True})}
    off = Message(message.kind, message.src, message.dst, payload)
    for table in (names, None):
        with pytest.raises(WireError):
            encode_message(off, table)


# -- the version-4 bytes of two real messages ----------------------------------------

def test_gapless_forward_bytes_are_pinned():
    event = Event(sensor_id="door", seq=7, emitted_at=1.25, value=True, size_bytes=4)
    message = Message("gapless_fwd", "p0", "p1", {
        "sensor": "door", "event": event,
        "S": ProcessIdSet({"p0"}), "V": ProcessIdSet({"p2", "p0", "p1"})})
    frame = encode_message(message, NAMES)
    assert NAMES.crc == 0x22E454A7
    assert frame == (
        b"\x04\x00\x00\x00\x2f"                             # version 4, 47 B body
        b"\x01" b"\x22\xe4\x54\xa7"                          # shape 1, the table's CRC32
        b"\x00\x03\x00\x04"                                 # src p0, dst p1
        b"\x00\x00"                                         # sensor door
        b"\x00\x00" b"\x00\x00\x00\x00\x00\x00\x00\x07"        # event: door, seq 7
        b"?\xf4\x00\x00\x00\x00\x00\x00"                    # emitted_at 1.25
        b"\x00\x00\x00\x00\x00\x00\x00\x04"                 # size_bytes 4
        b"\x00\x00\x00\x01" b"\x00\x00\x00\x07"               # S = {p0}, V = {p0, p1, p2}
        b"T" b"N")                                          # value, epoch
    assert frame_kind(frame) == "gapless_fwd"
    # Without a table it is shape 0: the version-3 body behind a zero byte.
    plain = encode_message(message)
    assert plain[HEADER_SIZE:HEADER_SIZE + 3] == b"\x00\x00\x24"
    assert len(plain) == 111 and frame_kind(plain) == "gapless_fwd"


def test_cmd_fwd_bytes_are_pinned():
    command = Command("light", 3, 2.5, "on", value=None, issued_by="lights@p0")
    frame = encode_message(Message("cmd_fwd", "p0", "p2", {
        "actuator": "light", "command": command, "app": "lights"}), NAMES)
    assert frame == (
        b"\x04\x00\x00\x00\x3d"
        b"\x05" b"\x22\xe4\x54\xa7" b"\x00\x03\x00\x05"         # shape 5, CRC, p0 -> p2
        b"\x00\x01"                                         # actuator light
        b"\x00\x01" b"\x00\x00\x00\x00\x00\x00\x00\x03"        # command: light, seq 3
        b"@\x04\x00\x00\x00\x00\x00\x00"                    # issued_at 2.5
        b"\x00\x00\x00\x00\x00\x00\x00\x08"                 # size_bytes 8
        b"\x00\x02"                                         # app lights
        b"s\x00\x00\x00\x02on" b"N"                          # action, value
        b"s\x00\x00\x00\x09lights@p0")                       # issued_by
    assert frame_kind(frame) == "cmd_fwd"


# -- fuzz: hostile bytes raise WireError and nothing else ----------------------------


def _decode_or_wire_error(fn, data) -> None:
    try:
        fn(data)
    except WireError:
        pass


def _read_all(streams) -> None:
    """Feed every stream to a :class:`FrameProtocol` (bodies and raw frames);
    only a WireError may end one early, and any other exception escapes."""
    for data in streams:
        for raw in (False, True):
            _frames, error = split_chunks([data], raw=raw)
            assert error is None or isinstance(error, WireError)


def _all_decoders(data: bytes) -> None:
    _decode_or_wire_error(decode_body, data)
    _decode_or_wire_error(lambda body: decode_body(body, NAMES), data)
    _decode_or_wire_error(split_frame, data)
    _decode_or_wire_error(decode_records, data)
    _decode_or_wire_error(frame_kind, data)


#: A frame whose body nests lists far past MAX_DEPTH.
DEPTH_BOMB = b"\x00\x00\x06\x01\x00\x00\x00\x01x" + b"l\x00\x00\x00\x01" * 10_000 + b"N"


@settings(max_examples=300)
@given(st.binary(max_size=200))
@example(DEPTH_BOMB)
@example(bytes([WIRE_VERSION]) + len(DEPTH_BOMB).to_bytes(4, "big") + DEPTH_BOMB)
@example(b"\x00\x00\x06\x01\x00\x00\x00\x01x" + b"l\xff\xff\xff\xff" + bytes(10))
def test_arbitrary_bytes_raise_only_wire_error(data):
    _all_decoders(data)
    _all_decoders(bytes([WIRE_VERSION]) + len(data).to_bytes(4, "big") + data)
    _all_decoders(len(data).to_bytes(4, "big") + data)
    _read_all([data, bytes([WIRE_VERSION]) + len(data).to_bytes(4, "big") + data])


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=6), wire_values, max_size=3),
       st.integers(1, 255))
def test_every_truncation_and_byte_flip_raises_only_wire_error(payload, mask):
    frame = encode_message(Message("k", "a", "b", payload))
    record = encode_record(["trace", 1.0, "k", payload])
    variants = []
    for whole in (frame, record):
        variants += [whole[:cut] for cut in range(len(whole))]
        variants += [whole[:i] + bytes([whole[i] ^ mask]) + whole[i + 1:]
                     for i in range(len(whole))]
    for data in variants:
        _all_decoders(data)
        _all_decoders(data[HEADER_SIZE:])
    _read_all(variants[: 2 * len(frame)])


@settings(max_examples=40, deadline=None)
@given(shaped_messages(NAMES), st.integers(1, 255))
@example(Message("gapless_fwd", "p0", "p1", {
    "sensor": "door", "event": Event("door", 1, 0.5, [None] * 3, 4),
    "S": ProcessIdSet({"p0"}), "V": ProcessIdSet({"p0", "p1", "p2"})}), 0x80)
def test_every_truncation_and_byte_flip_of_a_shaped_frame_raises_only_wire_error(
        message, mask):
    frame = encode_message(message, NAMES)
    assert frame[HEADER_SIZE] != 0
    variants = [frame[:cut] for cut in range(len(frame))]
    variants += [frame[:i] + bytes([frame[i] ^ mask]) + frame[i + 1:]
                 for i in range(len(frame))]
    for data in variants:
        _all_decoders(data)
        _all_decoders(data[HEADER_SIZE:])
    _read_all(variants[: 2 * len(frame)])


def test_a_huge_count_fails_before_it_allocates():
    """A u32 count of 2**32 - 1 with ten bytes left: refused on the count,
    not after building a list of four billion slots."""
    for tag in b"ltdS":
        body = b"\x00\x00\x06\x01\x00\x00\x00\x01x" + bytes([tag]) + b"\xff" * 4 + bytes(10)
        tracemalloc.start()
        try:
            try:
                decode_body(body)
            except WireError as exc:
                assert "count" in str(exc)
            else:
                raise AssertionError("a count past the body decoded")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_memo_tables_stop_at_their_cap():
    """Ten thousand distinct headers, strings and process-id sets, sent and
    received: every memo table ends at or below MEMO_CAP."""
    for i in range(10_000):
        name = f"hostile-{i}"
        body = encode_message(Message(name, "a", "b", {
            name: ProcessIdSet({name}), "s": name}))[HEADER_SIZE:]
        decoded = decode_body(body)
        assert decoded.kind == name and decoded["s"] == name
    tables = [getattr(wire, table) for table in vars(wire)
              if table.startswith("_") and table.endswith(("_IN", "_OUT"))]
    assert len(tables) >= 2
    assert all(len(table) <= MEMO_CAP for table in tables)
    # Full tables still encode and decode correctly, they just stop growing.
    message = Message("late", "a", "b", {"ids": ProcessIdSet({"x", "y"})})
    assert roundtrip(message)["ids"] == ProcessIdSet({"x", "y"})


def test_a_tables_memos_stop_at_their_cap():
    """Ten thousand distinct process sets through a 32-process table, each
    sent and received: its mask memos end at MEMO_CAP and still answer."""
    processes = [f"p{i:02d}" for i in range(32)]
    names = wire.Names(processes, processes)
    for i in range(10_000):
        ids = ProcessIdSet(p for bit, p in enumerate(processes) if i >> bit & 1)
        assert names.pidset(names.mask(ids)) == ids
    assert len(names._masks) == len(names._sets) == MEMO_CAP
    assert names.pidset(names.mask(ProcessIdSet(processes))) == set(processes)


# -- the frame splitter (FrameProtocol.data_received) ---------------------------------


def _cut(stream: bytes, cuts) -> list[bytes]:
    edges = [0, *sorted(c % (len(stream) + 1) for c in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a != b]


small_frames = st.lists(
    st.builds(lambda kind, n: encode_message(
        Message(kind=kind, src="a", dst="b", payload={"pad": "x" * n})),
        st.sampled_from(["hb", "gapless_fwd", "é"]), st.integers(0, 40)),
    min_size=1, max_size=8,
)
cut_points = st.one_of(
    st.lists(st.integers(0, 10_000), max_size=12),
    st.just(range(10_000)),  # every boundary: one-byte chunks
)


@given(small_frames, cut_points, st.booleans())
def test_splitter_yields_every_frame_whatever_the_chunking(frames, cuts, raw):
    chunks = _cut(b"".join(frames), cuts)
    got, error = split_chunks(chunks, raw=raw)
    assert error is None
    assert got == (frames if raw else [f[HEADER_SIZE:] for f in frames])


@given(small_frames, cut_points, st.booleans(), st.data())
def test_splitter_raises_at_the_bad_frame_after_yielding_the_good_ones(
        frames, cuts, raw, data):
    k = data.draw(st.integers(0, len(frames) - 1))
    bad_header = data.draw(st.sampled_from([
        bytes([WIRE_VERSION + 1]) + b"\x00\x00\x00\x02",
        bytes([WIRE_VERSION]) + (MAX_FRAME + 1).to_bytes(4, "big"),
    ]))
    stream = b"".join(frames[:k]) + bad_header + b"".join(frames[k:])
    got, error = split_chunks(_cut(stream, cuts), raw=raw)
    assert isinstance(error, WireError)
    assert got == (frames[:k] if raw else [f[HEADER_SIZE:] for f in frames[:k]])


@given(small_frames, cut_points, st.integers(1, 10_000))
def test_splitter_ends_cleanly_on_eof_inside_a_frame(frames, cuts, drop):
    stream = b"".join(frames)
    drop = 1 + drop % (len(frames[-1]) - 1)  # cut the last frame, header or body
    got, error = split_chunks(_cut(stream[:-drop], cuts), raw=True)
    assert error is None
    assert got == frames[:-1]


def _whole_buffer_parse(stream: bytes) -> tuple[list[bytes], bool]:
    """The reference split: ``(frames, bad)`` read off the whole stream at
    once, ``bad`` when a header with a wrong version or a length over
    MAX_FRAME ended it."""
    frames, pos = [], 0
    while len(stream) - pos >= HEADER_SIZE:
        length = int.from_bytes(stream[pos + 1:pos + HEADER_SIZE], "big")
        if stream[pos] != WIRE_VERSION or length > MAX_FRAME:
            return frames, True
        end = pos + HEADER_SIZE + length
        if end > len(stream):
            break
        frames.append(stream[pos:end])
        pos = end
    return frames, False


stream_pieces = st.lists(st.one_of(
    small_frames.map(b"".join),
    st.sampled_from([
        bytes([WIRE_VERSION + 1]) + b"\x00\x00\x00\x02",
        bytes([WIRE_VERSION]) + (MAX_FRAME + 1).to_bytes(4, "big"),
        bytes([WIRE_VERSION]) + b"\x00\x00\x00\x00",  # an empty body
    ]),
    st.binary(max_size=24),
), min_size=1, max_size=6).map(b"".join)


@settings(max_examples=300)
@given(stream_pieces, cut_points, st.booleans())
@example(bytes([WIRE_VERSION]) + b"\x00\x00\x00\x00" * 2, range(10_000), False)
def test_splitter_matches_a_whole_buffer_parse(stream, cuts, raw):
    """Any bytes, cut anywhere: exactly the frames the whole-buffer parse
    finds, and a WireError (nothing else) exactly where it stops at a bad
    header."""
    frames, bad = _whole_buffer_parse(stream)
    got, error = split_chunks(_cut(stream, cuts), raw=raw)
    assert got == (frames if raw else [f[HEADER_SIZE:] for f in frames])
    assert (error is not None) == bad
    assert error is None or isinstance(error, WireError)
