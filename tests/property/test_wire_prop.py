"""Property-based tests for the asyncio wire format: exact round trips,
pinned version-3 bytes, and a decoder that raises nothing but WireError."""

import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st

from repro.core.events import Command, Event
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


# -- the version-3 bytes of two real messages ----------------------------------------


def test_gapless_forward_bytes_are_pinned():
    event = Event(sensor_id="door", seq=7, emitted_at=1.25, value=True, size_bytes=4)
    frame = encode_message(Message("gapless_fwd", "p0", "p1", {
        "sensor": "door", "event": event,
        "S": ProcessIdSet({"p0"}), "V": ProcessIdSet({"p2", "p0", "p1"})}))
    assert frame == (
        b"\x03\x00\x00\x00\x69"                             # version 3, 105 B body
        b"\x00\x24\x04\x0bgapless_fwd\x02p0\x02p1"          # header: 4 keys, kind, src, dst
        b"\x06sensor\x05event\x01S\x01V"
        b"s\x00\x00\x00\x04door"
        b"E\x00\x00\x00\x00\x00\x00\x00\x07"                # seq 7
        b"?\xf4\x00\x00\x00\x00\x00\x00"                    # emitted_at 1.25
        b"\x00\x00\x00\x00\x00\x00\x00\x04"                 # size_bytes 4
        b"s\x00\x00\x00\x04door" b"T" b"N"                  # sensor_id, value, epoch
        b"P\x00\x00\x00\x03\x02p0"
        b"P\x00\x00\x00\x09\x02p0\x02p1\x02p2")             # names sorted
    assert frame_kind(frame) == "gapless_fwd"


def test_cmd_fwd_bytes_are_pinned():
    command = Command("light", 3, 2.5, "on", value=None, issued_by="lights@p0")
    frame = encode_message(Message("cmd_fwd", "p0", "p2", {
        "actuator": "light", "command": command, "app": "lights"}))
    assert frame == (
        b"\x03\x00\x00\x00\x74"
        b"\x00\x24\x03\x07cmd_fwd\x02p0\x02p2\x08actuator\x07command\x03app"
        b"s\x00\x00\x00\x05light"
        b"C\x00\x00\x00\x00\x00\x00\x00\x03"                # seq 3
        b"@\x04\x00\x00\x00\x00\x00\x00"                    # issued_at 2.5
        b"\x00\x00\x00\x00\x00\x00\x00\x08"                 # size_bytes 8
        b"s\x00\x00\x00\x05light" b"s\x00\x00\x00\x02on"    # actuator_id, action
        b"N" b"s\x00\x00\x00\x09lights@p0"                  # value, issued_by
        b"s\x00\x00\x00\x06lights")
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
    _decode_or_wire_error(split_frame, data)
    _decode_or_wire_error(decode_records, data)
    _decode_or_wire_error(frame_kind, data)


#: A frame whose body nests lists far past MAX_DEPTH.
DEPTH_BOMB = b"\x00\x06\x01\x00\x00\x00\x01x" + b"l\x00\x00\x00\x01" * 10_000 + b"N"


@settings(max_examples=300)
@given(st.binary(max_size=200))
@example(DEPTH_BOMB)
@example(bytes([WIRE_VERSION]) + len(DEPTH_BOMB).to_bytes(4, "big") + DEPTH_BOMB)
@example(b"\x00\x06\x01\x00\x00\x00\x01x" + b"l\xff\xff\xff\xff" + bytes(10))
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


def test_a_huge_count_fails_before_it_allocates():
    """A u32 count of 2**32 - 1 with ten bytes left: refused on the count,
    not after building a list of four billion slots."""
    for tag in b"ltdS":
        body = b"\x00\x06\x01\x00\x00\x00\x01x" + bytes([tag]) + b"\xff" * 4 + bytes(10)
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
    assert len(tables) >= 4
    assert all(len(table) <= MEMO_CAP for table in tables)
    # Full tables still encode and decode correctly, they just stop growing.
    message = Message("late", "a", "b", {"ids": ProcessIdSet({"x", "y"})})
    assert roundtrip(message)["ids"] == ProcessIdSet({"x", "y"})


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
