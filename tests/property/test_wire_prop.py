"""Property-based round-trip tests for the asyncio wire format."""

import asyncio
import dataclasses
import json
import math
import struct

from hypothesis import given, strategies as st

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet
from repro.rt.wire import (
    HEADER_SIZE,
    MAX_FRAME,
    WIRE_VERSION,
    WireError,
    decode_body,
    encode_message,
    frame_kind,
    read_frames,
    split_frame,
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=30),
)

#: Sets of one scalar type (json cannot order a mix, so the encoder refuses it).
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


@given(st.dictionaries(st.text(min_size=1, max_size=10), payload_values,
                       max_size=5),
       st.text(min_size=1, max_size=10))
def test_roundtrip_preserves_payload(payload, kind):
    message = Message(kind=kind, src="a", dst="b", payload=payload)
    decoded = roundtrip(message)
    assert decoded.kind == kind
    assert decoded.src == "a" and decoded.dst == "b"
    assert _normalize(decoded.payload) == _normalize(payload)


def _normalize(value):
    """Tuples decode as lists; compare structurally."""
    if isinstance(value, ProcessIdSet):
        return ("pidset", tuple(sorted(value)))
    if isinstance(value, frozenset):
        return ("set", value)
    if isinstance(value, Event):
        return ("event", value.sensor_id, value.seq, value.emitted_at,
                _normalize(value.value), value.size_bytes, value.epoch)
    if isinstance(value, Command):
        return ("command", value.actuator_id, value.seq, value.issued_at,
                value.action, _normalize(value.value), value.size_bytes,
                value.issued_by)
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _normalize(v)) for k, v in value.items()))
    return value


@given(events)
def test_event_roundtrip_exact(event):
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"event": event}))
    assert decoded["event"] == event
    assert decoded["event"].value == event.value
    assert decoded["event"].epoch == event.epoch


# -- the one-pass codec writes the bytes a recursive walker writes -------------------
#
# The reference below walks a payload by hand and spells the version-2
# layout out field by field (the codec takes its field order from the
# dataclasses): equal bytes over generated payloads pin the layout the
# module docstring documents.


def _reference_value(value):
    if isinstance(value, Event):
        return {"__event__": [
            value.sensor_id, value.seq, value.emitted_at,
            _reference_value(value.value), value.size_bytes, value.epoch,
        ]}
    if isinstance(value, Command):
        return {"__command__": [
            value.actuator_id, value.seq, value.issued_at, value.action,
            _reference_value(value.value), value.size_bytes, value.issued_by,
        ]}
    if isinstance(value, ProcessIdSet):
        return {"__pidset__": sorted(value)}
    if isinstance(value, (set, frozenset)):
        return {"__set__": [_reference_value(v) for v in sorted(value)]}
    if isinstance(value, (list, tuple)):
        return [_reference_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_value(v) for k, v in value.items()}
    assert value is None or isinstance(value, (bool, int, float, str))
    return value


def reference_encode(message: Message) -> bytes:
    body = json.dumps([
        message.kind, message.src, message.dst,
        {k: _reference_value(v) for k, v in message.payload.items()},
    ], separators=(",", ":")).encode("utf-8")
    return struct.pack(">BI", WIRE_VERSION, len(body)) + body


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.sets(st.integers(-50, 50), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
        st.builds(
            Event, sensor_id=st.text(min_size=1, max_size=8),
            seq=st.integers(1, 2**31), emitted_at=st.floats(0, 1e9),
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
    st.one_of(json_scalars, pidsets, st.floats(allow_nan=True)),
    _containers, max_leaves=10,
)


def _decoded_form(value):
    """What ``decode_body`` is specified to hand back for an encoded value."""
    if isinstance(value, Event):
        return dataclasses.replace(value, value=_decoded_form(value.value))
    if isinstance(value, Command):
        return dataclasses.replace(value, value=_decoded_form(value.value))
    if isinstance(value, ProcessIdSet):
        return value
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return [_decoded_form(v) for v in value]
    if isinstance(value, dict):
        return {k: _decoded_form(v) for k, v in value.items()}
    return value


def _same(a, b) -> bool:
    """Equality that looks inside Event/Command.value and treats NaN as itself."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, (Event, Command)):
        return (dataclasses.replace(a, value=None) == dataclasses.replace(b, value=None)
                and _same(a.value, b.value))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@given(st.dictionaries(st.text(min_size=1, max_size=10), wire_values, max_size=5),
       st.text(max_size=12), st.text(max_size=6))
def test_frames_are_byte_identical_to_the_recursive_encoder(payload, kind, src):
    message = Message(kind=kind, src=src, dst="b", payload=payload)
    frame = encode_message(message)
    assert frame == reference_encode(message)
    assert frame_kind(frame) == kind
    decoded = decode_body(split_frame(frame)[1])
    assert (decoded.kind, decoded.src, decoded.dst) == (kind, src, "b")
    assert _same(decoded.payload, _decoded_form(payload))


# -- the frame splitter ----------------------------------------------------------------


def _split(chunks, *, raw):
    """Frames read from a stream fed ``chunks`` one at a time, then EOF.

    Returns ``(frames, error)``: what was yielded before the stream ended
    or :class:`WireError` was raised.
    """

    async def go():
        reader = asyncio.StreamReader()
        frames = []

        async def consume():
            async for frame in read_frames(reader, raw=raw):
                frames.append(frame)

        task = asyncio.ensure_future(consume())
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)  # let the reader run between chunks
        reader.feed_eof()
        try:
            await task
        except WireError as exc:
            return frames, exc
        return frames, None

    return asyncio.run(go())


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
    got, error = _split(chunks, raw=raw)
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
    got, error = _split(_cut(stream, cuts), raw=raw)
    assert isinstance(error, WireError)
    assert got == (frames[:k] if raw else [f[HEADER_SIZE:] for f in frames[:k]])


@given(small_frames, cut_points, st.integers(1, 10_000))
def test_splitter_ends_cleanly_on_eof_inside_a_frame(frames, cuts, drop):
    stream = b"".join(frames)
    drop = 1 + drop % (len(frames[-1]) - 1)  # cut the last frame, header or body
    got, error = _split(_cut(stream[:-drop], cuts), raw=True)
    assert error is None
    assert got == frames[:-1]
