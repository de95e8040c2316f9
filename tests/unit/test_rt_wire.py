"""Unit tests for the asyncio runtime's wire format."""

import asyncio

import pytest

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
    send_frames,
    split_frame,
)


def roundtrip(message: Message) -> Message:
    frame = encode_message(message)
    version, body = split_frame(frame)
    assert version == WIRE_VERSION
    assert len(body) == len(frame) - HEADER_SIZE
    return decode_body(body)


def test_plain_payload_roundtrip():
    message = Message(kind="k", src="a", dst="b",
                      payload={"x": 1, "y": 2.5, "z": "str", "w": None, "b": True})
    decoded = roundtrip(message)
    assert decoded.kind == "k"
    assert decoded.payload == message.payload


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
    # Tuples come back as lists; protocol code normalizes.
    assert decoded["ranges"] == [[1, 5], [9, 9]]
    assert decoded["map"] == {"k": [1, 2]}


def test_set_roundtrip_as_frozenset():
    decoded = roundtrip(Message(kind="k", src="a", dst="b",
                                payload={"s": frozenset({"x", "y"})}))
    assert decoded["s"] == frozenset({"x", "y"})


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


def test_frame_carries_version_byte():
    frame = encode_message(Message(kind="k", src="a", dst="b", payload={}))
    assert frame[0] == WIRE_VERSION
    assert int.from_bytes(frame[1:5], "big") == len(frame) - HEADER_SIZE


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


def _frames_from_bytes(data: bytes, **kwargs) -> list[bytes]:
    """Everything :func:`read_frames` yields for ``data`` followed by EOF."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [frame async for frame in read_frames(reader, **kwargs)]

    return asyncio.run(go())


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
    big = encode_message(Message(kind="sync", src="a", dst="b",
                                 payload={"blob": "x" * (1 << 20)}))
    small = encode_message(Message(kind="k", src="a", dst="b", payload={}))

    async def go():
        reader = asyncio.StreamReader(limit=2 << 20)
        reader.feed_data(small + big + small)
        reader.feed_eof()
        return [frame async for frame in read_frames(reader, raw=True)]

    assert asyncio.run(go()) == [small, big, small]


# -- frame_kind: the peeked prefix agrees with the full parse -----------------------


def _frame(body: bytes) -> bytes:
    return bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize("kind", ["gapless_fwd", 'a"b', "a\\b", "é", "", "k\n"])
def test_frame_kind_of_encoded_message(kind):
    frame = encode_message(Message(kind=kind, src="a", dst="b", payload={"x": 1}))
    assert frame_kind(frame) == kind == decode_body(split_frame(frame)[1]).kind


@pytest.mark.parametrize("body, kind", [
    (b'{"src":"a","kind":"late","dst":"b","payload":{}}', "late"),
    (b' {"kind": "spaced", "src": "a"}', "spaced"),
    ('{"kind":"é"}'.encode("utf-8"), "é"),
    (b'{"kind":"a\\u0041"}', "aA"),
    (b'{"kind":7}', None),
    (b'{"kind":"torn', None),
    (b"[1,2]", None),
    (b"\xff\xfe", None),
    (b"", None),
])
def test_frame_kind_falls_back_to_the_full_parse(body, kind):
    assert frame_kind(_frame(body)) == kind


def test_frame_kind_of_garbage_is_none():
    assert frame_kind(b"") is None
    assert frame_kind(b"\x01\x00") is None
    assert frame_kind(bytes([WIRE_VERSION + 1]) + b'\x00\x00\x00\x02{}') is None


# -- error surface: nothing but WireError leaves the codec --------------------------


@pytest.mark.parametrize("payload", [
    {"obj": object()},
    {"deep": {"list": [1, {"obj": object()}]}},
    {"event": Event(sensor_id="s", seq=1, emitted_at=0.0, value=object(),
                    size_bytes=4)},
    {"key": {(1, 2): "tuple key"}},
    {"mixed": {1, "a"}},
    {"bytes": b"raw"},
])
def test_unserializable_values_raise_wire_error(payload):
    with pytest.raises(WireError):
        encode_message(Message(kind="k", src="a", dst="b", payload=payload))


def test_self_containing_payload_raises_wire_error():
    loop: list = []
    loop.append(loop)
    with pytest.raises(WireError):
        encode_message(Message(kind="k", src="a", dst="b", payload={"l": loop}))


@pytest.mark.parametrize("body", [
    b"\xff\xfe{}",                                    # bad UTF-8
    b'"a string"', b"7", b"null",                       # not an object
    b'{"kind":"k","src":"a","dst":"b"}',                # no payload
    b'{"kind":"k","src":"a","dst":"b","payload":[1]}',  # payload not an object
    b'{"kind":"k","src":"a","dst":"b","payload":null}',
    b'{"__set__":[1]}',                                 # a tag where the body goes
    b'{"kind":"k","src":"a","dst":"b","payload":{"e":{"__event__":'
    b'{"sensor_id":"s","seq":1}}}}',                    # tag object, fields missing
    b'{"kind":"k","src":"a","dst":"b","payload":{"e":{"__event__":'
    b'{"sensor_id":"s","seq":1,"emitted_at":0,"value":1,"size_bytes":4,'
    b'"epoch":null,"extra":1}}}}',                      # ... one too many
    b'{"kind":"k","src":"a","dst":"b","payload":{"c":{"__command__":7}}}',
    b'{"kind":"k","src":"a","dst":"b","payload":{"p":{"__pidset__":3}}}',
    b'{"kind":"k","src":"a","dst":"b","payload":{"s":{"__set__":[[1]]}}}',
    b"[" * 100_000,                                     # nesting past the recursion limit
])
def test_malformed_bodies_raise_wire_error(body):
    with pytest.raises(WireError):
        decode_body(body)


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


# -- the journal shares the frames' tag table -----------------------------------------

#: Three lines exactly as the commit before the shared codec wrote them
#: (``to_jsonable`` walk, then ``json.dumps``).
PARENT_JOURNAL = (
    '["trace", 1.5, "ingest", {"sensor": "s1", "seq": 3}]\n'
    '["trace", 2.0, "odd", {"event": {"__event__": {"sensor_id": "s1", "seq": 3, '
    '"emitted_at": 1.25, "value": {"k": [1, 2]}, "size_bytes": 4, "epoch": null}}, '
    '"members": {"__pidset__": ["p0", "p1"]}, "tags": {"__set__": ["a", "b"]}, '
    '"cmd": {"__command__": {"actuator_id": "light", "seq": 2, "issued_at": 9.0, '
    '"action": "set", "value": false, "size_bytes": 8, "issued_by": "app@p1"}}}]\n'
    '["actuation", 2.5, "light", ["light", "app@p1", 2], "set", {"__set__": [1, 2]}]\n'
)


def _journal_records(journal) -> None:
    journal.record(1.5, "ingest", sensor="s1", seq=3)
    journal.record(
        2.0, "odd",
        event=Event("s1", 3, 1.25, {"k": (1, 2)}, 4, epoch=None),
        members=ProcessIdSet({"p1", "p0"}), tags=frozenset({"b", "a"}),
        cmd=Command("light", 2, 9.0, "set", value=False, issued_by="app@p1"),
    )
    journal.journal_actuation(2.5, "light", ("light", "app@p1", 2), "set",
                              frozenset({1, 2}))


def test_journal_lines_are_the_parent_commits_bytes(tmp_path):
    from repro.rt.child import JournalTrace

    path = tmp_path / "p0.journal"
    journal = JournalTrace(str(path))
    _journal_records(journal)
    journal._journal.close()
    assert path.read_text(encoding="utf-8") == PARENT_JOURNAL


def test_parent_written_journal_still_loads(tmp_path):
    from repro.rt.proc import _read_journal

    path = tmp_path / "p0.journal"
    path.write_text(PARENT_JOURNAL + '["trace", 3.0, "torn", {"se', encoding="utf-8")
    ingest, odd, actuation = _read_journal(str(path))
    assert ingest == ["trace", 1.5, "ingest", {"sensor": "s1", "seq": 3}]
    fields = odd[3]
    assert fields["event"] == Event("s1", 3, 1.25, None, 4)
    assert fields["event"].value == {"k": [1, 2]}
    assert fields["members"] == ProcessIdSet({"p0", "p1"})
    assert isinstance(fields["members"], ProcessIdSet)
    assert fields["tags"] == frozenset({"a", "b"})
    assert fields["cmd"] == Command("light", 2, 9.0, "set", value=False,
                                    issued_by="app@p1")
    assert actuation == ["actuation", 2.5, "light", ["light", "app@p1", 2], "set",
                         frozenset({1, 2})]


def test_send_frames_closes_the_writer_it_drops(monkeypatch):
    """A peer that accepts and then hangs up mid-stream: the sender drops
    its writer after the failed write and redials. The dropped writer must
    be closed and the error its stream stored collected, not left to the
    garbage collector — which logs an uncollected one as "Future exception
    was never retrieved" when it happens to free the future first."""
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
        queue = asyncio.Queue()
        sender = asyncio.ensure_future(
            send_frames(queue, server.sockets[0].getsockname()[:2])
        )
        frame = encode_message(Message("k", "a", "b", {"pad": "x" * 1000}))
        loop = asyncio.get_running_loop()
        try:
            async with asyncio.timeout(10):
                while len(dialed) < 2:
                    queue.put_nowait((loop.time(), frame))
                    await asyncio.sleep(0.01)
        finally:
            sender.cancel()
            await asyncio.gather(sender, return_exceptions=True)
            server.close()
            await server.wait_closed()
        return dialed[0]

    dropped = asyncio.run(go())
    assert dropped.is_closing()
    stored = dropped._protocol._get_close_waiter(dropped)
    assert stored.done() and not stored._log_traceback  # already collected
    assert isinstance(stored.exception(), OSError)
