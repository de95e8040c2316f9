"""Unit tests for the asyncio runtime's wire format."""

import asyncio
import dataclasses

import pytest

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet
from repro.rt.wire import (
    COMMAND_FIELDS,
    EVENT_FIELDS,
    HEADER_SIZE,
    MAX_FRAME,
    WIRE_VERSION,
    PeerSender,
    WireError,
    decode_body,
    encode_message,
    frame_kind,
    read_frames,
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


def test_tag_arrays_follow_the_documented_field_order():
    """The version-2 tags are positional, in the dataclasses' field order.
    A reorder in ``repro.core.events`` would silently swap what a position
    means on the wire (``seq`` and ``emitted_at`` are both numbers), so it
    must fail here first."""
    assert [f.name for f in dataclasses.fields(Event)] == list(EVENT_FIELDS) == [
        "sensor_id", "seq", "emitted_at", "value", "size_bytes", "epoch"]
    assert [f.name for f in dataclasses.fields(Command)] == list(COMMAND_FIELDS) == [
        "actuator_id", "seq", "issued_at", "action", "value", "size_bytes",
        "issued_by"]
    frame = encode_message(Message("k", "a", "b", {
        "e": Event("s", 1, 2.5, "v", 4, 3),
        "c": Command("light", 2, 9.0, "set", False, 8, "app@p1"),
    }))
    assert frame[HEADER_SIZE:] == (
        b'["k","a","b",{"e":{"__event__":["s",1,2.5,"v",4,3]},'
        b'"c":{"__command__":["light",2,9.0,"set",false,8,"app@p1"]}}]')


def test_version_1_frame_is_a_wire_error():
    """What the previous revision wrote for ``Message("k", "a", "b", {})``:
    refused at its version byte, and its object body refused on its own."""
    assert WIRE_VERSION == 2
    body = b'{"kind":"k","src":"a","dst":"b","payload":{}}'
    frame = bytes([1]) + len(body).to_bytes(4, "big") + body
    with pytest.raises(WireError, match="version"):
        split_frame(frame)
    with pytest.raises(WireError, match="version"):
        _frames_from_bytes(frame)
    with pytest.raises(WireError, match="array"):
        decode_body(body)
    assert frame_kind(frame) is None


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
    (b' ["spaced", "a", "b", {}]', "spaced"),          # not the peeked prefix
    ('["é","a","b",{}]'.encode("utf-8"), "é"),         # a non-ASCII kind
    (b'["a\\u0041","a","b",{}]', "aA"),                # an escaped kind
    (b'[7,"a","b",{}]', None),                          # kind not a string
    (b'["torn', None),
    (b'["a"]', None),                                   # not four fields
    (b'"abc"', None),                                   # not an array ("abc"[0] is "a")
    # Version-1 object bodies, which nothing writes any more.
    (b'{"src":"a","kind":"late","dst":"b","payload":{}}', None),
    (b' {"kind": "spaced", "src": "a"}', None),
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

#: Three lines exactly as a child writes them: ``json.dumps`` layout, the
#: frames' version-2 tags.
PARENT_JOURNAL = (
    '["trace", 1.5, "ingest", {"sensor": "s1", "seq": 3}]\n'
    '["trace", 2.0, "odd", {"event": {"__event__": ["s1", 3, 1.25, {"k": [1, 2]}, 4, '
    'null]}, "members": {"__pidset__": ["p0", "p1"]}, "tags": {"__set__": ["a", "b"]}, '
    '"cmd": {"__command__": ["light", 2, 9.0, "set", false, 8, "app@p1"]}}]\n'
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
        received = []

        async def sink(reader, writer):
            async for body in read_frames(reader):
                received.append(decode_body(body)["i"])
            writer.close()

        server = await asyncio.start_server(sink, "127.0.0.1", 0)
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
