"""Wire format for the asyncio runtime: versioned length-prefixed JSON frames.

Every frame is ``1-byte version || 4-byte big-endian length || UTF-8 JSON``.
The version byte and the :data:`MAX_FRAME` sanity bound exist to fail
*loudly*: a peer speaking a different frame revision, or a corrupted length
prefix pointing megabytes into garbage, raises :class:`WireError` at the
frame boundary instead of silently desyncing the stream and misparsing
every subsequent byte.

The body (version 2) is positional, like the paper's own serializer
(§8.2): the array ``[kind, src, dst, payload]``, with ``kind`` first so
:func:`frame_kind` peeks it from the prefix and ``payload`` a JSON object.
Rivulet payloads contain a handful of non-JSON types which are encoded as
single-key tag objects, by the one ``default=`` / ``object_hook=`` pair
(:func:`tag_default`, :func:`untag_hook`) frames and journals share:

- :class:`repro.core.events.Event` ->
  ``{"__event__": [sensor_id, seq, emitted_at, value, size_bytes, epoch]}``
- :class:`repro.core.events.Command` ->
  ``{"__command__": [actuator_id, seq, issued_at, action, value, size_bytes,
  issued_by]}``
- :class:`repro.net.wire.ProcessIdSet` -> ``{"__pidset__": [...]}``
- ``set`` / ``frozenset`` -> ``{"__set__": [...]}`` (decodes as ``frozenset``)
- tuples decode as lists — protocol code treats sequence payloads
  structurally (the Gapless sync already normalizes its range pairs).

The event and command arrays follow the dataclasses' field order, read
once at import. The four tag keys are reserved: a payload dict whose one
key is a tag decodes as that type, or raises :class:`WireError` when its
value is not an array the type can be built from.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import operator
import struct
from collections import deque
from typing import Any

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet

#: Current frame revision. Bump on any incompatible framing/body change.
WIRE_VERSION = 2

#: ``version byte || body length``.
_HEADER = struct.Struct(">BI")
HEADER_SIZE = _HEADER.size

#: Sanity bound on a single frame body. The largest legitimate Rivulet
#: payloads (gapless sync snapshots, journal replays) are well under a
#: megabyte; anything bigger is a corrupted length prefix or an abusive
#: peer, and buffering it would just delay the inevitable desync.
MAX_FRAME = 16 * 1024 * 1024

#: Bytes asked of the stream per read (the StreamReader's own buffer limit).
_READ_CHUNK = 64 * 1024


class WireError(ValueError):
    """Malformed frame, wrong frame version, or unserializable payload."""


#: The tagged types' array layouts: their dataclass field order, read once.
EVENT_FIELDS = tuple(f.name for f in dataclasses.fields(Event))
COMMAND_FIELDS = tuple(f.name for f in dataclasses.fields(Command))
_event_row = operator.attrgetter(*EVENT_FIELDS)
_command_row = operator.attrgetter(*COMMAND_FIELDS)


def tag_default(value: Any) -> Any:
    """``json`` ``default=`` hook: the tagged form of a non-JSON payload type.

    The encoder walks whatever this returns, so nested values (an ``Event``
    inside ``Event.value``, a set of sets) are tagged by the same hook.
    """
    if isinstance(value, Event):
        return {"__event__": _event_row(value)}
    if isinstance(value, Command):
        return {"__command__": _command_row(value)}
    if isinstance(value, ProcessIdSet):
        return {"__pidset__": sorted(value)}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(value)}
    raise WireError(f"cannot serialize {type(value).__name__} on the wire")


#: tag -> (type, arity): built positionally from an array of exactly that
#: many fields, or (no arity) from the whole array, as the set types are.
_UNTAG: dict[str, tuple[type, int | None]] = {
    "__event__": (Event, len(EVENT_FIELDS)),
    "__command__": (Command, len(COMMAND_FIELDS)),
    "__pidset__": (ProcessIdSet, None),
    "__set__": (frozenset, None),
}


def untag_hook(obj: dict[str, Any]) -> Any:
    """``json`` ``object_hook=``: inverse of :func:`tag_default`.

    Called bottom-up on every decoded object, so by the time a tag object
    is seen its nested values are already untagged.
    """
    if len(obj) != 1:
        return obj
    (tag, row), = obj.items()
    untag = _UNTAG.get(tag)
    if untag is None:
        return obj
    cls, arity = untag
    if type(row) is not list or (arity is not None and len(row) != arity):
        raise WireError(f"malformed {tag} tag: not an array of {arity or 'members'}")
    try:
        return cls(*row) if arity else cls(row)
    except TypeError as exc:  # an unhashable set member
        raise WireError(f"malformed {tag} tag: {exc}") from exc


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=tag_default)
_DECODER = json.JSONDecoder(object_hook=untag_hook)


def encode_message(message: Message) -> bytes:
    """One message as a complete frame (version + length prefix included)."""
    try:
        body = _ENCODER.encode(
            [message.kind, message.src, message.dst, message.payload]
        ).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        # An untaggable value (WireError is a ValueError), a dict key json
        # cannot stringify, unorderable set members, a self-containing payload.
        raise WireError(f"cannot serialize {message.kind!r}: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(WIRE_VERSION, len(body)) + body


def split_frame(frame: bytes) -> tuple[int, bytes]:
    """``(version, body)`` of a complete frame, validating the header."""
    if len(frame) < HEADER_SIZE:
        raise WireError(f"truncated frame header ({len(frame)} bytes)")
    version, length = _HEADER.unpack_from(frame)
    _check_header(version, length)
    body = frame[HEADER_SIZE:]
    if len(body) != length:
        raise WireError(f"frame length {length} != body of {len(body)} bytes")
    return version, body


_KIND_AT = HEADER_SIZE + len(b'["')


def frame_kind(frame: bytes) -> str | None:
    """The message ``kind`` of a complete frame, or None if unparsable.

    Used by the fault proxy to classify forwarded traffic for overhead
    accounting without decoding payloads: :func:`encode_message` writes
    ``kind`` first, so it is peeked from the prefix ``["kind","`` (the rest
    of the body is not read). A kind holding an escape, or a body laid out
    any other way, takes the full parse, where anything but a version-2
    body is None.
    """
    if frame.startswith(b'["', HEADER_SIZE):
        end = frame.find(b'"', _KIND_AT)
        kind = frame[_KIND_AT:end]
        if (end != -1 and frame.startswith(b',"', end + 1)
                and b"\\" not in kind and kind.isascii()):
            return kind.decode("ascii")
    try:
        return _fields(split_frame(frame)[1])[0]
    except WireError:
        return None


def decode_body(body: bytes) -> Message:
    """The message a frame body carries; :class:`WireError` if it is not a
    version-2 body (``[kind, src, dst, payload]``, three strings and an
    object)."""
    kind, src, dst, payload = _fields(body)
    return Message(kind, src, dst, payload)


def _fields(body: bytes) -> list:
    try:
        text = body.decode("utf-8")
        try:
            fields, end = _DECODER.raw_decode(text)  # decode() less two regexes
        except json.JSONDecodeError:
            end = -1
        if end != len(text):  # whitespace around the array, or not JSON
            fields = _DECODER.decode(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WireError(f"malformed frame: {exc!r}") from exc
    # An exact list check, not an unpacking: a version-1 object body would
    # unpack into its four keys and decode as kind "kind".
    if type(fields) is not list or len(fields) != 4:
        raise WireError("frame body is not a [kind, src, dst, payload] array")
    kind, src, dst, payload = fields
    if type(kind) is not str or type(src) is not str or type(dst) is not str:
        raise WireError("frame kind, src and dst must be strings")
    if type(payload) is not dict:
        raise WireError(f"frame payload is {type(payload).__name__}, not an object")
    return fields


def _check_header(version: int, length: int) -> None:
    if version != WIRE_VERSION:
        raise WireError(
            f"frame version {version} != supported WIRE_VERSION {WIRE_VERSION}"
        )
    if length > MAX_FRAME:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")


async def read_frames(reader: asyncio.StreamReader, *, raw: bool = False):
    """Yield every frame on ``reader`` until EOF: bodies, or ``raw`` frames.

    The one read path (a node decodes bodies, the fault proxy forwards
    whole frames verbatim). The stream is read in chunks and every complete
    frame of a chunk is yielded without another await; a frame the chunk
    cuts is completed by one ``readexactly`` of the missing bytes, so a
    megabyte sync frame is joined once. EOF or a reset, between frames or
    inside one, just ends the iteration.

    Raises :class:`WireError` at a frame with a wrong version byte or an
    oversized length, after yielding every frame before it — the stream is
    unrecoverable past either, so callers must drop the connection.
    """
    skip = 0 if raw else HEADER_SIZE
    buf = b""  # between chunks: at most a partial header
    try:
        while chunk := await reader.read(_READ_CHUNK):
            buf += chunk
            pos, size = 0, len(buf)
            while size - pos >= HEADER_SIZE:
                version, length = _HEADER.unpack_from(buf, pos)
                _check_header(version, length)
                end = pos + HEADER_SIZE + length
                if end > size:
                    buf = buf[pos:] + await reader.readexactly(end - size)
                    pos, end = 0, len(buf)  # buf is exactly that frame now
                    size = end
                yield buf[pos + skip:end]
                pos = end
            buf = buf[pos:]
    except (asyncio.IncompleteReadError, ConnectionError):
        return


class PeerSender:
    """The one write path: frames to one peer address, in order, queue-free.

    A node keeps one per destination, the fault proxy one per accepted
    pair. :meth:`put` appends a ``(due, frame)`` (``due`` a loop time) and
    arms at most one loop callback: ``call_soon`` when the head is due,
    ``call_at`` its due time otherwise. The callback writes every due frame
    in one ``write`` — a batch is what has piled up, never waited for — and
    a due frame behind a head that is not due waits for it (per-peer FIFO).

    The peer is dialled lazily when a frame falls due, and redialled once
    the connection has closed under the sender; the frames due when a dial
    fails met an unreachable peer and are lost, as on TCP. Against a peer
    that stops reading, nothing is written while the transport's buffer is
    past its high-water mark (the sender awaits ``drain()`` instead), so
    frames wait in the queue, which ``limit`` bounds.
    """

    def __init__(self, address: tuple[str, int], *, limit: int | None = None) -> None:
        self._address = address
        self._limit = limit
        self._loop = asyncio.get_running_loop()
        self._queue: deque[tuple[float, bytes]] = deque()
        self._writer: asyncio.StreamWriter | None = None
        # The one armed step while frames wait: a flush, a dial or a drain.
        self._pending: asyncio.Handle | asyncio.Task | None = None

    def put(self, due: float, frame: bytes) -> bool:
        """Queue ``frame`` to leave at loop time ``due``; False if full."""
        queue = self._queue
        if self._limit is not None and len(queue) >= self._limit:
            return False
        queue.append((due, frame))
        if self._pending is None:
            self._arm()
        return True

    def _arm(self) -> None:
        due = self._queue[0][0]
        if due <= self._loop.time():
            self._pending = self._loop.call_soon(self._flush)
        else:
            self._pending = self._loop.call_at(due, self._flush)

    def _flush(self) -> None:
        self._pending = None
        writer = self._writer
        if writer is None or writer.is_closing():
            self._writer = None
            self._pending = self._loop.create_task(self._dial(writer))
            return
        queue, now = self._queue, self._loop.time()
        frames = []
        while queue and queue[0][0] <= now:
            frames.append(queue.popleft()[1])
        if frames:
            writer.write(frames[0] if len(frames) == 1 else b"".join(frames))
        transport = writer.transport
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
            self._pending = self._loop.create_task(self._drain(writer))
        elif queue:
            self._arm()

    async def _dial(self, stale: asyncio.StreamWriter | None) -> None:
        if stale is not None:
            await _close_writer(stale)
        try:
            # asyncio.timeout (not wait_for): under 3.11's wait_for, an
            # external cancel racing the connect timeout is swallowed as
            # TimeoutError, leaving a zombie task its owner awaits forever.
            async with asyncio.timeout(1.0):
                _reader, writer = await asyncio.open_connection(*self._address)
        except (OSError, asyncio.TimeoutError):
            now, queue = self._loop.time(), self._queue
            while queue and queue[0][0] <= now:
                queue.popleft()  # peer unreachable: the due frames are lost
        else:
            self._writer = writer
        self._pending = None
        if self._queue:
            self._arm()

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (OSError, ConnectionError):
            pass  # the next flush finds the writer closing and redials
        self._pending = None
        if self._queue:
            self._arm()

    async def close(self) -> None:
        """Drop what is queued, cancel a dial or drain in flight, and close
        the connection, waiting until it is closed. The owner puts nothing
        after this."""
        self._queue.clear()
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.cancel()
            if isinstance(pending, asyncio.Task):
                await asyncio.gather(pending, return_exceptions=True)
        writer, self._writer = self._writer, None
        if writer is not None:
            await _close_writer(writer)


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close ``writer`` and collect the error its stream stored, or the
    garbage collector may log that error as never retrieved."""
    if writer.transport.get_write_buffer_size():
        writer.transport.abort()  # a peer that stopped reading: close() would wait on it
    else:
        writer.close()
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):
        pass


def accept_into(inbound: dict, handler):
    """A ``start_server`` callback that runs ``handler(reader, writer)`` as a
    task registered in ``inbound`` (task -> writer) until it is done.

    Registered at accept time, not inside the handler: a task cancelled
    before its first step never reaches its ``finally``, so whoever stops
    the listener must be able to close the writer itself
    (:func:`close_accepted`).
    """
    def accept(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(handler(reader, writer))
        inbound[task] = writer
        task.add_done_callback(inbound.pop)

    return accept


async def accepts_handed_over() -> None:
    """Return once every dial that completed has reached its handler.

    The loop accepts a connection in one turn, attaches its transport to
    the server in the next and calls the :func:`accept_into` callback in a
    third. A listener closed in between fails ``Server._attach``'s
    assertion and asyncio drops the socket unclosed, so whoever closes
    listeners stops their dialers first and then waits here.
    """
    for _ in range(3):
        await asyncio.sleep(0)


async def close_accepted(inbound: dict) -> None:
    """Close every accepted connection in ``inbound``, cancel and await its
    handler, and wait for the sockets."""
    writers = list(inbound.values())
    for writer in writers:
        writer.close()
    tasks = list(inbound)
    for task in tasks:
        task.cancel()
    if tasks:
        # Bounded: a task that somehow survives its cancel (e.g. a
        # lost-cancel bug in a dependency) must not wedge shutdown.
        done, pending = await asyncio.wait(tasks, timeout=2.0)
        for task in pending:
            task.cancel()
    await asyncio.gather(
        *(writer.wait_closed() for writer in writers), return_exceptions=True
    )
