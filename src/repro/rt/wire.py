"""Wire format for the asyncio runtime: versioned length-prefixed JSON frames.

Every frame is ``1-byte version || 4-byte big-endian length || UTF-8 JSON``.
The version byte and the :data:`MAX_FRAME` sanity bound exist to fail
*loudly*: a peer speaking a different frame revision, or a corrupted length
prefix pointing megabytes into garbage, raises :class:`WireError` at the
frame boundary instead of silently desyncing the stream and misparsing
every subsequent byte. Rivulet payloads contain a handful of non-JSON types
which are encoded with type tags, by the one ``default=`` / ``object_hook=``
pair (:func:`tag_default`, :func:`untag_hook`) frames and journals share:

- :class:`repro.core.events.Event`   -> ``{"__event__": {...}}``
- :class:`repro.core.events.Command` -> ``{"__command__": {...}}``
- :class:`repro.net.wire.ProcessIdSet` -> ``{"__pidset__": [...]}``
- tuples decode as lists — protocol code treats sequence payloads
  structurally (the Gapless sync already normalizes its range pairs).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from typing import Any, Callable

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet

#: Current frame revision. Bump on any incompatible framing/body change.
WIRE_VERSION = 1

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


def tag_default(value: Any) -> Any:
    """``json`` ``default=`` hook: the tagged form of a non-JSON payload type.

    The encoder walks whatever this returns, so nested values (an ``Event``
    inside ``Event.value``, a set of sets) are tagged by the same hook.
    """
    if isinstance(value, Event):
        return {"__event__": {
            "sensor_id": value.sensor_id, "seq": value.seq,
            "emitted_at": value.emitted_at, "value": value.value,
            "size_bytes": value.size_bytes, "epoch": value.epoch,
        }}
    if isinstance(value, Command):
        return {"__command__": {
            "actuator_id": value.actuator_id, "seq": value.seq,
            "issued_at": value.issued_at, "action": value.action,
            "value": value.value, "size_bytes": value.size_bytes,
            "issued_by": value.issued_by,
        }}
    if isinstance(value, ProcessIdSet):
        return {"__pidset__": sorted(value)}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(value)}
    raise WireError(f"cannot serialize {type(value).__name__} on the wire")


def _untagger(cls: type) -> Callable[[dict[str, Any]], Any]:
    names = {f.name for f in dataclasses.fields(cls)}

    def build(fields: dict[str, Any]) -> Any:
        if fields.keys() != names:
            raise TypeError(f"fields {sorted(fields)} != {sorted(names)}")
        return cls(**fields)

    return build


_UNTAG: dict[str, Callable[[Any], Any]] = {
    "__event__": _untagger(Event), "__command__": _untagger(Command),
    "__pidset__": ProcessIdSet, "__set__": frozenset,
}


def untag_hook(obj: dict[str, Any]) -> Any:
    """``json`` ``object_hook=``: inverse of :func:`tag_default`.

    Called bottom-up on every decoded object, so by the time a tag object
    is seen its nested values are already untagged.
    """
    if len(obj) != 1:
        return obj
    (tag, tagged), = obj.items()
    build = _UNTAG.get(tag)
    if build is None:
        return obj
    try:
        return build(tagged)
    except (TypeError, AttributeError) as exc:
        raise WireError(f"malformed {tag} object: {exc}") from exc


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=tag_default)
_DECODER = json.JSONDecoder(object_hook=untag_hook)


def encode_message(message: Message) -> bytes:
    """One message as a complete frame (version + length prefix included)."""
    try:
        body = _ENCODER.encode({
            "kind": message.kind, "src": message.src, "dst": message.dst,
            "payload": message.payload,
        }).encode("utf-8")
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


_KIND_AT = HEADER_SIZE + len(b'{"kind":"')


def frame_kind(frame: bytes) -> str | None:
    """The message ``kind`` of a complete frame, or None if unparsable.

    Used by the fault proxy to classify forwarded traffic for overhead
    accounting without decoding payloads: :func:`encode_message` writes
    ``kind`` first, so it is peeked from the body prefix. A kind holding an
    escape, or a body laid out any other way, takes the full parse.
    """
    if frame.startswith(b'{"kind":"', HEADER_SIZE):
        end = frame.find(b'"', _KIND_AT)
        kind = frame[_KIND_AT:end]
        if end != -1 and b"\\" not in kind and kind.isascii():
            return kind.decode("ascii")
    try:
        _, body = split_frame(frame)
        kind = json.loads(body.decode("utf-8")).get("kind")
    except (ValueError, AttributeError):  # WireError, bad UTF-8, bad JSON
        return None
    return kind if isinstance(kind, str) else None


def decode_body(body: bytes) -> Message:
    try:
        data = _DECODER.decode(body.decode("utf-8"))
        kind, src, dst = data["kind"], data["src"], data["dst"]
        payload = data["payload"]
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError,
            KeyError, TypeError) as exc:  # TypeError: body is not an object
        raise WireError(f"malformed frame: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise WireError(f"frame payload is {type(payload).__name__}, not an object")
    return Message(kind=kind, src=src, dst=dst, payload=payload)


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


async def send_frames(queue: asyncio.Queue, address: tuple[str, int]) -> None:
    """Write the queue's ``(due, frame)`` items to ``address``, in order.

    The one write path (a node's per-peer sender, the fault proxy's pump):
    it dials lazily and redials after a failure, and a frame that meets an
    unreachable peer is lost, as on TCP. A frame waits until ``due`` (a
    loop time); everything queued behind it that is due too goes out in the
    same ``write`` + ``drain`` — a batch is what has piled up, never waited for.
    Runs until cancelled.
    """
    loop = asyncio.get_running_loop()
    writer: asyncio.StreamWriter | None = None
    held: tuple[float, bytes] | None = None  # dequeued, found not yet due
    try:
        while True:
            due, frame = held or await queue.get()
            held = None
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            if writer is None:
                # asyncio.timeout (not wait_for): under 3.11's wait_for, an
                # external cancel racing the connect timeout is swallowed as
                # TimeoutError, leaving a zombie task its owner awaits forever.
                try:
                    async with asyncio.timeout(1.0):
                        _reader, writer = await asyncio.open_connection(*address)
                except (OSError, asyncio.TimeoutError):
                    continue  # peer unreachable: the frame is lost
            if not queue.empty():
                frames, now = [frame], loop.time()
                while not queue.empty():
                    held = queue.get_nowait()
                    if held[0] > now:
                        break
                    frames.append(held[1])
                    held = None
                frame = b"".join(frames)
            try:
                writer.write(frame)
                await writer.drain()
            except (OSError, ConnectionError):
                # Peer went away mid-stream: frames lost. Close the stream
                # and collect the error it stored before dropping it, or the
                # garbage collector may log that error as never retrieved.
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass
                writer = None
    finally:
        if writer is not None:
            writer.close()


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


async def close_accepted(inbound: dict, also=()) -> None:
    """Close every accepted connection in ``inbound``; cancel and await its
    handler and the ``also`` tasks (senders, pumps); wait for the sockets."""
    writers = list(inbound.values())
    for writer in writers:
        writer.close()
    tasks = [*inbound, *also]
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
