"""Wire format for the asyncio runtime: versioned length-prefixed binary frames.

Every frame is ``1-byte version || 4-byte big-endian length || body``.
The version byte and the :data:`MAX_FRAME` sanity bound exist to fail
*loudly*: a peer speaking a different frame revision, or a corrupted length
prefix pointing megabytes into garbage, raises :class:`WireError` at the
frame boundary instead of silently desyncing the stream and misparsing
every subsequent byte.

The body (version 4) is struct-only binary, like the paper's own compact
serializer (§8.2), and its first byte says how the rest is laid out::

    u8 shape || fields

**Shape 0** is the general layout, for any kind and payload::

    0 || u16 header_len || header || values

The header is ``u8 n_keys`` and then ``n_keys + 3`` names, each ``u8 len
|| UTF-8``: kind, src, dst, then the payload keys in dict order. The kind
sits at a fixed offset, so :func:`frame_kind` is one slice. The payload
values follow in header-key order, each one tag byte and its body (all
integers big-endian):

=======  ==================  ===============================================
tag      type                body
=======  ==================  ===============================================
``N``    ``None``            --
``T``    ``True``            --
``F``    ``False``           --
``i``    ``int`` (int64)     ``q``
``I``    ``int`` (other)     ``u32 n`` || n bytes, two's complement
``f``    ``float``           ``d``
``s``    ``str``             ``u32 n`` || n bytes UTF-8
``b``    ``bytes``           ``u32 n`` || n bytes
``l``    ``list``            ``u32 count`` || count values
``t``    ``tuple``           ``u32 count`` || count values
``d``    ``dict``            ``u32 count`` || count (key value) pairs
``S``    ``set``/frozenset   ``u32 count`` || the members sorted
``E``    ``Event``           ``q d q`` (seq, emitted_at, size_bytes)
                             || sensor_id value epoch
``C``    ``Command``         ``q d q`` (seq, issued_at, size_bytes)
                             || actuator_id action value issued_by
``P``    ``ProcessIdSet``    ``u32 n`` || n bytes: the names sorted, each
                             ``u8 len || UTF-8``
=======  ==================  ===============================================

Dispatch is on the exact type, so a payload decodes to equal values of
identical ``type()`` at every level — tuples stay tuples, int dict keys
stay ints — except ``set``, which decodes as ``frozenset``. Anything else
(a subclass, an ``Event`` whose seq is not an int) is refused on encode.

**Declared shapes** (:data:`SHAPES`, row ``i`` is shape ``i + 1``) carry
the per-event kinds. A row lists the payload keys in order, each with a
field codec: ``name`` (a u16 id into the :class:`Names` table), ``pids``
(a :class:`ProcessIdSet` of the table's processes as one u32 mask) or
``event`` / ``command`` (the id of its sensor or actuator, then the
``q d q`` stamp). One ``struct`` per row holds the table's CRC32, the src
and dst ids and every fixed-width field; then come the values no width
fixes (``Event.value`` and ``epoch``, a Command's ``action``, ``value``
and ``issued_by``), each ``any``: one tagged value as in shape 0::

    shape || u32 crc || u16 src || u16 dst || fixed fields || values

A Gapless forward of a 4 B reading is 52 B as shape 1, 111 B as shape 0.
Each row's encoder and decoder are compiled once, at import, from its
codecs' source templates (:func:`_compile`), so a shaped frame costs one
``struct`` call each way and no per-field dispatch.

A message takes its kind's shape only when the sender has a table and
the message fits the row exactly: the same keys in the same order,
every name interned, every value of the codec's exact type. Otherwise it
is written as shape 0, and the sender's :attr:`Names.fallbacks` counts
it by ``(kind, reason)``. Every node of a deployment builds the same
table from the same plan (:meth:`Names.of`); a shaped frame whose CRC is
not the reader's table's is refused, never misread. Decoding dispatches
on the shape byte, and a payload arrives with the same types either way.

A journal (:class:`repro.rt.child.JournalTrace`) is a file of records,
each ``u32 length || one value`` in the same layout
(:func:`encode_record`, :func:`decode_records`).

Decoding is struct only: no ``pickle``, ``marshal`` or ``eval``. Every
length and count is checked against the bytes left before it is used,
nesting stops at :data:`MAX_DEPTH`, and an unknown tag or shape, an id
past the table, a mask bit past its processes, trailing bytes, a
duplicate payload key or bad UTF-8 raise :class:`WireError`, the only
exception that leaves :func:`decode_body`, :func:`split_frame`,
:class:`FrameProtocol`'s splitter and :func:`decode_records`. A running
home repeats a few shape-0 headers and shaped process-id masks, so both
directions of each are memoized, the headers in module-level tables and
the masks in each :class:`Names`; the memos stop growing at
:data:`MEMO_CAP` entries.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.broadcast import NBCAST, RBCAST
from repro.core.delivery_service import CMD_FWD
from repro.core.events import Command, Event
from repro.core.gap import GAP_FWD
from repro.core.gapless import GAPLESS_FWD
from repro.core.plan import DeploymentPlan
from repro.net.message import Message
from repro.net.wire import ProcessIdSet

#: Current frame revision. Bump on any incompatible framing/body change.
WIRE_VERSION = 4

#: ``version byte || body length``.
_HEADER = struct.Struct(">BI")
HEADER_SIZE = _HEADER.size

#: Sanity bound on a single frame body. The largest legitimate Rivulet
#: payloads (gapless sync snapshots, journal replays) are well under a
#: megabyte; anything bigger is a corrupted length prefix or an abusive
#: peer, and buffering it would just delay the inevitable desync.
MAX_FRAME = 16 * 1024 * 1024

#: Deepest container nesting either direction accepts.
MAX_DEPTH = 32

#: Entries a memo table holds at most; inserts stop at the cap.
MEMO_CAP = 4096


class WireError(ValueError):
    """Malformed frame, wrong frame version, or unserializable payload."""


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_pack_i64 = struct.Struct(">Bq").pack
_pack_f64 = struct.Struct(">Bd").pack
_pack_sized = struct.Struct(">BI").pack
_pack_stamp = struct.Struct(">Bqdq").pack
_STAMP = struct.Struct(">qdq")  # an Event's or Command's seq, time, size_bytes
_unpack_u32 = _U32.unpack_from

_NONE, _TRUE, _FALSE = b"NTF"
_INT, _BIGINT, _FLOAT, _STR, _BYTES = b"iIfsb"
_LIST, _TUPLE, _DICT, _SET = b"ltdS"
_EVENT, _COMMAND, _PIDSET = b"ECP"

# The memo tables.
_HEADS_OUT: dict[tuple, bytes] = {}      # (kind, src, dst, *keys) -> 0 || u16 len || header
_HEADS_IN: dict[bytes, tuple] = {}       # header -> (kind, src, dst, keys)
_ONLY_STR = frozenset((str,))


# -- encoding ------------------------------------------------------------------------


def _name(name: Any) -> bytes:
    if type(name) is not str:
        raise WireError(f"name {name!r} is not a str")
    raw = name.encode()
    if len(raw) > 255:
        raise WireError(f"name of {len(raw)} bytes is over 255")
    return bytes((len(raw),)) + raw


def _encode_header(key: tuple) -> bytes:
    if len(key) > 258:
        raise WireError(f"{len(key) - 3} payload keys, over 255")
    head = bytes((len(key) - 3,)) + b"".join(map(_name, key))
    if len(head) > 0xFFFF:
        raise WireError(f"header of {len(head)} bytes")
    head = b"\x00" + _U16.pack(len(head)) + head  # shape 0
    if len(_HEADS_OUT) < MEMO_CAP:
        _HEADS_OUT[key] = head
    return head


def _put_fields(out: bytearray, values, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise WireError(f"payload nests deeper than {MAX_DEPTH}")
    depth += 1
    for value in values:
        _PUT[type(value)](out, value, depth)


def _put_items(out: bytearray, tag: int, items, depth: int) -> None:
    out += _pack_sized(tag, len(items))
    _put_fields(out, items, depth)


def _put_int(out: bytearray, value: int, depth: int) -> None:
    try:
        out += _pack_i64(_INT, value)
    except struct.error:  # outside int64
        size = value.bit_length() // 8 + 1
        out += _pack_sized(_BIGINT, size)
        out += value.to_bytes(size, "big", signed=True)


def _put_sized(out: bytearray, tag: int, raw: bytes) -> None:
    out += _pack_sized(tag, len(raw))
    out += raw


def _put_dict(out: bytearray, value: dict, depth: int) -> None:
    out += _pack_sized(_DICT, len(value))
    _put_fields(out, chain.from_iterable(value.items()), depth)


def _stamp(tag: int, seq: Any, at: Any, size: Any) -> bytes:
    # Written as int64, float64, int64: anything else would not come back
    # with its own type.
    if type(seq) is not int or type(at) is not float or type(size) is not int:
        raise WireError(
            f"{chr(tag)} stamp must be (int, float, int), not "
            f"({type(seq).__name__}, {type(at).__name__}, {type(size).__name__})")
    return _pack_stamp(tag, seq, at, size)


def _put_event(out: bytearray, event: Event, depth: int) -> None:
    out += _stamp(_EVENT, event.seq, event.emitted_at, event.size_bytes)
    _put_fields(out, (event.sensor_id, event.value, event.epoch), depth)


def _put_command(out: bytearray, command: Command, depth: int) -> None:
    out += _stamp(_COMMAND, command.seq, command.issued_at, command.size_bytes)
    _put_fields(out, (command.actuator_id, command.action, command.value,
                      command.issued_by), depth)


def _put_pidset(out: bytearray, ids: ProcessIdSet, depth: int) -> None:
    names = b"".join(map(_name, sorted(ids)))
    out += _pack_sized(_PIDSET, len(names))
    out += names


#: exact type -> writer of its tag and body.
_PUT = {
    type(None): lambda out, value, depth: out.append(_NONE),
    bool: lambda out, value, depth: out.append(_TRUE if value else _FALSE),
    int: _put_int,
    float: lambda out, value, depth: out.extend(_pack_f64(_FLOAT, value)),
    str: lambda out, value, depth: _put_sized(out, _STR, value.encode()),
    bytes: lambda out, value, depth: _put_sized(out, _BYTES, value),
    list: lambda out, value, depth: _put_items(out, _LIST, value, depth),
    tuple: lambda out, value, depth: _put_items(out, _TUPLE, value, depth),
    set: lambda out, value, depth: _put_items(out, _SET, sorted(value), depth),
    frozenset: lambda out, value, depth: _put_items(out, _SET, sorted(value), depth),
    dict: _put_dict,
    Event: _put_event,
    Command: _put_command,
    ProcessIdSet: _put_pidset,
}


def _put_all(out: bytearray, values, what: str) -> None:
    try:
        _put_fields(out, values, -1)
    except KeyError as exc:  # a type _PUT has no writer for
        raise WireError(f"cannot serialize {exc.args[0].__name__} in {what}") from None
    except (TypeError, struct.error, UnicodeEncodeError) as exc:
        # Unorderable set members, a stamp field past int64, a lone surrogate.
        raise WireError(f"cannot serialize {what}: {exc}") from exc


def encode_message(message: Message, names: Names | None = None) -> bytes:
    """One message as a complete frame (version + length prefix included):
    in its kind's declared shape if ``names`` is given and the message fits
    the row, as shape 0 otherwise."""
    if names is not None:
        shape = _SHAPE_OF.get(message.kind)
        if shape is not None:
            frame = shape.encode(message, names)
            if frame is not None:
                return frame
    payload = message.payload
    key = (message.kind, message.src, message.dst, *payload)
    head = _HEADS_OUT.get(key)
    if head is None or not _ONLY_STR.issuperset(map(type, key)):
        # A str subclass hashes and compares equal to the str it spells,
        # so a hit is checked for exact types and a miss refuses it.
        head = _encode_header(key)
    out = bytearray(HEADER_SIZE)
    out += head
    _put_all(out, payload.values(), repr(message.kind))
    size = len(out) - HEADER_SIZE
    if size > MAX_FRAME:
        raise WireError(f"frame of {size} bytes exceeds MAX_FRAME")
    _HEADER.pack_into(out, 0, WIRE_VERSION, size)
    return bytes(out)


def encode_record(value: Any) -> bytes:
    """One journal record: ``u32 length || value``."""
    out = bytearray(_U32.size)
    _put_all(out, (value,), "a journal record")
    size = len(out) - _U32.size
    if size > MAX_FRAME:
        raise WireError(f"journal record of {size} bytes exceeds MAX_FRAME")
    _U32.pack_into(out, 0, size)
    return bytes(out)


# -- decoding ------------------------------------------------------------------------
#
# A reader takes the buffer, the position just past its tag and the
# nesting depth, and returns ``(value, position after it)``.


def _span(buf: bytes, pos: int) -> tuple[bytes, int]:
    start = pos + 4
    end = start + _unpack_u32(buf, pos)[0]
    if end > len(buf):
        raise WireError(f"length runs {end - len(buf)} bytes past the end")
    return buf[start:end], end


def _count(buf: bytes, pos: int, width: int) -> int:
    """A container's item count, checked: each item takes a byte at least."""
    count = _unpack_u32(buf, pos)[0]
    if count * width > len(buf) - pos - 4:
        raise WireError(f"count {count} runs past the end")
    return count


def _get_fields(buf: bytes, pos: int, depth: int, count: int) -> tuple[list, int]:
    if depth >= MAX_DEPTH:
        raise WireError(f"payload nests deeper than {MAX_DEPTH}")
    items = []
    depth += 1
    for _ in range(count):
        item, pos = _GET[buf[pos]](buf, pos + 1, depth)
        items.append(item)
    return items, pos


def _get_sequence(build: type):
    """The reader of a ``u32 count || values`` container built as ``build``."""
    def read(buf: bytes, pos: int, depth: int) -> tuple[Any, int]:
        items, pos = _get_fields(buf, pos + 4, depth, _count(buf, pos, 1))
        return build(items), pos
    return read


def _get_dict(buf: bytes, pos: int, depth: int) -> tuple[dict, int]:
    count = _count(buf, pos, 2)
    parts, pos = _get_fields(buf, pos + 4, depth, 2 * count)
    result = dict(zip(parts[::2], parts[1::2]))
    if len(result) != count:
        raise WireError("duplicate dict key")
    return result, pos


def _get_fixed(fmt: str):
    """The reader of one fixed-width ``struct`` field."""
    unpack, size = struct.Struct(fmt).unpack_from, struct.calcsize(fmt)
    return lambda buf, pos, depth: (unpack(buf, pos)[0], pos + size)


def _get_bigint(buf: bytes, pos: int, depth: int) -> tuple[int, int]:
    raw, pos = _span(buf, pos)
    return int.from_bytes(raw, "big", signed=True), pos


def _get_str(buf: bytes, pos: int, depth: int) -> tuple[str, int]:
    raw, pos = _span(buf, pos)
    return raw.decode(), pos


def _get_event(buf: bytes, pos: int, depth: int) -> tuple[Event, int]:
    seq, at, size = _STAMP.unpack_from(buf, pos)
    (sensor_id, value, epoch), pos = _get_fields(buf, pos + _STAMP.size, depth, 3)
    return Event(sensor_id, seq, at, value, size, epoch), pos


def _get_command(buf: bytes, pos: int, depth: int) -> tuple[Command, int]:
    seq, at, size = _STAMP.unpack_from(buf, pos)
    (actuator, action, value, issued_by), pos = _get_fields(
        buf, pos + _STAMP.size, depth, 4)
    return Command(actuator, seq, at, action, value, size, issued_by), pos


def _names(data: bytes, pos: int) -> list[str]:
    """Every ``u8 len || UTF-8`` name from ``pos`` to the end of ``data``."""
    names = []
    while pos < len(data):
        end = pos + 1 + data[pos]
        if end > len(data):
            raise WireError("a name runs past the end")
        names.append(data[pos + 1:end].decode())
        pos = end
    return names


def _get_pidset(buf: bytes, pos: int, depth: int) -> tuple[ProcessIdSet, int]:
    raw, pos = _span(buf, pos)
    return ProcessIdSet(_names(raw, 0)), pos


def _unknown_tag(buf: bytes, pos: int, depth: int):
    raise WireError(f"unknown value tag {buf[pos - 1]:#04x}")


_READERS = {
    _NONE: lambda buf, pos, depth: (None, pos),
    _TRUE: lambda buf, pos, depth: (True, pos),
    _FALSE: lambda buf, pos, depth: (False, pos),
    _INT: _get_fixed(">q"),
    _BIGINT: _get_bigint,
    _FLOAT: _get_fixed(">d"),
    _STR: _get_str,
    _BYTES: lambda buf, pos, depth: _span(buf, pos),
    _LIST: _get_sequence(list),
    _TUPLE: _get_sequence(tuple),
    _DICT: _get_dict,
    _SET: _get_sequence(frozenset),
    _EVENT: _get_event,
    _COMMAND: _get_command,
    _PIDSET: _get_pidset,
}
#: tag byte -> reader.
_GET = [_READERS.get(tag, _unknown_tag) for tag in range(256)]

#: What a malformed body raises before it reaches a check of its own: a
#: fixed-width field cut short, a tag past the end, an unhashable dict key
#: or set member, bad UTF-8.
_DECODE_ERRORS = (struct.error, IndexError, TypeError, UnicodeDecodeError)


def _read_header(head: bytes) -> tuple:
    if not head:
        raise WireError("empty frame header")
    names = _names(head, 1)
    if len(names) != head[0] + 3:
        raise WireError(f"frame header holds {len(names)} names, not {head[0] + 3}")
    kind, src, dst, *keys = names
    if len(set(keys)) != len(keys):
        raise WireError("duplicate payload key")
    fields = (kind, src, dst, tuple(keys))
    if len(_HEADS_IN) < MEMO_CAP:
        _HEADS_IN[head] = fields
    return fields


def decode_body(body: bytes, names: Names | None = None) -> Message:
    """The message a frame body carries; :class:`WireError` if it is not a
    version-4 body, or if it is shaped and ``names`` is not the table it
    was packed against."""
    try:
        shape = _SHAPE_AT[body[0]]
        if shape is not None and names is not None:
            message, end = shape.decode(body, names)
        elif body[0]:
            raise WireError(f"unknown shape {body[0]}" if shape is None else
                            f"shape {body[0]} ({shape.kind}) needs a names table")
        else:  # shape 0
            end = 3 + _U16.unpack_from(body, 1)[0]
            if end > len(body):
                raise WireError("frame header runs past the end of the body")
            head = body[3:end]
            kind, src, dst, keys = _HEADS_IN.get(head) or _read_header(head)
            payload = {}
            for key in keys:
                payload[key], end = _GET[body[end]](body, end + 1, 0)
            message = Message(kind, src, dst, payload)
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed frame body: {exc!r}") from exc
    if end != len(body):
        raise WireError(f"{len(body) - end} trailing bytes after the payload")
    return message


def decode_records(data: bytes) -> list:
    """Every complete journal record in ``data``, in order.

    A record whose length runs past the end is a torn tail (a writer
    killed mid-record): reading stops there, before it. A complete record
    that does not decode, or a length over :data:`MAX_FRAME` (a file this
    codec did not write), raises :class:`WireError`.
    """
    records, pos = [], 0
    while len(data) - pos >= _U32.size:
        size = _unpack_u32(data, pos)[0]
        if size > MAX_FRAME:  # not a journal this codec wrote
            raise WireError(f"journal record of {size} bytes exceeds MAX_FRAME")
        start = pos + _U32.size
        pos = start + size
        if pos > len(data):
            break
        record = data[start:pos]
        try:
            value, end = _GET[record[0]](record, 1, 0)
        except _DECODE_ERRORS as exc:
            raise WireError(f"malformed journal record: {exc!r}") from exc
        if end != len(record):
            raise WireError(f"{len(record) - end} trailing bytes in a journal record")
        records.append(value)
    return records


# -- declared shapes ------------------------------------------------------------------


class Names:
    """The interning table of one deployment: ``names`` (every id a shaped
    frame writes indexes it), the ``processes`` a ``pids`` mask counts
    over, and their CRC32, which every shaped frame carries.

    :attr:`fallbacks` counts the declared-kind messages this table's
    sender wrote as shape 0, by ``(kind, reason)``: ``keys`` (not the row's
    keys in its order), ``type`` (a value not of its codec's exact type) or
    ``name`` (a name or process not in the table).
    """

    def __init__(self, names: Sequence[str], processes: Sequence[str]) -> None:
        if len(names) > 0x10000:
            raise ValueError(f"{len(names)} names, more than a u16 id can index")
        self.names = tuple(names)
        self.processes = tuple(processes)
        self.ids = {name: i for i, name in enumerate(self.names)}
        # A u32 mask counts at most 32 processes: past that no set is shaped.
        self._bits = {p: 1 << i for i, p in enumerate(processes)} if len(processes) <= 32 else {}
        self.crc = zlib.crc32(repr((self.names, self.processes)).encode())
        self.fallbacks: dict[tuple[str, str], int] = {}
        self._masks: dict[ProcessIdSet, int] = {}
        self._sets: dict[int, ProcessIdSet] = {}

    @classmethod
    def of(cls, plan: DeploymentPlan) -> Names:
        """The plan's processes, sensors, actuators and apps, sorted and
        de-duplicated: the same table on every node, whatever the hash seed."""
        names = {*plan.processes, *plan.sensor_hosts, *plan.actuator_hosts,
                 *(app.name for app in plan.apps)}
        return cls(sorted(names), sorted(plan.processes))

    def mask(self, ids: ProcessIdSet) -> int:
        """``ids`` as a process mask; KeyError if a member is not a process."""
        mask = self._masks.get(ids)
        if mask is None:
            # Not a str (an equal subclass would come back a str): key None, absent.
            mask = sum(self._bits[p if type(p) is str else None] for p in ids)
            if len(self._masks) < MEMO_CAP:
                self._masks[ids] = mask
        return mask

    def pidset(self, mask: int) -> ProcessIdSet:
        """The processes of ``mask``; :class:`WireError` for a bit past them."""
        ids = self._sets.get(mask)
        if ids is None:
            bits = self._bits
            if mask >> len(bits):
                raise WireError(f"mask {mask:#x} has a bit past the {len(bits)} processes")
            ids = ProcessIdSet(p for p, bit in bits.items() if mask & bit)
            if len(self._sets) < MEMO_CAP:
                self._sets[mask] = ids
        return ids

    def refused(self, kind: str, reason: str) -> None:
        """Count one ``kind`` message written as shape 0 for ``reason``."""
        self.fallbacks[kind, reason] = self.fallbacks.get((kind, reason), 0) + 1


class _Codec(NamedTuple):
    """A field codec, as the source a row's functions are compiled from:
    expressions over the field's value ``{v}`` and, to decode, over the
    unpacked struct ``f`` from its first item ``{i}`` and over its tagged
    values ``{t0}``, ``{t1}``, ..."""

    fmt: str               # its struct items
    fits: str              # true when {v} has the codec's exact types
    fixed: str             # its struct items; a KeyError when a name is not interned
    tail: tuple[str, ...]  # its tagged values, each ``any``
    value: str             # the decoded value


def _stamped(cls: str, name: str, at: str) -> str:
    """``fits`` of an Event or a Command: its type, then its stamp's."""
    return (f"type({{v}}) is {cls} and type({{v}}.{name}) is str and "
            f"type({{v}}.seq) is int and type({{v}}.{at}) is float and "
            f"type({{v}}.size_bytes) is int")


#: The closed set of field codecs.
_CODECS = {
    "name": _Codec("H", "type({v}) is str", "ids[{v}]", (), "table[f[{i}]]"),
    "pids": _Codec("I", "type({v}) is ProcessIdSet", "mask({v})", (), "pidset(f[{i}])"),
    "event": _Codec(
        "Hqdq", _stamped("Event", "sensor_id", "emitted_at"),
        "ids[{v}.sensor_id], {v}.seq, {v}.emitted_at, {v}.size_bytes",
        ("{v}.value", "{v}.epoch"),
        "Event(table[f[{i}]], f[{i} + 1], f[{i} + 2], {t0}, f[{i} + 3], {t1})"),
    "command": _Codec(
        "Hqdq", _stamped("Command", "actuator_id", "issued_at"),
        "ids[{v}.actuator_id], {v}.seq, {v}.issued_at, {v}.size_bytes",
        ("{v}.action", "{v}.value", "{v}.issued_by"),
        "Command(table[f[{i}]], f[{i} + 1], f[{i} + 2], {t0}, {t1}, f[{i} + 3], {t2})"),
}

#: One row per per-event kind: the payload keys in order, each with its
#: field codec. Row ``i`` is shape ``i + 1``.
SHAPES: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    (GAPLESS_FWD, (("sensor", "name"), ("event", "event"), ("S", "pids"), ("V", "pids"))),
    (GAP_FWD, (("sensor", "name"), ("event", "event"), ("app", "name"))),
    (NBCAST, (("sensor", "name"), ("event", "event"))),
    (RBCAST, (("sensor", "name"), ("event", "event"))),
    (CMD_FWD, (("actuator", "name"), ("command", "command"), ("app", "name"))),
)

# A row's encoder and decoder, filled in from its codecs. The encoder
# returns None when the message is off the row (counted) and when a tagged
# value cannot be written in any shape (shape 0 then raises why).
_ROW_SOURCE = """
def encode(message, names):
    payload = message.payload
    if tuple(payload) != {keys!r}:
        return names.refused({kind!r}, "keys")
    {values}, = payload.values()
    if not (type(message.src) is str and type(message.dst) is str and {fits}):
        return names.refused({kind!r}, "type")
    ids, mask = names.ids, names.mask
    try:
        fixed = (ids[message.src], ids[message.dst], {fixed})
    except KeyError:
        return names.refused({kind!r}, "name")
    out = bytearray()
    try:
        for value in ({tail}):
            _PUT[type(value)](out, value, 0)
        if len(out) <= _MAX_TAIL:
            return _FRAME.pack(WIRE_VERSION, _BODY.size + len(out), {index}, names.crc,
                               *fixed) + out
    except (KeyError, TypeError, struct.error, UnicodeEncodeError):
        return None
    # Past MAX_FRAME: None too.

def decode(body, names):
    f = _BODY.unpack_from(body)
    if f[1] != names.crc:
        raise WireError(f"shape {index} packed against names table {{f[1]:#010x}}, "
                        f"not this one ({{names.crc:#010x}})")
    end = _BODY.size{reads}
    table, pidset = names.names, names.pidset
    return Message({kind!r}, table[f[2]], table[f[3]], {{{payload}}}), end
"""


class _Shape(NamedTuple):
    """One row of :data:`SHAPES`, compiled: ``shape || u32 crc || u16 src
    || u16 dst || fixed fields`` as one struct, then the tagged values."""

    kind: str
    encode: Callable[[Message, Names], bytes | None]
    decode: Callable[[bytes, Names], tuple[Message, int]]


def _compile(index: int, kind: str, row: tuple[tuple[str, str], ...]) -> _Shape:
    """Shape ``index``: ``row``'s struct, and its encoder and decoder built
    from :data:`_ROW_SOURCE` and the codecs' templates."""
    codecs = [_CODECS[codec] for _key, codec in row]
    values = [f"v{n}" for n in range(len(row))]
    payload, i, j = [], 4, 0
    for (key, _codec), codec in zip(row, codecs):
        value = codec.value.format(i=i, t0=f"t{j}", t1=f"t{j + 1}", t2=f"t{j + 2}")
        payload.append(f"{key!r}: {value}")
        i, j = i + len(codec.fmt), j + len(codec.tail)
    body = struct.Struct(">BIHH" + "".join(codec.fmt for codec in codecs))
    namespace = {**globals(), "_BODY": body, "_MAX_TAIL": MAX_FRAME - body.size,
                 "_FRAME": struct.Struct(">BI" + body.format[1:])}  # frame header, body
    exec(_ROW_SOURCE.format(  # only the templates above and the keys of SHAPES
        keys=tuple(key for key, _codec in row), kind=kind, index=index,
        reads="".join(f"\n    t{n}, end = _GET[body[end]](body, end + 1, 0)" for n in range(j)),
        values=", ".join(values),
        fits=" and ".join(c.fits.format(v=v) for c, v in zip(codecs, values)),
        fixed=", ".join(c.fixed.format(v=v) for c, v in zip(codecs, values)),
        tail="".join(f"{t.format(v=v)}, " for c, v in zip(codecs, values) for t in c.tail),
        payload=", ".join(payload)), namespace)
    return _Shape(kind, namespace["encode"], namespace["decode"])


_SHAPE_OF = {kind: _compile(i + 1, kind, row) for i, (kind, row) in enumerate(SHAPES)}
#: shape byte -> its compiled row (None for shape 0 and undeclared bytes).
_SHAPE_AT: list[_Shape | None] = [None, *_SHAPE_OF.values(), *[None] * (255 - len(SHAPES))]


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


#: Where a shape-0 kind's length byte sits: past the frame header, the
#: shape byte, the u16 header length and the u8 key count.
_KIND_AT = HEADER_SIZE + 4


def frame_kind(frame: bytes, start: int = 0, end: int | None = None) -> str | None:
    """The message ``kind`` of the complete frame ``frame[start:end]``
    (all of ``frame`` by default), or None if it has none.

    Used by the fault proxy to classify forwarded traffic for overhead
    accounting without decoding payloads or slicing the frame out of its
    chunk: a shaped frame's kind is its shape byte, a shape-0 kind one
    slice at a fixed offset (the rest of the body is not read).
    """
    try:
        if frame[start] != WIRE_VERSION:
            return None
        shape = frame[start + HEADER_SIZE]
        if shape:  # shaped, or undeclared: None
            return getattr(_SHAPE_AT[shape], "kind", None)
        at = start + _KIND_AT + 1
        stop = at + frame[at - 1]
        if stop <= (len(frame) if end is None else end):
            return frame[at:stop].decode()
    except (IndexError, UnicodeDecodeError):  # too short for a kind, or not UTF-8
        pass
    return None


def _check_header(version: int, length: int) -> None:
    if version != WIRE_VERSION:
        raise WireError(
            f"frame version {version} != supported WIRE_VERSION {WIRE_VERSION}"
        )
    if length > MAX_FRAME:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")


class FrameProtocol(asyncio.Protocol):
    """The one read path: an accepted connection split into frames.

    ``data_received`` reads a chunk in one pass over its complete frames'
    headers and hands them to ``deliver(data, ends)`` in one call:
    ``data`` starts at a frame boundary and the frames are
    ``data[0:ends[0]]``, ``data[ends[0]:ends[1]]``, ... in stream order
    (a node decodes each body, the fault proxy forwards the run whole).
    ``deliver`` returns False to hang up (a halted node): the connection
    is closed and nothing more is read; any other return value reads on.

    A frame the chunk cuts is kept as the chunks themselves and joined once
    its last byte has arrived (together with the rest of that chunk), never
    once per chunk. Its version byte and its length against
    :data:`MAX_FRAME` are checked before anything past its header is kept.
    A wrong version or an oversized length (the frames before it are
    delivered first), or a :class:`WireError` that ``deliver`` raises,
    closes the connection and is passed to ``on_error`` — the stream is
    unrecoverable past it. EOF, between frames or inside one, just closes
    the connection.

    The protocol is in ``inbound`` from ``connection_made`` to
    ``connection_lost``, which resolves :attr:`closed`
    (:func:`close_accepted`).
    """

    def __init__(self, deliver: Callable[[bytes, list[int]], bool | None], inbound: set, *,
                 on_error: Callable[[WireError], None] | None = None):
        self._deliver = deliver
        self._inbound = inbound
        self._on_error = on_error
        self._pieces: list[bytes] = []  # the cut frame so far
        self._have = 0  # bytes in _pieces
        self._need = 0  # bytes it takes: the frame, or while it is cut inside, its header
        self.transport: asyncio.Transport | None = None
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._inbound.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._inbound.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        if self._pieces:
            self._pieces.append(data)
            self._have += len(data)
            if self._have < self._need:
                return
            data = b"".join(self._pieces)  # the cut frame, and what followed it
            self._pieces = []
        unpack = _HEADER.unpack_from
        ends: list[int] = []
        pos, size, error = 0, len(data), None
        try:
            while size - pos >= HEADER_SIZE:
                version, length = unpack(data, pos)
                if version != WIRE_VERSION or length > MAX_FRAME:
                    _check_header(version, length)
                end = pos + HEADER_SIZE + length
                if end > size:
                    break
                ends.append(end)
                pos = end
        except WireError as exc:
            error = exc
        try:
            if ends and self._deliver(data, ends) is False:
                self.transport.close()
                return
        except WireError as exc:
            error = exc
        if error is not None:
            self.transport.close()
            if self._on_error is not None:
                self._on_error(error)
        elif pos < size:
            self._pieces = [data[pos:]]
            self._have = size - pos
            self._need = end - pos if self._have >= HEADER_SIZE else HEADER_SIZE


DIAL_TIMEOUT_S = 1.0
"""How long a :class:`PeerSender` dial may take, and its longest retry delay."""

DIAL_RETRY_S = 0.05
"""The wait after a first failed dial; it doubles per further failure."""


@dataclass
class SenderStats:
    """What a :class:`PeerSender` counts, in its flush and dial steps only."""

    redials: int = 0     # dials after its first
    dial_lost: int = 0   # frames due when a dial failed
    peak_queue: int = 0  # the deepest queue a flush or a dial found
    frames: int = 0      # frames written
    writes: int = 0      # write() calls that carried them


class PeerSender:
    """The one write path: frames to one peer address, in order, queue-free.

    A node keeps one per destination, the fault proxy one per pair. An
    entry is ``data`` holding one or more whole frames, due at a loop time.
    :meth:`put` appends an entry and arms at most one loop callback:
    ``call_soon`` when the head is due, ``call_at`` its due time otherwise.
    :meth:`hold` appends one and arms nothing: its caller calls
    :meth:`flush` before its loop turn ends, which writes at once unless a
    callback is armed already (that one writes it, in order). Either way a
    flush writes every due entry in one ``write`` — a batch is what has
    piled up, never waited for — and a due entry behind a head that is not
    due waits for it (per-peer FIFO).

    The peer is dialled lazily when a frame falls due, and redialled once
    the connection has closed under the sender; the frames due when a dial
    fails met an unreachable peer and are lost, as on TCP. After a failed
    dial the next waits :data:`DIAL_RETRY_S`, doubling per further failure
    up to the connect timeout :data:`DIAL_TIMEOUT_S` (a dial that connects
    resets it): frames falling due meanwhile wait for that dial, so a dead
    peer costs one dial per retry delay, not one per frame. Against a peer
    that stops reading, nothing is written while the transport's buffer is
    past its high-water mark (the sender awaits ``drain()`` instead), so
    entries wait in the queue, which ``limit`` bounds. :attr:`stats` counts
    redials, frames lost to a failed dial, the peak queue depth, and the
    frames written and the writes that carried them.
    """

    def __init__(self, address: tuple[str, int], *, limit: int | None = None) -> None:
        self._address = address
        self._limit = limit
        self._loop = asyncio.get_running_loop()
        self._queue: deque[tuple[float, bytes, int]] = deque()
        self._writer: asyncio.StreamWriter | None = None
        # The one armed step while frames wait: a flush, a dial or a drain.
        self._pending: asyncio.Handle | asyncio.Task | None = None
        self._dialled = False
        self._retry_at = 0.0  # no dial before this loop time
        self._retry_s = DIAL_RETRY_S  # the wait after the next failed dial
        self.stats = SenderStats()

    def hold(self, due: float, data: bytes, frames: int = 1) -> bool:
        """Queue ``data`` (``frames`` whole frames) to leave at loop time
        ``due``, arming nothing; False if the queue is full."""
        queue = self._queue
        if self._limit is not None and len(queue) >= self._limit:
            return False
        queue.append((due, data, frames))
        return True

    def put(self, due: float, data: bytes, frames: int = 1) -> bool:
        """:meth:`hold`, then arm the callback that writes it."""
        if not self.hold(due, data, frames):
            return False
        if self._pending is None:
            self._arm()
        return True

    def flush(self) -> None:
        """Write what is due now, unless a flush, dial or drain is armed."""
        if self._pending is None and self._queue:
            self._flush()

    def _arm(self) -> None:
        due = self._queue[0][0]
        if due <= self._loop.time():
            self._pending = self._loop.call_soon(self._flush)
        else:
            self._pending = self._loop.call_at(due, self._flush)

    def _flush(self) -> None:
        self._pending = None
        queue, stats = self._queue, self.stats
        stats.peak_queue = max(stats.peak_queue, len(queue))
        writer = self._writer
        if writer is None or writer.is_closing():
            if self._loop.time() < self._retry_at:
                self._pending = self._loop.call_at(self._retry_at, self._flush)
                return
            stats.redials += self._dialled
            self._dialled = True
            self._writer = None
            self._pending = self._loop.create_task(self._dial(writer))
            return
        now = self._loop.time()
        chunks = []
        while queue and queue[0][0] <= now:
            _due, data, frames = queue.popleft()
            chunks.append(data)
            stats.frames += frames
        if chunks:
            writer.write(chunks[0] if len(chunks) == 1 else b"".join(chunks))
            stats.writes += 1
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
            async with asyncio.timeout(DIAL_TIMEOUT_S):
                _reader, writer = await asyncio.open_connection(*self._address)
        except (OSError, asyncio.TimeoutError):
            now, queue, stats = self._loop.time(), self._queue, self.stats
            stats.peak_queue = max(stats.peak_queue, len(queue))
            while queue and queue[0][0] <= now:
                stats.dial_lost += queue.popleft()[2]  # peer unreachable: lost
            self._retry_at = now + self._retry_s
            self._retry_s = min(2 * self._retry_s, DIAL_TIMEOUT_S)
        else:
            self._writer = writer
            self._retry_s = DIAL_RETRY_S
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


async def accepts_handed_over() -> None:
    """Return once every dial that completed has reached its protocol.

    The loop accepts a connection in one turn, attaches its transport to
    the server in the next and calls :meth:`FrameProtocol.connection_made`
    in a third. A listener closed in between fails ``Server._attach``'s
    assertion and asyncio drops the socket unclosed, so whoever closes
    listeners stops their dialers first and then waits here.
    """
    for _ in range(3):
        await asyncio.sleep(0)


async def close_accepted(inbound: set) -> None:
    """Close every accepted connection in ``inbound`` and wait for its
    ``connection_lost``."""
    protocols = list(inbound)
    for protocol in protocols:
        protocol.transport.close()
    await asyncio.gather(*(protocol.closed for protocol in protocols))
