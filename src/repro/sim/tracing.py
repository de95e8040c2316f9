"""Structured trace recording.

The evaluation harness never instruments protocol code with ad-hoc counters;
instead every interesting occurrence (event ingested, message sent, poll
issued, logic delivery, promotion, ...) is recorded in one :class:`Trace`
and the metrics in :mod:`repro.eval.metrics` are pure functions over it.

Performance notes (see docs/performance.md). ``record()`` is one of the
three hottest functions in the simulator, so the trace is organised for
O(1) appends and O(1) aggregate queries:

- events are stored **indexed by kind** as they arrive, so ``of_kind`` is a
  dictionary lookup instead of a scan over the full stream;
- incremental aggregates — per-kind counts, per-kind byte totals,
  per-``(kind, sub-kind)`` message tallies and per-``(src, dst)`` pair
  counts — are maintained inside ``record()`` so accounting helpers such as
  :meth:`repro.net.transport.HomeNetwork.bytes_sent` never re-scan;
- the hottest record families bypass the kwargs path entirely:
  :meth:`Trace.message_channel` hands the transport a per-``(kind, src,
  dst)`` :class:`MessageChannel` with every aggregate cell pre-resolved,
  :meth:`Trace.device_channel` hands the radio, the sensors and the
  delivery service a per-``(kind, sensor[, process])``
  :class:`DeviceChannel` for the once-per-event records, and
  :meth:`Trace.record_row` is the positional lane for the per-event
  records that carry no aggregate fields: ``RuntimeEnv.trace_row``
  (``logic_delivery``, ``command_issued``, the rt ``actuation``) and, through
  :meth:`Trace.record_device`, the remaining radio/device kinds
  (``radio_lost``, ``poll_*``, ``command_*``) and ``trace_device``
  (``ingest``, ``relay_receive``);
- this module is the only one that knows the digest byte layout: one
  encoder per record shape (:func:`_record_bytes` for any row or fields
  dict, :class:`MessageChannel` and :class:`DeviceChannel` for their fixed
  shapes), all byte-identical for the same record — a run's digest does
  not depend on which lane wrote it or on what observes the trace;
- ``events`` / ``of_kind`` return **read-only views** over internal lists
  (no copying); ``iter_kind`` is the matching lazy iterator;
- a kept :class:`TraceEvent` is a row — time, kind, an interned field-name
  tuple and a values tuple — which the positional lanes write without
  building a fields dict; ``digest()`` provides a stable
  hash over the full record stream so determinism can be asserted cheaply.
  The digest payload is a versioned **binary encoding** (see
  :data:`DIGEST_VERSION` and :func:`_pack_value`): floats are packed to 8
  bytes with ``struct.pack("<d", ...)`` instead of ``repr()``-ed, strings
  and ints are length-prefixed/tagged, and the format version seeds every
  hasher so digests never compare across formats by accident.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from collections.abc import Sequence
from typing import Any, Callable, Iterable, Iterator

#: Digest format version. v1 hashed ``repr()``-joined text records; v2 is a
#: length-prefixed binary framing (floats via ``struct.pack("<d", ...)``)
#: whose version string seeds every hasher, so digests produced by
#: different format versions can never collide — and can never be compared
#: by accident either (reports carry ``digest_version``; see
#: :mod:`repro.eval.report`). v3 is v2 with one string framing: v2's
#: generic encoder framed top-level strings with a uint32 length while its
#: precomposed lanes used the compact prefix, so a v2 digest depended on
#: the lane that wrote each record.
DIGEST_VERSION = 3

#: Fed into every hasher before any record bytes. Changing the encoding
#: REQUIRES bumping this string (and :data:`DIGEST_VERSION`): that is what
#: makes a digest self-describing.
_VERSION_PREFIX = b"rivulet-digest/3\n"

_PACK_D = struct.Struct("<d").pack   # float64, little-endian (8 bytes)
_PACK_Q = struct.Struct("<q").pack   # int64, little-endian (8 bytes)
_PACK_I = struct.Struct("<I").pack   # uint32 escape length (4 bytes)

#: One-byte length/count prefixes. Trace strings are short (kind names,
#: process ids, sensor ids), so lengths below 255 — effectively all of
#: them — frame in a single byte; 0xff escapes to a uint32 for the rest.
_LEN1 = tuple(bytes([n]) for n in range(255))

#: The streaming-hash staging buffer is folded into the hasher once it
#: holds this many bytes (~the old 1024-piece cadence at ~32 B/piece).
_FLUSH_BYTES = 32768


def _new_hasher() -> "hashlib._Hash":
    """A fresh digest hasher, seeded with the format-version prefix.

    SHA-256 rather than blake2b: OpenSSL's SHA-256 (with SHA-NI / AVX2)
    roughly doubles the hash throughput of CPython's bundled blake2
    reference implementation, and the digest stream is an integrity
    check, not an adversarial boundary. Digests are truncated to 128
    bits (see :func:`_hexdigest`) so their printed width is unchanged.
    """
    return hashlib.sha256(_VERSION_PREFIX)


def _hexdigest(hasher: "hashlib._Hash") -> str:
    """A hasher's 32-hex-char (128-bit, truncated SHA-256) digest."""
    return hasher.hexdigest()[:32]


def _clen(n: int) -> bytes:
    """One length/count: one byte, or 0xff + uint32."""
    return _LEN1[n] if n < 255 else b"\xff" + _PACK_I(n)


def _lp(raw: bytes) -> bytes:
    """Length-prefix one byte string (unambiguous binary framing)."""
    n = len(raw)
    return (_LEN1[n] + raw) if n < 255 else b"\xff" + _PACK_I(n) + raw


#: Field-count byte for a record's framing (records carry < 64 fields).
_NF = tuple(bytes([n]) for n in range(64))

#: Length-prefixed field-key bytes for the precomposed digest lanes.
_K_BYTES = _lp(b"bytes")
_K_DST = _lp(b"dst")
_K_KIND = _lp(b"kind")
_K_PROCESS = _lp(b"process")
_K_SENSOR = _lp(b"sensor")
_K_SEQ = _lp(b"seq")
_K_SRC = _lp(b"src")

#: record kind -> length-prefixed UTF-8, interned (the kind set is small).
_KIND_LP: dict[str, bytes] = {}


def _kind_lp(kind: str) -> bytes:
    encoded = _KIND_LP.get(kind)
    if encoded is None:
        _KIND_LP[kind] = encoded = _lp(kind.encode("utf-8", "backslashreplace"))
    return encoded


def _pack_str(value: str) -> bytes:
    """One string *value*: tag + compact length + UTF-8 bytes."""
    encoded = value.encode("utf-8", "backslashreplace")
    n = len(encoded)
    return (b"s" + _LEN1[n] + encoded) if n < 255 else (
        b"s\xff" + _PACK_I(n) + encoded)


def _pack_int(value: int) -> bytes:
    """One int value: fixed 8 bytes for the int64 range, decimal beyond."""
    try:
        return b"q" + _PACK_Q(value)
    except struct.error:
        encoded = str(value).encode("ascii")
        return b"i" + _clen(len(encoded)) + encoded


def _pack_value(value: Any) -> bytes:
    """A deterministic binary form of one trace field value.

    Every variable-length piece is length-prefixed and every scalar is
    tagged with a one-byte type marker, so the concatenation of packed
    values is unambiguous. Floats go through ``struct.pack("<d", ...)`` —
    8 bytes, bit-exact (NaN payloads, signed zeros and infinities all
    round-trip), and an order of magnitude cheaper than ``repr``.
    Collections with unspecified iteration order (sets, dicts) are sorted
    by their packed encodings; objects whose ``repr`` would leak memory
    addresses are reduced to their type name, so the digest is
    reproducible across processes and machines.
    """
    t = type(value)
    if t is str:
        return _pack_str(value)
    if t is float:
        return b"f" + _PACK_D(value)
    if t is int:
        return _pack_int(value)
    if t is bool:
        return b"T" if value else b"F"
    if value is None:
        return b"N"
    if t is bytes:
        return b"b" + _clen(len(value)) + value
    if t in (list, tuple):
        return (b"l" + _clen(len(value))
                + b"".join(_pack_value(v) for v in value))
    if t in (set, frozenset) or isinstance(value, (set, frozenset)):
        items = sorted(_pack_value(v) for v in value)
        return b"e" + _clen(len(items)) + b"".join(items)
    if isinstance(value, dict):
        pairs = sorted((_pack_value(k), _pack_value(v))
                       for k, v in value.items())
        return (b"d" + _clen(len(pairs))
                + b"".join(k + v for k, v in pairs))
    if type(value).__repr__ is object.__repr__:
        encoded = type(value).__name__.encode("utf-8", "backslashreplace")
        return b"o" + _clen(len(encoded)) + encoded
    encoded = repr(value).encode("utf-8", "backslashreplace")
    return b"r" + _clen(len(encoded)) + encoded


#: Field-name tuple -> itself. A kept record's names are interned here, so
#: every record of one schema shares a single tuple object (and the
#: same-schema fast path of :meth:`TraceEvent.__eq__` is an identity test).
_NAMES: dict[tuple[str, ...], tuple[str, ...]] = {}
_intern = _NAMES.setdefault


class TraceEvent:
    """One timestamped occurrence, stored as a row.

    A record is ``time``, ``kind``, a field-name tuple and the matching
    values tuple; ``fields`` is a dict derived on each read. The lanes pass
    interned name tuples (:func:`row_names`), so every record of one schema
    shares one tuple object.
    Storing rows instead of dicts roughly halves a kept record's bytes
    (docs/performance.md), which is what bounds a long rt run's memory.
    Immutable by convention (nothing in the codebase mutates a recorded
    event).
    """

    __slots__ = ("time", "kind", "_names", "_values")

    def __init__(
        self, time: float, kind: str, names: tuple[str, ...], values: tuple
    ) -> None:
        self.time = time
        self.kind = kind
        self._names = names
        self._values = values

    @property
    def fields(self) -> dict[str, Any]:
        """The record's fields, as a fresh dict in recording order."""
        return dict(zip(self._names, self._values))

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[self._names.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        names = self._names
        return self._values[names.index(key)] if key in names else default

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        if self.time != other.time or self.kind != other.kind:
            return False
        if self._names is other._names:
            return self._values == other._values
        return self.fields == other.fields

    def __getstate__(self) -> tuple:
        return (self.time, self.kind, self._names, self._values)

    def __setstate__(self, state: tuple) -> None:
        if len(state) == 2:
            # The dict layout's slot state: (None, {"time", "kind", "fields"}).
            slots = state[1]
            fields = slots["fields"]
            state = (slots["time"], slots["kind"], tuple(fields), tuple(fields.values()))
        time, kind, names, values = state
        self.__init__(time, kind, _intern(names, names), values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


_new_event = object.__new__


def row_names(*names: str) -> tuple[str, ...]:
    """``names`` interned: the schema a :meth:`Trace.record_row` caller
    declares once, at module level."""
    return _intern(names, names)


#: The positional lanes' interned schemas, in each lane's field order.
_N_MSG = row_names("src", "dst", "kind")
_N_MSG_BYTES = row_names("src", "dst", "kind", "bytes")
_N_MSG_REASON = row_names("src", "dst", "kind", "reason")
_N_MSG_BYTES_REASON = row_names("src", "dst", "kind", "bytes", "reason")
_N_SENSOR_SEQ = row_names("sensor", "seq")
_N_SENSOR_PROCESS_SEQ = row_names("sensor", "process", "seq")


def _message_row(
    src: str, dst: str, sub_kind: str, nbytes: int | None, reason: str | None
) -> tuple[tuple[str, ...], tuple]:
    """A message record's row: ``src, dst, kind[, bytes][, reason]``."""
    if reason is None:
        if nbytes is None:
            return _N_MSG, (src, dst, sub_kind)
        return _N_MSG_BYTES, (src, dst, sub_kind, nbytes)
    if nbytes is None:
        return _N_MSG_REASON, (src, dst, sub_kind, reason)
    return _N_MSG_BYTES_REASON, (src, dst, sub_kind, nbytes, reason)


#: id field -> the interned names of its eight record_device shapes,
#: indexed by which of process (1), seq (2) and action (4) are present.
_DEVICE_NAMES: dict[str, tuple[tuple[str, ...], ...]] = {}


def _device_shapes(id_field: str) -> tuple[tuple[str, ...], ...]:
    optional = ("process", "seq", "action")
    shapes = _DEVICE_NAMES[id_field] = tuple(
        row_names(id_field, *[name for bit, name in enumerate(optional) if mask >> bit & 1])
        for mask in range(8)
    )
    return shapes


def _device_row(
    id_field: str, id_value: Any, process: Any, seq: Any, action: Any
) -> tuple[tuple[str, ...], tuple]:
    """A device record's row: ``<id_field>[, process][, seq][, action]``,
    each optional field present unless None."""
    shapes = _DEVICE_NAMES.get(id_field) or _device_shapes(id_field)
    if process is None:
        if seq is None:
            mask, values = 0, (id_value,)
        else:
            mask, values = 2, (id_value, seq)
    elif seq is None:
        mask, values = 1, (id_value, process)
    else:
        mask, values = 3, (id_value, process, seq)
    if action is None:
        return shapes[mask], values
    return shapes[mask | 4], values + (action,)


class EventsView(Sequence):
    """A read-only, live view over an internal event list.

    Supports indexing, slicing, iteration and ``len`` without copying; the
    view reflects events recorded after it was obtained (it is a window
    onto the trace, not a snapshot).
    """

    __slots__ = ("_items",)

    def __init__(self, items: list[TraceEvent]) -> None:
        self._items = items

    def __getitem__(self, index):
        result = self._items[index]
        return EventsView(result) if isinstance(index, slice) else result

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventsView of {len(self._items)} events>"


_EMPTY_VIEW = EventsView([])


class Trace:
    """An append-only, queryable log of :class:`TraceEvent`.

    Recording can be limited to a set of kinds to keep long experiments
    (e.g. the 15-day Fig. 1 deployment) memory-friendly; counters and the
    incremental aggregates are always maintained for every kind.

    ``digest=True`` additionally feeds every record (kept or not) through a
    streaming hash; :meth:`digest` then works even when nothing is stored.
    ``Trace(keep_kinds=set())`` is the aggregate-only trace: the record
    fast lanes then reduce to a handful of counter increments.
    """

    # _kind_state value layout: one mutable list per record kind, looked up
    # once per record() call (the profile/count/kept-list/subscriber checks
    # all ride on that single dictionary access).
    _COUNT = 0       # records of this kind so far
    _BYTES = 1       # running sum of the "bytes" field
    _PROFILE = 2     # _HAS_* bitmask, decided on first sight of the kind
    _KEPT = 3        # per-kind list of kept TraceEvents, or None
    _SUBS = 4        # kind-scoped subscriber list, or None

    _HAS_BYTES = 1
    _HAS_SUB = 2
    _HAS_PAIR = 4

    def __init__(
        self,
        keep_kinds: set[str] | None = None,
        *,
        digest: bool = False,
    ) -> None:
        self._events: list[TraceEvent] = []
        self._by_kind: dict[str, list[TraceEvent]] = {}
        self._kind_state: dict[str, list] = {}
        # record kind -> fields["kind"] -> [count, bytes]; e.g. how many
        # keepalive messages went over the wire and their byte total.
        self._sub_tallies: dict[str, dict[str, list[int]]] = {}
        # (record kind, src, dst) -> [count] cell, for records carrying
        # src/dst. A one-element list so fast lanes can increment a held
        # reference without re-hashing the key.
        self._pair_counts: dict[tuple[str, str, str], list[int]] = {}
        self._keep_kinds = keep_kinds
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self._kind_subscribers: dict[str, list[Callable[[TraceEvent], None]]] = {}
        self._hasher = _new_hasher() if digest else None
        # Hex digests of sealed stream segments (see :meth:`seal`): once a
        # segment is sealed its hash state is reduced to 32 hex chars, so a
        # year-long trace holds O(days) small strings instead of live
        # hasher state — and the trace becomes picklable at seal points.
        self._sealed: list[str] = []
        # Streaming-hash staging: packed record payloads accumulate in a
        # bytearray and fold into the hasher once ~32 KB are staged. The
        # hash runs over the accumulated bytes, so how payloads were split
        # when appended is digest-neutral.
        self._hash_buf = bytearray()
        # One-load digest gate for the channel lanes: the staging buffer
        # itself when a streaming hash is live, None otherwise — so the
        # hottest paths test and fetch with a single attribute load.
        self._dig_buf = self._hash_buf if digest else None
        # Cache of the last packed timestamp. Same-instant records are
        # common (all of a home's processes heartbeat on one bucket edge),
        # so the 8-byte float packing of the current instant is reused.
        self._lt = float("nan")
        self._ltr = b""
        # Same idea for the last packed sequence number: one emission
        # digests its seq as sensor_emit then radio_emit back-to-back, and
        # one radio delivery as radio_delivered then ingest_unrouted, so
        # roughly every second seq packing on the device lanes is a repeat.
        self._ls = -1
        self._lsr = _pack_int(-1)
        # One-load summary of the *kind-independent* observers: True once a
        # streaming hash exists or a global (unscoped) subscriber was
        # registered. Kind-scoped subscribers live in the per-kind state
        # (slot 4), so fast lanes test kept-list, kind-subs and this flag —
        # three loads instead of four, and records of unsubscribed kinds
        # keep their fast path when only specific kinds are watched.
        self._has_observers = digest

    def _new_kind(self, kind: str, fields: dict[str, Any]) -> list:
        """First record of ``kind``: fix its aggregate profile and wiring.

        Record schemas are stable per kind, so deciding once which of
        bytes / sub-kind / (src, dst) the kind carries lets every later
        record skip the field probes entirely.
        """
        profile = (
            (self._HAS_BYTES if "bytes" in fields else 0)
            | (self._HAS_SUB if "kind" in fields else 0)
            | (self._HAS_PAIR if "src" in fields and "dst" in fields else 0)
        )
        kept: list[TraceEvent] | None = None
        if self._keep_kinds is None or kind in self._keep_kinds:
            kept = self._by_kind.setdefault(kind, [])
        if profile & self._HAS_SUB:
            self._sub_tallies.setdefault(kind, {})
        state = [0, 0, profile, kept, self._kind_subscribers.get(kind)]
        self._kind_state[kind] = state
        return state

    def _finish(
        self, time: float, kind: str, state: list, names: tuple[str, ...], values: tuple
    ) -> None:
        """Store / notify / hash one record given as a row: an interned
        field-name tuple and its values.

        The shared tail of every lane; only called when at least one of
        kept-storage, subscribers or the streaming hash needs the record.
        """
        kept = state[3]
        kind_subs = state[4]
        if kept is not None or kind_subs is not None or self._subscribers:
            # TraceEvent(time, kind, names, values), inlined: the call
            # costs ~60 ns per kept record, ~1 % of rt_closed events/s.
            event = _new_event(TraceEvent)
            event.time = time
            event.kind = kind
            event._names = names
            event._values = values
            if kept is not None:
                self._events.append(event)
                kept.append(event)
            for subscriber in self._subscribers:
                subscriber(event)
            if kind_subs is not None:
                for subscriber in kind_subs:
                    subscriber(event)
        if self._hasher is not None:
            buf = self._hash_buf
            buf += _record_bytes(time, kind, names, values)
            if len(buf) >= _FLUSH_BYTES:
                self._flush_hash()

    def _flush_hash(self) -> None:
        """Fold the staged record payloads into the streaming hasher."""
        buf = self._hash_buf
        if buf:
            self._hasher.update(buf)
            buf.clear()

    def record(self, time: float, kind: str, /, **fields: Any) -> None:
        state = self._kind_state.get(kind)
        if state is None:
            state = self._new_kind(kind, fields)
        state[0] += 1

        profile = state[2]
        if profile:
            get = fields.get
            nbytes = get("bytes") if profile & 1 else None
            if nbytes is not None:
                state[1] += nbytes
            if profile & 2:
                sub = get("kind")
                if sub is not None:
                    tallies = self._sub_tallies[kind]
                    tally = tallies.get(sub)
                    if tally is None:
                        tallies[sub] = tally = [0, 0]
                    tally[0] += 1
                    if nbytes is not None:
                        tally[1] += nbytes
            if profile & 4:
                src = get("src")
                dst = get("dst")
                if src is not None and dst is not None:
                    pkey = (kind, src, dst)
                    pairs = self._pair_counts
                    cell = pairs.get(pkey)
                    if cell is None:
                        pairs[pkey] = [1]
                    else:
                        cell[0] += 1

        if state[3] is not None or state[4] is not None or self._subscribers:
            names = tuple(fields)
            self._finish(time, kind, state, _intern(names, names), tuple(fields.values()))
        elif self._hasher is not None:
            buf = self._hash_buf
            buf += _record_bytes(time, kind, tuple(fields), fields.values())
            if len(buf) >= _FLUSH_BYTES:
                self._flush_hash()

    def record_message(
        self,
        time: float,
        kind: str,
        src: str,
        dst: str,
        sub_kind: str,
        nbytes: int | None = None,
        reason: str | None = None,
    ) -> None:
        """One message record: ``record(time, kind, src=src, dst=dst,
        kind=sub_kind, [bytes=nbytes], [reason=reason])`` — same aggregates,
        same kept events, same digest bytes — through a one-off
        :meth:`message_channel`. A flow that records more than once holds
        its channel instead (the transport, the rt fault proxy)."""
        self.message_channel(kind, src, dst).record(time, sub_kind, nbytes, reason)

    def record_row(
        self, time: float, kind: str, names: tuple[str, ...], values: tuple
    ) -> None:
        """The positional lane for :meth:`record`: one record as a row.

        ``names`` is an interned field-name tuple (:func:`row_names`) and
        ``values`` its values in that order. Semantically identical to
        ``record(time, kind, **dict(zip(names, values)))`` — same counts,
        same kept events, same digest bytes — but the row is kept as given,
        and nothing is built while the record is only counted. For kinds
        whose schemas carry no aggregate fields; a kind that does carry
        them (``bytes``, ``kind``, ``src`` + ``dst``) takes the generic path.
        """
        state = self._kind_state.get(kind)
        if state is not None and not state[2]:
            state[0] += 1
            if state[3] is not None or state[4] is not None or self._has_observers:
                self._finish(time, kind, state, names, values)
            return
        self.record(time, kind, **dict(zip(names, values)))

    def record_device(
        self,
        time: float,
        kind: str,
        id_field: str,
        id_value: str,
        process: str | None = None,
        seq: Any = None,
        action: str | None = None,
    ) -> None:
        """:meth:`record_row` for a device record: ``<id_field>=id_value,
        [process=...], [seq=...], [action=...]``, each optional field
        present unless None.

        For the radio/device record kinds (``radio_*``, ``poll_*``,
        ``command_*``, ``sensor_*``, ``ingest``, ``relay_receive``); the
        row is only built when storage, a subscriber or the streaming hash
        needs it.
        """
        state = self._kind_state.get(kind)
        if (state is not None and not state[2] and state[3] is None
                and state[4] is None and not self._has_observers):
            state[0] += 1
            return
        # Unpacked first: a starred call costs more than the row.
        names, values = _device_row(id_field, id_value, process, seq, action)
        self.record_row(time, kind, names, values)

    def message_channel(self, kind: str, src: str, dst: str) -> "MessageChannel":
        """A pre-resolved recorder for one ``(kind, src, dst)`` message flow.

        The returned :class:`MessageChannel` holds direct references to the
        kind's state list, its sub-kind tally map and the pair-count cell,
        so its :meth:`~MessageChannel.record` touches no tuple keys and, on
        aggregate-only traces, allocates nothing. The transport caches one
        channel per live ``(src, dst)`` pair (see
        :mod:`repro.net.transport`).
        """
        state = self._kind_state.get(kind)
        if state is None:
            # Fix the kind's profile for message records: src/dst/sub-kind
            # always present, bytes tracked when it appears.
            state = self._new_kind(
                kind, {"src": src, "dst": dst, "kind": "", "bytes": 0}
            )
        pkey = (kind, src, dst)
        cell = self._pair_counts.get(pkey)
        if cell is None:
            self._pair_counts[pkey] = cell = [0]
        return MessageChannel(
            self, kind, src, dst, state, self._sub_tallies.setdefault(kind, {}), cell
        )

    def device_channel(
        self, kind: str, sensor: str, process: str | None = None
    ) -> "DeviceChannel":
        """A pre-resolved recorder for one ``(kind, sensor[, process])`` flow.

        The device-side sibling of :meth:`message_channel`: the radio, the
        sensors and the delivery service hold one :class:`DeviceChannel`
        per call site for the records written once per sensor event.
        """
        return DeviceChannel(self, kind, sensor, process)

    def keeps(self, kind: str) -> bool:
        """Whether a record of ``kind`` is kept or goes to a kind-scoped
        subscriber, i.e. is more than counted and hashed."""
        state = self._kind_state.get(kind)
        if state is not None:
            return state[3] is not None or state[4] is not None
        keep = self._keep_kinds
        return keep is None or kind in keep or kind in self._kind_subscribers

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: "tuple[str, ...] | None" = None,
    ) -> None:
        """Invoke ``callback`` for future records (kept or not).

        With ``kinds``, the callback only sees records of those kinds and —
        crucially for long runs — records of *other* kinds skip event
        construction entirely when nothing else needs one.
        """
        if kinds is None:
            self._has_observers = True
            self._subscribers.append(callback)
        else:
            for kind in kinds:
                subs = self._kind_subscribers.setdefault(kind, [])
                subs.append(callback)
                state = self._kind_state.get(kind)
                if state is not None:
                    state[self._SUBS] = subs

    # -- aggregates (maintained incrementally, all O(1)-ish) -------------------

    def count(self, kind: str) -> int:
        state = self._kind_state.get(kind)
        return state[self._COUNT] if state is not None else 0

    @property
    def counts(self) -> Counter:
        return Counter(
            {kind: state[self._COUNT] for kind, state in self._kind_state.items()}
        )

    def bytes_of_kind(self, kind: str) -> int:
        """Sum of the ``bytes`` field across all records of ``kind``."""
        state = self._kind_state.get(kind)
        return state[self._BYTES] if state is not None else 0

    def tally(self, kind: str, sub_kind: str) -> tuple[int, int]:
        """``(count, bytes)`` of records of ``kind`` whose ``kind`` field
        equals ``sub_kind`` — e.g. ``tally("net_send", "keepalive")``."""
        tally = self._sub_tallies.get(kind, _EMPTY_DICT).get(sub_kind)
        return (tally[0], tally[1]) if tally is not None else (0, 0)

    def sub_kinds(self, kind: str) -> list[str]:
        """All ``kind``-field values seen on records of ``kind``."""
        return list(self._sub_tallies.get(kind, ()))

    def pair_count(self, kind: str, src: str, dst: str) -> int:
        """Records of ``kind`` with the given ``src``/``dst`` fields."""
        cell = self._pair_counts.get((kind, src, dst))
        return cell[0] if cell is not None else 0

    def pair_counts(self, kind: str) -> dict[tuple[str, str], int]:
        """``(src, dst) -> count`` for all records of ``kind``.

        Pairs whose channel was created but never recorded (count 0) are
        omitted, matching the pre-channel behaviour.
        """
        return {
            (src, dst): cell[0]
            for (k, src, dst), cell in self._pair_counts.items()
            if k == kind and cell[0]
        }

    def add_counts(self, other: "Trace") -> None:
        """Add ``other``'s aggregates of every kind it counted but did not keep.

        A merge re-records ``other``'s kept records; this carries the rest —
        counts, bytes, sub-kind tallies and pair counts — with no record.
        """
        for kind, theirs in other._kind_state.items():
            if theirs[self._KEPT] is not None:
                continue
            state = self._kind_state.get(kind) or self._new_kind(kind, {})
            state[self._PROFILE] |= theirs[self._PROFILE]
            state[self._COUNT] += theirs[self._COUNT]
            state[self._BYTES] += theirs[self._BYTES]
            tallies = self._sub_tallies.setdefault(kind, {})
            for sub, (count, nbytes) in other._sub_tallies.get(kind, _EMPTY_DICT).items():
                tally = tallies.setdefault(sub, [0, 0])
                tally[0] += count
                tally[1] += nbytes
        for (kind, src, dst), (count,) in other._pair_counts.items():
            if other._kind_state[kind][self._KEPT] is None:
                self._pair_counts.setdefault((kind, src, dst), [0])[0] += count

    # -- event access (read-only views, no copying) -----------------------------

    @property
    def events(self) -> EventsView:
        """All kept events, in record order (a read-only live view)."""
        return EventsView(self._events)

    def of_kind(self, kind: str) -> EventsView:
        """Kept events of ``kind``, in record order (a read-only live view)."""
        per_kind = self._by_kind.get(kind)
        return EventsView(per_kind) if per_kind is not None else _EMPTY_VIEW

    def all_of_kind(self, kind: str) -> EventsView:
        """:meth:`of_kind`, or ValueError if the trace dropped some of them.

        A trace built with ``keep_kinds`` counts every kind but stores only
        the named ones; a reader scanning a kind that was not kept would see
        an empty list and report nothing as if nothing had happened.
        """
        events = self.of_kind(kind)
        if len(events) != self.count(kind):
            raise ValueError(
                f"trace counted {self.count(kind)} {kind!r} records but kept "
                f"{len(events)}: its keep set must include {kind!r}"
            )
        return events

    def iter_kind(self, kind: str) -> Iterator[TraceEvent]:
        """Lazy iterator over kept events of ``kind``."""
        return iter(self._by_kind.get(kind, ()))

    def where(self, kind: str, **matches: Any) -> list[TraceEvent]:
        """Events of ``kind`` whose fields equal every given ``matches``."""
        return [
            e
            for e in self.of_kind(kind)
            if all(e.get(k) == v for k, v in matches.items())
        ]

    # -- determinism -------------------------------------------------------------

    def digest(self) -> str:
        """A stable hash over the full record stream.

        Two runs of the same scenario with the same seed must produce equal
        digests; the regression test in
        ``tests/integration/test_determinism.py`` pins one such value.
        With ``digest=True`` the hash is maintained incrementally (works
        even with ``keep_kinds``); otherwise it is computed from the kept
        events, which requires the trace to keep everything.
        """
        if self._hasher is not None:
            self._flush_hash()
            if self._sealed:
                return _fold_segments(self._sealed, _hexdigest(self._hasher))
            return _hexdigest(self._hasher)
        if self._keep_kinds is not None:
            raise RuntimeError(
                "digest() on a kind-limited trace requires Trace(digest=True)"
            )
        hasher = _new_hasher()
        for event in self._events:
            hasher.update(_record_bytes(event.time, event.kind, event._names, event._values))
        return _hexdigest(hasher)

    def seal(self) -> str:
        """Close the current streaming-hash segment; returns its digest.

        The live hasher state is folded into a 32-char hex string and a
        fresh segment begins. A sealed trace's :meth:`digest` is the fold
        of its segment digests (plus the open segment), so it depends on
        *where* seals happened — callers must drive seals at deterministic
        points (``Fleet.run_until`` seals every tenant at each simulated
        day boundary, in every execution mode: monolithic, sharded,
        resumed). A never-sealed trace digests exactly as before.

        Sealing is what makes a streaming-digest trace checkpointable:
        ``hashlib`` hash objects cannot be pickled, but at a seal point the
        live hasher is empty and can be dropped and recreated (see
        ``__getstate__``).
        """
        if self._hasher is None:
            raise RuntimeError("seal() requires Trace(digest=True)")
        self._flush_hash()
        segment = _hexdigest(self._hasher)
        self._sealed.append(segment)
        self._hasher = _new_hasher()
        return segment

    # -- pickling (checkpoint/restore support) -----------------------------------

    def __getstate__(self) -> dict[str, Any]:
        self._flush_hash()
        state = self.__dict__.copy()
        hasher = state.pop("_hasher")
        if hasher is not None and _hexdigest(hasher) != _EMPTY_SEGMENT:
            raise TypeError(
                "cannot pickle a Trace with unsealed streaming-hash state; "
                "seal() first (Fleet.checkpoint does so at day boundaries)"
            )
        state["_digest_enabled"] = hasher is not None
        state["_hash_buf"] = bytearray()
        state.pop("_dig_buf", None)  # re-derived from the fresh buffer
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        digest_enabled = state.pop("_digest_enabled")
        self.__dict__.update(state)
        self._hasher = _new_hasher() if digest_enabled else None
        self._dig_buf = self._hash_buf if digest_enabled else None

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(state[self._COUNT] for state in self._kind_state.values())
        return f"<Trace {total} records, {len(self._kind_state)} kinds>"


class MessageChannel:
    """A per-``(kind, src, dst)`` fast recorder handed out by
    :meth:`Trace.message_channel`.

    Every aggregate cell — the kind's state list, its sub-kind tally map
    and the pair-count cell — is resolved once at construction, so
    :meth:`record` performs no tuple-key hashing. Semantics are identical
    to ``Trace.record(time, kind, src=src, dst=dst, kind=sub_kind,
    [bytes=nbytes], [reason=reason])``: same counts, same kept events, same
    digest bytes.
    """

    __slots__ = ("_trace", "_state", "_tallies", "_pair_cell", "kind", "src", "dst",
                 "_last_sub", "_last_nb", "_last_suffix",
                 "_last_tkind", "_last_tally")

    def __init__(
        self,
        trace: Trace,
        kind: str,
        src: str,
        dst: str,
        state: list,
        tallies: dict[str, list[int]],
        pair_cell: list[int],
    ) -> None:
        self._trace = trace
        self.kind = kind
        self.src = src
        self.dst = dst
        self._state = state
        self._tallies = tallies
        self._pair_cell = pair_cell
        # (sub_kind, nbytes) -> digest suffix memo of depth one. A
        # channel's records are overwhelmingly a single repeated shape
        # (keepalives of a fixed wire size), so the whole digest payload
        # minus the timestamp is usually one cached byte string.
        self._last_sub: str | None = None
        self._last_nb: int | None = None
        self._last_suffix = b""
        # Last sub-kind tally cell, memoised for the same reason.
        self._last_tkind: str | None = None
        self._last_tally: list[int] | None = None

    def _suffix(self, sub_kind: str, nbytes: int | None) -> bytes:
        """A reason-less record's digest payload after the packed time.

        Byte-identical to :func:`_record_bytes` over the equivalent fields
        dict: sorted key order is (bytes, dst, kind, src) with a byte
        count, (dst, kind, src) without.
        """
        head = _kind_lp(self.kind)
        if nbytes is None:
            head = _NF[3] + head
        else:
            head = _NF[4] + head + _K_BYTES + _pack_int(nbytes)
        return (head + _K_DST + _pack_str(self.dst) + _K_KIND
                + _pack_str(sub_kind) + _K_SRC + _pack_str(self.src))

    def bind(
        self, sub_kind: str, nbytes: int | None = None
    ) -> tuple[list, list[int], list[int], bytes]:
        """The cells and digest suffix of one fixed ``(sub_kind, nbytes)``.

        Returns ``(kind state, sub-kind tally cell, pair-count cell, digest
        suffix)`` for a caller that writes records of that one shape itself:
        bump ``state[0]``, ``tally[0]`` and ``pair[0]`` (and add ``nbytes``
        to ``state[1]`` and ``tally[1]``), then stage ``packed time +
        suffix`` on the trace's digest buffer — and only while the kind is
        neither kept nor subscribed to (otherwise call :meth:`record`).
        The quiescent multicast pair in :mod:`repro.net.transport` is the
        one such caller: a ``record`` call per copy instead costs a quiet
        fleet run 17% (docs/performance.md).
        """
        tally = self._tallies.get(sub_kind)
        if tally is None:
            self._tallies[sub_kind] = tally = [0, 0]
        return self._state, tally, self._pair_cell, self._suffix(sub_kind, nbytes)

    @property
    def counted_only(self) -> bool:
        """Whether a record here is only counted: its kind is neither kept
        nor subscribed to, and the trace neither hashes nor has a global
        subscriber. A :meth:`bind` caller that stages no digest bytes may
        bump the cells itself only then."""
        state = self._state
        return state[3] is None and state[4] is None and not self._trace._has_observers

    def record(
        self,
        time: float,
        sub_kind: str,
        nbytes: int | None = None,
        reason: str | None = None,
    ) -> None:
        state = self._state
        state[0] += 1
        if sub_kind == self._last_tkind:
            tally = self._last_tally
        else:
            tallies = self._tallies
            tally = tallies.get(sub_kind)
            if tally is None:
                tallies[sub_kind] = tally = [0, 0]
            self._last_tkind = sub_kind
            self._last_tally = tally
        tally[0] += 1
        if nbytes is not None:
            state[1] += nbytes
            tally[1] += nbytes
        self._pair_cell[0] += 1
        trace = self._trace
        if state[3] is None and state[4] is None and not trace._subscribers:
            buf = trace._dig_buf
            if buf is None:
                return
            if reason is None:
                if time == trace._lt:
                    tr = trace._ltr
                else:
                    trace._lt = time
                    tr = trace._ltr = _PACK_D(time)
                if sub_kind != self._last_sub or nbytes != self._last_nb:
                    self._last_sub = sub_kind
                    self._last_nb = nbytes
                    self._last_suffix = self._suffix(sub_kind, nbytes)
                buf += tr
                buf += self._last_suffix
                if len(buf) >= _FLUSH_BYTES:
                    trace._flush_hash()
                return
        names, values = _message_row(self.src, self.dst, sub_kind, nbytes, reason)
        trace._finish(time, self.kind, state, names, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MessageChannel {self.kind} {self.src}->{self.dst}>"


class DeviceChannel:
    """A per-``(kind, sensor[, process])`` fast recorder handed out by
    :meth:`Trace.device_channel`.

    Semantics are identical to ``Trace.record(time, kind, sensor=sensor,
    [process=process], seq=seq)``: same counts, same kept events, same
    digest bytes. Everything but the timestamp and the sequence number is
    fixed at construction, so a count+digest record stages three pieces.
    """

    __slots__ = ("_trace", "_state", "kind", "sensor", "process", "_names", "_mid")

    def __init__(
        self, trace: Trace, kind: str, sensor: str, process: str | None
    ) -> None:
        self._trace = trace
        self.kind = kind
        self.sensor = sensor
        self.process = process
        # None until the kind's first record fixed its profile (see record).
        self._state: list | None = trace._kind_state.get(kind)
        self._names = _N_SENSOR_SEQ if process is None else _N_SENSOR_PROCESS_SEQ
        # Digest payload between the packed time and the packed seq; the
        # sorted key order "process" < "sensor" < "seq" is fixed by the
        # alphabet, as in _record_bytes over the equivalent fields dict.
        if process is None:
            self._mid = (_NF[2] + _kind_lp(kind)
                         + _K_SENSOR + _pack_str(sensor) + _K_SEQ)
        else:
            self._mid = (_NF[3] + _kind_lp(kind)
                         + _K_PROCESS + _pack_str(process)
                         + _K_SENSOR + _pack_str(sensor) + _K_SEQ)

    def record(self, time: float, seq: int) -> None:
        state = self._state
        trace = self._trace
        if state is None or state[2]:
            # The kind's first record fixes its aggregate profile on the
            # generic path; a kind that carries aggregate fields stays there.
            trace.record_device(time, self.kind, "sensor", self.sensor,
                                self.process, seq)
            self._state = trace._kind_state[self.kind]
            return
        state[0] += 1
        if state[3] is None and state[4] is None and not trace._subscribers:
            buf = trace._dig_buf
            if buf is not None:
                if time == trace._lt:
                    tr = trace._ltr
                else:
                    trace._lt = time
                    tr = trace._ltr = _PACK_D(time)
                if seq == trace._ls:
                    sr = trace._lsr
                else:
                    trace._ls = seq
                    sr = trace._lsr = _pack_int(seq)
                buf += tr
                buf += self._mid
                buf += sr
                if len(buf) >= _FLUSH_BYTES:
                    trace._flush_hash()
            return
        process = self.process
        values = (self.sensor, seq) if process is None else (self.sensor, process, seq)
        trace._finish(time, self.kind, state, self._names, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeviceChannel {self.kind} {self.sensor}>"


_EMPTY_DICT: dict = {}

#: What a fresh (or just-sealed) hasher reports: truncated SHA-256 over
#: the version prefix alone — the "no records yet" segment digest.
_EMPTY_SEGMENT = _hexdigest(_new_hasher())


def _fold_segments(sealed: list[str], open_segment: str) -> str:
    """Combine sealed segment digests (plus the open one) into one digest."""
    hasher = _new_hasher()
    for segment in sealed:
        hasher.update(segment.encode("ascii"))
        hasher.update(b"\n")
    hasher.update(open_segment.encode("ascii"))
    return _hexdigest(hasher)

#: Field-name tuple -> (each name's part index in sorted framing order, the
#: parts list with every key's length-prefixed encoding in place). Record
#: schemas are stable per call site, so the handful of distinct name tuples
#: are prepared once and every later record skips the sort and the key
#: encoding entirely.
_KEY_ORDERS: dict[tuple[str, ...], tuple[tuple[int, ...], list]] = {}


def _record_bytes(
    time: float, kind: str, names: tuple[str, ...], values: "Iterable[Any]"
) -> bytes:
    """One record's digest payload: packed time, field count, kind, fields.

    ``values`` are in ``names`` order: a row's values tuple, or a fields
    dict's ``values()``. Fields are framed in sorted name order, so the
    bytes do not depend on the order a lane lists them in.
    """
    cached = _KEY_ORDERS.get(names)
    if cached is None:
        ranks = sorted(range(len(names)), key=names.__getitem__)
        template = [b"", _NF[len(names)], b""]
        for i in ranks:
            template += (_lp(names[i].encode("utf-8", "backslashreplace")), b"")
        slots = [0] * len(names)
        for rank, i in enumerate(ranks):
            slots[i] = 4 + 2 * rank
        cached = _KEY_ORDERS[names] = (tuple(slots), template)
    slots, template = cached
    parts = template.copy()
    parts[0] = _PACK_D(time)
    parts[2] = _kind_lp(kind)
    for slot, value in zip(slots, values):
        t = type(value)
        # Exact-type dispatch mirrors _pack_value's scalar branches,
        # inlined to skip a call per field on the hot path.
        if t is str:
            parts[slot] = _pack_str(value)
        elif t is float:
            parts[slot] = b"f" + _PACK_D(value)
        elif t is int:
            parts[slot] = _pack_int(value)
        elif t is bool:
            parts[slot] = b"T" if value else b"F"
        else:
            parts[slot] = _pack_value(value)
    return b"".join(parts)
