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
- incremental aggregates — per-kind counts and, for the message kinds,
  byte totals, per-``(kind, sub-kind)`` tallies and per-``(src, dst)``
  pair counts — are maintained as records arrive, so accounting helpers
  such as :meth:`repro.net.transport.HomeNetwork.bytes_sent` never re-scan;
- every record kind is declared once, in :mod:`repro.sim.schema`: the
  positional lanes take their field names from that table, and its
  message kinds are recorded through a :class:`MessageChannel`, which
  keeps their aggregates;
- the hottest record families bypass the kwargs path entirely:
  :meth:`Trace.message_channel` hands the transport a per-``(kind, src,
  dst)`` :class:`MessageChannel` with every aggregate cell pre-resolved,
  :meth:`Trace.device_channel` hands the radio, the sensors and the
  delivery service a per-``(kind, sensor[, process])``
  :class:`DeviceChannel`, and :meth:`Trace.record_row` /
  :meth:`Trace.record_device` take any other declared kind's row by
  position;
- this module is the only one that knows the digest byte layout: one
  encoder per record shape (:func:`_record_bytes` for any row or fields
  dict, :class:`MessageChannel` and :class:`DeviceChannel` for their fixed
  shapes), all byte-identical for the same record — a run's digest does
  not depend on which lane wrote it or on what observes the trace;
- a kept record is stored as **flat columns**: each kept kind has one lane
  per field-name tuple (schema), holding its times in an ``array('d')`` and
  its values back to back in one list, so a record costs no object of its
  own; ``events`` / ``of_kind`` are **read-only live views** over the
  lanes that build a :class:`TraceEvent` per read, and ``iter_kind`` is
  the matching lazy iterator; ``digest()`` provides a stable
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
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator

from repro.sim.schema import KINDS, MESSAGE, tagged

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
    """One timestamped occurrence, as a reader or a subscriber sees it.

    A record is ``time``, ``kind``, a field-name tuple and the matching
    values tuple; ``fields`` is a dict derived on each read. Name tuples are
    interned (a declared kind's are its :mod:`repro.sim.schema` fields), so
    every record of one schema shares one tuple object.
    A trace does not keep TraceEvents: it keeps each record as a time and
    values in its schema's lane (:class:`_Lane`) and builds a TraceEvent
    only when a view is read or a subscriber is called, so a kept 4-field
    row costs ~45 B instead of an object, a boxed time, a values tuple and
    two list slots (153 B; docs/performance.md). Immutable by convention
    (nothing in the codebase mutates a recorded event).
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
        time, kind, names, values = state
        self.__init__(time, kind, _intern(names, names), values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


_new_event = object.__new__


#: kind -> its declared field names, interned (see :mod:`repro.sim.schema`).
_FIELDS = {kind: _intern(spec.fields, spec.fields) for kind, spec in KINDS.items()}
_MESSAGE_KINDS = frozenset(tagged(MESSAGE))


def _declared_row(kind: str, values: tuple) -> tuple[tuple[str, ...], tuple]:
    """A declared kind's names and values, given one value per declared
    field: an optional field whose value is None is left out."""
    spec = KINDS[kind]
    if spec.optional and None in values:
        keep = [value is not None or name not in spec.optional
                for name, value in zip(spec.fields, values)]
        names = tuple(compress(spec.fields, keep))
        return _intern(names, names), tuple(compress(values, keep))
    return _FIELDS[kind], values


def _message_args(src: str, dst: str, kind: str, bytes: int | None = None,
                  reason: str | None = None) -> tuple:
    """A message record's fields as :meth:`MessageChannel.record` takes them."""
    return src, dst, kind, bytes, reason


class _Lane:
    """The kept records of one kind and one schema: their times, and their
    values back to back in ``flat`` (``len(names)`` per record). ``id`` is
    the lane's index in its trace's lanes, ``index`` in its kind's."""

    __slots__ = ("kind", "names", "id", "index", "times", "flat")

    def __init__(self, kind: str, names: tuple[str, ...], every: list, lanes: list) -> None:
        """A new last lane of ``every`` (a trace's lanes) and of ``lanes``
        (its kind's)."""
        self.kind, self.names, self.id, self.index = kind, names, len(every), len(lanes)
        self.times, self.flat = array("d"), []
        every.append(self)
        lanes.append(self)

    def events(self) -> Iterator[TraceEvent]:
        kind, names = self.kind, self.names
        rows = zip(*[iter(self.flat)] * len(names)) if names else repeat(())
        for time, values in zip(self.times, rows):
            event = _new_event(TraceEvent)  # TraceEvent(...) without the call
            event.time = time
            event.kind = kind
            event._names = names
            event._values = values
            yield event


class EventsView(Sequence):
    """The kept records of one kind (with ``kind`` None, of a whole trace):
    the store itself, read as a read-only live view that builds a
    :class:`TraceEvent` per read. A slice is a tuple of TraceEvents.

    ``lane`` is the lane last written. While every record went to one lane
    ``which`` is None; after that it says, per record in record order, which
    of ``lanes`` holds it (a kind's ``bytearray``, a trace's lane ids).
    """

    __slots__ = ("kind", "lanes", "lane", "which")

    def __init__(self, kind: str | None, which=None) -> None:
        self.kind, self.lanes, self.lane, self.which = kind, [], None, which

    def __len__(self) -> int:
        return sum(len(ln.times) for ln in self.lanes) if self.which is None else len(self.which)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        which = self.which
        if which is None:
            lane, i = self.lanes[0], index
        else:  # the lane of record ``i``, and how many records it held before
            i = range(len(which))[index]
            lane, i = self.lanes[which[i]], which[:i].count(which[i])
        i, width = range(len(lane.times))[i], len(lane.names)
        values = tuple(lane.flat[i * width:(i + 1) * width])
        return TraceEvent(lane.times[i], lane.kind, lane.names, values)

    def __iter__(self) -> Iterator[TraceEvent]:
        if self.which is None:
            return self.lanes[0].events() if self.lanes else iter(())
        return self._walk(self.which)

    def _walk(self, which: Iterable[int]) -> Iterator[TraceEvent]:
        """The records ``which`` names, one index into ``lanes`` each."""
        lanes, cursors = self.lanes, {}
        for w in which:
            yield next(cursors.get(w) or cursors.setdefault(w, lanes[w].events()))


_EMPTY_VIEW = EventsView(None)


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
    # once per record() call (the message/count/kept-list/subscriber checks
    # all ride on that single dictionary access). Every lane, and the
    # transport, spells a slot by its index:
    #   [0] records of this kind so far
    #   [1] running sum of the "bytes" field (message kinds)
    #   [2] True for a message kind (repro.sim.schema.MESSAGE): its records
    #       go through a MessageChannel, which keeps the aggregates
    #   [3] the kind's EventsView of kept records, or None
    #   [4] kind-scoped subscriber list, or None

    def __init__(
        self,
        keep_kinds: set[str] | None = None,
        *,
        digest: bool = False,
    ) -> None:
        # Every kept record: the lanes in creation order (a lane's ``id`` is
        # its index there) and one lane id per record, in record order.
        self._all = EventsView(None, array("H"))
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

    def _new_kind(self, kind: str) -> list:
        """First record of ``kind``: its state (layout above)."""
        keep = self._keep_kinds
        kept = EventsView(kind) if keep is None or kind in keep else None
        state = [0, 0, kind in _MESSAGE_KINDS, kept, self._kind_subscribers.get(kind)]
        self._kind_state[kind] = state
        return state

    def _finish(
        self, time: float, kind: str, state: list, names: tuple[str, ...], values: Iterable[Any]
    ) -> None:
        """Keep / notify / hash one record given as a row: an interned
        field-name tuple and its values (a tuple, or a fields dict's
        ``values()``).

        The shared tail of every lane; only called when at least one of
        kept-storage, subscribers or the streaming hash needs the record.
        """
        if state[3] is not None:
            self._keep(state[3], time, names, values)
        kind_subs = state[4]
        if kind_subs is not None or self._subscribers:
            event = TraceEvent(time, kind, names, tuple(values))
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

    def _keep(self, store: EventsView, time: float, names: tuple[str, ...], values) -> None:
        """Append one record to its schema's lane of ``store`` (a kind's
        kept records); a schema's first record makes its lane."""
        lane = store.lane
        if lane is None or lane.names is not names:
            lane = next((lane for lane in store.lanes if lane.names == names), None)
            if lane is None:
                if len(store.lanes) == 1:  # every record so far went to lane 0
                    store.which = bytearray(len(store.lanes[0].times))
                lane = _Lane(store.kind, _intern(names, names), self._all.lanes, store.lanes)
            store.lane = lane
        lane.times.append(time)
        lane.flat.extend(values)
        self._all.which.append(lane.id)
        if store.which is not None:
            store.which.append(lane.index)

    def _flush_hash(self) -> None:
        """Fold the staged record payloads into the streaming hasher."""
        buf = self._hash_buf
        if buf:
            self._hasher.update(buf)
            buf.clear()

    def record(self, time: float, kind: str, /, **fields: Any) -> None:
        state = self._kind_state.get(kind) or self._new_kind(kind)
        if state[2]:
            src, dst, sub_kind, nbytes, reason = _message_args(**fields)
            self.message_channel(kind, src, dst).record(time, sub_kind, nbytes, reason)
            return
        state[0] += 1
        if state[3] is not None or state[4] is not None or self._subscribers:
            names = tuple(fields)
            self._finish(time, kind, state, _intern(names, names), fields.values())
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

    def record_row(self, time: float, kind: str, values: tuple) -> None:
        """The positional lane for :meth:`record`: one record of a declared
        kind as its row, one value per declared field in declared order.

        Same counts, same kept events, same digest bytes as ``record(time,
        kind, **dict(zip(fields, values)))``, but the row is kept as given,
        and nothing is built while the record is only counted. Not for the
        message kinds, whose records go through :meth:`message_channel`.
        """
        state = self._kind_state.get(kind) or self._new_kind(kind)
        state[0] += 1
        if state[3] is not None or state[4] is not None or self._has_observers:
            names = _FIELDS[kind]
            if len(values) != len(names):
                raise TypeError(f"{kind!r} is declared as {names}, not {len(values)} values")
            self._finish(time, kind, state, names, values)

    def record_device(self, time: float, kind: str, /, *values: Any) -> None:
        """:meth:`record_row` with the row as arguments: the lane of the
        radio and device kinds (``radio_*``, ``poll_*``, ``command_*``,
        ``ingest``, ``relay_receive``)."""
        self.record_row(time, kind, values)

    def message_channel(self, kind: str, src: str, dst: str) -> "MessageChannel":
        """A pre-resolved recorder for one ``(kind, src, dst)`` message flow.

        The returned :class:`MessageChannel` holds direct references to the
        kind's state list, its sub-kind tally map and the pair-count cell,
        so its :meth:`~MessageChannel.record` touches no tuple keys and, on
        aggregate-only traces, allocates nothing. The transport caches one
        channel per live ``(src, dst)`` pair (see
        :mod:`repro.net.transport`).
        """
        state = self._kind_state.get(kind) or self._new_kind(kind)
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
                    state[4] = subs

    # -- aggregates (maintained incrementally, all O(1)-ish) -------------------

    def count(self, kind: str) -> int:
        state = self._kind_state.get(kind)
        return state[0] if state is not None else 0

    @property
    def counts(self) -> Counter:
        return Counter(
            {kind: state[0] for kind, state in self._kind_state.items()}
        )

    def bytes_of_kind(self, kind: str) -> int:
        """Sum of the ``bytes`` field across all records of ``kind``."""
        state = self._kind_state.get(kind)
        return state[1] if state is not None else 0

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
            if theirs[3] is not None:
                continue
            state = self._kind_state.get(kind) or self._new_kind(kind)
            state[0] += theirs[0]
            state[1] += theirs[1]
            tallies = self._sub_tallies.setdefault(kind, {})
            for sub, (count, nbytes) in other._sub_tallies.get(kind, _EMPTY_DICT).items():
                tally = tallies.setdefault(sub, [0, 0])
                tally[0] += count
                tally[1] += nbytes
        for (kind, src, dst), (count,) in other._pair_counts.items():
            if other._kind_state[kind][3] is None:
                self._pair_counts.setdefault((kind, src, dst), [0])[0] += count

    # -- event access (read-only views, no copying) -----------------------------

    @property
    def events(self) -> EventsView:
        """All kept events, in record order (a read-only live view)."""
        return self._all

    def of_kind(self, kind: str) -> EventsView:
        """Kept events of ``kind``, in record order (a read-only live view)."""
        state = self._kind_state.get(kind)
        return _EMPTY_VIEW if state is None or state[3] is None else state[3]

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
        return iter(self.of_kind(kind))

    def iter_kinds(self, *kinds: str) -> Iterator[TraceEvent]:
        """Lazy iterator over kept events of any of ``kinds``, in record
        order; only their records become :class:`TraceEvent`s."""
        ids = {lane.id for lane in self._all.lanes if lane.kind in kinds}
        return self._all._walk(i for i in self._all.which if i in ids) if ids else iter(())

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
        for event in self._all:
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
        for lane in self._all.lanes:
            lane.names = _intern(lane.names, lane.names)  # one tuple per schema

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all.which)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(state[0] for state in self._kind_state.values())
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
        names, values = _declared_row(
            self.kind, (self.src, self.dst, sub_kind, nbytes, reason))
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
        # None until the kind's first record: a kind's state is made when it
        # is first recorded, so ``counts`` lists only kinds that were.
        self._state: list | None = trace._kind_state.get(kind)
        self._names = _FIELDS[kind]
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
        if state is None:
            state = self._state = trace._kind_state.get(self.kind) or trace._new_kind(self.kind)
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
