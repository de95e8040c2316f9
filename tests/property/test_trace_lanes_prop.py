"""Kept records read back as the TraceEvents that were recorded.

A trace keeps each record in its schema's lane (times in an array, values
back to back in one list) and builds a TraceEvent only when a view is read
or a subscriber is called. One random record stream is written through
every recording lane — ``record``, ``record_row``, ``record_device``,
``MessageChannel.record`` and ``DeviceChannel.record``, drawn per record —
into a trace with a random keep set, random kind subscribers, an optional
global subscriber and the streaming digest on or off. Every read must
equal a reference list of TraceEvents: ``events``, ``of_kind``,
``iter_kind``, ``iter_kinds``, ``where``, indexing, slicing and ``len``,
before and after a pickle round trip taken midway, and the subscribers
must have seen exactly the records of their kinds. A keep-all trace's
``digest()``, hashed from its lanes, must equal the streaming digest.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import schema
from repro.sim.tracing import Trace, TraceEvent, _intern

MESSAGE_KINDS = schema.tagged(schema.MESSAGE)
#: One device kind declared without a process, one with.
DEVICE_KINDS = ("radio_emit", "ingest")
#: Kinds with several schemas — optional fields, app extras — and one the
#: table does not declare, whose records may carry any fields at all.
ROW_KINDS = ("alert", "repair", "actuation", "custom")
KINDS = MESSAGE_KINDS + DEVICE_KINDS + ROW_KINDS
ENDPOINTS = ("hub", "tv", "küche")

_text = st.one_of(st.sampled_from(("keepalive", "door1", "météo")), st.text(max_size=6))
_values = st.one_of(
    _text, st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.tuples(st.integers(0, 9)),
)


@st.composite
def _rows(draw):
    """Several schemas per kind, the empty one included: records of one kind
    spread over lanes, and the kind's lane-per-record array is exercised."""
    kind = draw(st.sampled_from(ROW_KINDS))
    spec = schema.KINDS.get(kind)
    extras = st.dictionaries(st.sampled_from(("process", "reason", "seq")), _values,
                             max_size=3)
    if spec is None:
        return "row", kind, draw(extras)
    fields = {name: draw(_values) for name in spec.fields
              if name not in spec.optional or draw(st.booleans())}
    if spec.open:
        fields |= {f"x_{name}": value for name, value in draw(extras).items()}
    return "row", kind, fields


_records = st.one_of(
    st.tuples(st.just("message"), st.sampled_from(MESSAGE_KINDS), st.sampled_from(ENDPOINTS),
              st.sampled_from(ENDPOINTS), _text, st.none() | st.integers(0, 2**40),
              st.none() | st.sampled_from(("partition", "dst_crashed"))),
    st.tuples(st.just("device"), st.just("radio_emit"), _text, st.none(),
              st.integers(0, 2**62)),
    st.tuples(st.just("device"), st.just("ingest"), _text, st.sampled_from(ENDPOINTS),
              st.integers(0, 2**62)),
    _rows(),
)
# (record, ticks since the previous record); eighths of a second are exact.
_streams = st.lists(st.tuples(_records, st.integers(0, 3)), max_size=40)


def _row(fields: dict) -> tuple[tuple[str, ...], tuple]:
    names = tuple(fields)
    return _intern(names, names), tuple(fields.values())


def _message_row(src, dst, sub_kind, nbytes, reason):
    fields = {"src": src, "dst": dst, "kind": sub_kind}
    if nbytes is not None:
        fields["bytes"] = nbytes
    if reason is not None:
        fields["reason"] = reason
    return _row(fields)


def _device_row(sensor, process, seq):
    if process is None:
        return _row({"sensor": sensor, "seq": seq})
    return _row({"sensor": sensor, "process": process, "seq": seq})


def reference(stream) -> list[TraceEvent]:
    events, time = [], 0.0
    for record, ticks in stream:
        time += ticks * 0.125
        shape, kind, *rest = record
        if shape == "message":
            names, values = _message_row(*rest)
        elif shape == "device":
            names, values = _device_row(*rest)
        else:
            names, values = _row(rest[0])
        events.append(TraceEvent(time, kind, names, values))
    return events


class Writer:
    """Writes records through a lane drawn per record, holding the channels
    a home would hold on its trace."""

    def __init__(self, trace: Trace, draw) -> None:
        self.trace = trace
        self.draw = draw
        self.channels: dict = {}

    def write(self, events: list[TraceEvent], stream) -> None:
        trace = self.trace
        for event, (record, _) in zip(events, stream):
            shape, kind, *rest = record
            time, names, values = event.time, event._names, event._values
            if shape == "message":
                lane = self.draw(3)
                src, dst, sub_kind, nbytes, reason = rest
                if lane == 0:
                    trace.record(time, kind, **event.fields)
                elif lane == 1:
                    trace.record_message(time, kind, src, dst, sub_kind, nbytes, reason)
                else:
                    self._channel(trace.message_channel, kind, src, dst).record(
                        time, sub_kind, nbytes, reason)
            elif shape == "device":
                lane = self.draw(4)
                sensor, process, seq = rest
                if lane == 0:
                    trace.record(time, kind, **event.fields)
                elif lane == 1:
                    trace.record_row(time, kind, values)
                elif lane == 2:
                    trace.record_device(time, kind, *values)
                else:
                    self._channel(trace.device_channel, kind, sensor, process).record(
                        time, seq)
            elif kind in schema.KINDS and names == schema.KINDS[kind].fields and self.draw(2):
                trace.record_row(time, kind, values)
            else:
                trace.record(time, kind, **event.fields)

    def _channel(self, make, *key):
        channel = self.channels.get(key)
        if channel is None:
            channel = self.channels[key] = make(*key)
        return channel


class Seen:
    """A picklable subscriber: the records it was called with."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __call__(self, event: TraceEvent) -> None:
        self.events.append(event)


def _same(got, expected) -> None:
    got = list(got)
    assert got == expected
    assert [e._names for e in got] == [e._names for e in expected]  # field order
    assert all(g._names is e._names for g, e in zip(got, expected))  # interned


def check_views(trace: Trace, kept: list[TraceEvent], data) -> None:
    _same(trace, kept)
    views = {None: (trace.events, kept)}
    for kind in KINDS:
        expected = [e for e in kept if e.kind == kind]
        views[kind] = (trace.of_kind(kind), expected)
        _same(trace.iter_kind(kind), expected)
    assert len(trace) == len(kept)
    for view, expected in views.values():
        n = len(expected)
        assert len(view) == n
        _same(view, expected)
        for i in range(-n, n):
            assert view[i] == expected[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        bound = st.integers(-n - 2, n + 2) | st.none()
        index = slice(data.draw(bound), data.draw(bound),
                      data.draw(st.sampled_from((None, 1, 2, -1, -3))))
        sliced = view[index]
        assert len(sliced) == len(expected[index])
        _same(sliced, expected[index])
    subset = data.draw(st.sets(st.sampled_from(KINDS)))
    _same(trace.iter_kinds(*subset), [e for e in kept if e.kind in subset])
    if kept:
        probe = data.draw(st.sampled_from(kept))
        matches = dict(list(probe.fields.items())[:data.draw(st.integers(0, 2))])
        _same(trace.where(probe.kind, **matches),
              [e for e in kept if e.kind == probe.kind
               and all(e.get(k) == v for k, v in matches.items())])


@settings(max_examples=120, deadline=None)
@given(_streams, st.none() | st.sets(st.sampled_from(KINDS)),
       st.sets(st.sampled_from(KINDS)), st.booleans(), st.booleans(), st.data())
def test_every_read_equals_the_recorded_events(
    stream, keep, subscribed, global_subscriber, digest, data
):
    events = reference(stream)

    def draw(n: int) -> int:
        return data.draw(st.integers(0, n - 1), label="lane")

    split = data.draw(st.integers(0, len(stream)), label="pickled after")

    trace = Trace(keep_kinds=None if keep is None else set(keep), digest=digest)
    everything = Seen()
    if global_subscriber:
        trace.subscribe(everything)
    by_kind = Seen()
    if subscribed:
        trace.subscribe(by_kind, kinds=tuple(sorted(subscribed)))
    Writer(trace, draw).write(events[:split], stream[:split])
    if digest:
        trace.seal()  # a streaming hash pickles at a seal point only
    clone = pickle.loads(pickle.dumps(trace))
    Writer(trace, draw).write(events[split:], stream[split:])
    Writer(clone, draw).write(events[split:], stream[split:])

    kept = [e for e in events if keep is None or e.kind in keep]
    for copy in (trace, clone):
        check_views(copy, kept, data)
    _same(everything.events, events if global_subscriber else [])
    _same(by_kind.events, [e for e in events if e.kind in subscribed])
    # The clone's subscribers are the pickled copies: they saw both halves.
    if global_subscriber:
        _same(clone._subscribers[0].events, events)
    if subscribed:
        clone_by_kind = clone._kind_subscribers[min(subscribed)][0]
        _same(clone_by_kind.events, [e for e in events if e.kind in subscribed])

    # A keep-all trace's digest over its lanes is the streaming digest.
    keep_all, streamed = Trace(), Trace(keep_kinds=set(), digest=True)
    for copy in (keep_all, streamed):
        Writer(copy, draw).write(events, stream)
    assert keep_all.digest() == streamed.digest()
    if keep is None and not digest:
        assert trace.digest() == clone.digest() == streamed.digest()
