"""Kept trace records are rows: time, kind, interned field names, values.

A trace keeps each record in its schema's lane: the time in an
``array('d')`` and the values back to back in one list. A
:class:`~repro.sim.tracing.TraceEvent`, built on read, holds one name
tuple shared by every record of its schema and a values tuple, and
derives ``fields`` on read. These tests pin what that buys (bytes per
kept record), that every recording lane writes the same row with the
same reads, and that a kept trace round-trips through pickle.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.schema import KINDS
from repro.sim.tracing import Trace, TraceEvent
from tests.helpers import FakeEnv

N_RECORDS = 20_000


def _bytes_per_kept_record(record) -> float:
    """Bytes one more kept record costs: the row, its list slots and its
    fresh timestamp. Sequence numbers and emission times are made first:
    in a run they belong to the event, not to the record."""
    seqs = list(range(1_000, 1_000 + N_RECORDS + 1))
    emitted = [i * 1e-3 for i in range(N_RECORDS + 1)]
    trace = Trace(keep_kinds={"ingest", "logic_delivery"})
    record(trace, seqs[0], emitted[0])  # the kind's state and schema caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, N_RECORDS + 1):
            record(trace, seqs[i], emitted[i])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace) == N_RECORDS + 1
    return (after - before) / N_RECORDS


def _ingest(trace, seq, emitted_at):
    trace.record(emitted_at + 2e-4, "ingest", sensor="motion", process="p1", seq=seq)


def _logic_delivery(trace, seq, emitted_at):
    now = emitted_at + 5e-4
    trace.record(now, "logic_delivery", process="p1", app="lights", sensor="motion",
                 seq=seq, emitted_at=emitted_at, delay=now - emitted_at)


# Measured 36.1 B and 83.1 B on CPython 3.11.7 (169.3 B and 217.3 B when a
# trace kept one TraceEvent per record); logic_delivery's fresh ``delay``
# float is 24 B of its 83.
def test_a_kept_three_field_record_costs_at_most_180_bytes():
    assert _bytes_per_kept_record(_ingest) <= 180  # 281 B as a dict


def test_a_kept_logic_delivery_record_costs_at_most_230_bytes():
    assert _bytes_per_kept_record(_logic_delivery) <= 230  # 393 B as a dict


def test_a_kept_four_field_row_costs_at_most_64_bytes():
    """The store's own bytes per kept row, its values already made: a time
    in an array, four slots of a flat list and one lane id (45.2 B on
    CPython 3.11.7). One object per record, as a TraceEvent was, costs
    81 B here (153 B with its values tuple)."""
    n = 10_000
    rows = [("p1", "motion", 1_000 + i, "single") for i in range(n + 1)]
    times = [i * 1e-3 for i in range(n + 1)]
    trace = Trace()
    trace.record_row(times[0], "poll_issued", rows[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, n + 1):
            trace.record_row(times[i], "poll_issued", rows[i])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.of_kind("poll_issued")) == n + 1
    assert (after - before) / n <= 64


def test_records_of_one_schema_share_one_name_tuple():
    trace = Trace()
    trace.record(1.0, "ingest", sensor="s", process="p", seq=1)
    trace.record_device(2.0, "ingest", "s", "p", 2)
    trace.record(3.0, "ingest", seq=3, process="p", sensor="s")
    first, second, reordered = trace.events
    assert first._names is second._names
    assert first._names == KINDS["ingest"].fields
    assert reordered._names is not first._names
    assert reordered.fields == {"seq": 3, "process": "p", "sensor": "s"}


# -- every lane writes the same row ----------------------------------------------------

_names = st.sampled_from(["sensor", "process", "seq", "kind", "time", "app", "x"])
_values = st.one_of(
    st.integers(-2**70, 2**70), st.floats(allow_nan=False), st.text(max_size=6),
    st.booleans(), st.none(), st.tuples(st.integers(), st.text(max_size=3)),
)
_time = st.floats(0.0, 1e6, allow_nan=False)
_id = st.text(min_size=1, max_size=5)
_optional = st.one_of(st.none(), _id)
_nbytes = st.one_of(st.none(), st.integers(0, 2**20))
_missing = st.sampled_from(["kind", "time", "absent"])


def _check_reads(event: TraceEvent, expected: dict, missing: str) -> None:
    assert event.fields == expected
    assert list(event.fields) == list(expected)
    for key, value in expected.items():
        assert event[key] == value
        assert event.get(key, "default") == value
    if missing not in expected:
        with pytest.raises(KeyError):
            event[missing]
        assert event.get(missing) is None
        assert event.get(missing, "default") == "default"
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event and clone.fields == expected
    assert clone._names is event._names


def _lane_against_record(write, records: list[tuple[float, str, dict]]) -> list[TraceEvent]:
    """``write`` the records through one lane of a keep-everything trace,
    and through ``record`` on a twin: equal events, equal digest bytes."""
    lane, generic = Trace(), Trace()
    write(lane)
    for time, kind, fields in records:
        generic.record(time, kind, **fields)
    assert list(lane.events) == list(generic.events)
    assert list(generic.events) == list(lane.events)
    assert lane.digest() == generic.digest()
    return list(lane.events)


@settings(max_examples=60, deadline=None)
@given(_time, st.dictionaries(_names, _values, max_size=6), _missing)
def test_record_keeps_a_row_with_the_fields_it_was_given(time, fields, missing):
    trace = Trace()
    trace.record(time, "k", **fields)
    (event,) = trace.events
    assert event.time == time and event.kind == "k"
    _check_reads(event, fields, missing)


#: Declared kinds a positional lane writes: one value per declared field.
_ROW_KINDS = sorted(kind for kind, spec in KINDS.items()
                    if not spec.optional and not spec.open and spec.fields)


@settings(max_examples=60, deadline=None)
@given(_time, st.sampled_from(_ROW_KINDS), st.data(), _missing)
def test_record_device_writes_the_generic_row(time, kind, data, missing):
    fields = KINDS[kind].fields
    first, values = (tuple(data.draw(st.lists(_values, min_size=len(fields),
                                              max_size=len(fields))))
                     for _ in range(2))
    expected = dict(zip(fields, values))

    def write(trace):
        trace.record_device(0.0, kind, *first)  # the kind's first sight
        trace.record_device(time, kind, *values)

    events = _lane_against_record(
        write, [(0.0, kind, dict(zip(fields, first))), (time, kind, expected)])
    _check_reads(events[1], expected, missing)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_time, st.integers(0, 2**40)), min_size=2, max_size=4),
       _id, _optional, _missing)
def test_device_channel_writes_the_generic_row(records, sensor, process, missing):
    kind = "radio_emit" if process is None else "radio_delivered"
    expected = [
        {"sensor": sensor} | ({} if process is None else {"process": process}) | {"seq": seq}
        for _, seq in records
    ]

    def write(trace):
        channel = trace.device_channel(kind, sensor, process)
        for time, seq in records:
            channel.record(time, seq)

    events = _lane_against_record(
        write, [(time, kind, fields) for (time, _), fields in zip(records, expected)])
    for event, fields in zip(events, expected):
        _check_reads(event, fields, missing)


def _message_fields(src, dst, sub_kind, nbytes, reason) -> dict:
    fields = {"src": src, "dst": dst, "kind": sub_kind}
    if nbytes is not None:
        fields["bytes"] = nbytes
    if reason is not None:
        fields["reason"] = reason
    return fields


_messages = st.lists(st.tuples(_time, _id, _nbytes, _optional), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_messages, _id, _id, _missing)
def test_record_message_writes_the_generic_row(records, src, dst, missing):
    expected = [_message_fields(src, dst, *record[1:]) for record in records]

    def write(trace):
        for time, sub_kind, nbytes, reason in records:
            trace.record_message(time, "net_send", src, dst, sub_kind, nbytes, reason)

    events = _lane_against_record(
        write, [(record[0], "net_send", fields) for record, fields in zip(records, expected)])
    for event, fields in zip(events, expected):
        _check_reads(event, fields, missing)


@settings(max_examples=60, deadline=None)
@given(_messages, _id, _id, _missing)
def test_message_channel_writes_the_generic_row(records, src, dst, missing):
    expected = [_message_fields(src, dst, *record[1:]) for record in records]

    def write(trace):
        channel = trace.message_channel("net_send", src, dst)
        for time, sub_kind, nbytes, reason in records:
            channel.record(time, sub_kind, nbytes, reason)

    events = _lane_against_record(
        write, [(record[0], "net_send", fields) for record, fields in zip(records, expected)])
    for event, fields in zip(events, expected):
        _check_reads(event, fields, missing)


def test_subscribers_see_the_same_row_the_trace_keeps():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record_device(1.0, "ingest", "s", "p", 4)
    trace.record_device(2.0, "ingest", "s", "p", 5)
    assert seen == list(trace.events)
    assert seen[1].fields == {"sensor": "s", "process": "p", "seq": 5}


def test_a_test_environment_records_the_declared_rows():
    """``FakeEnv`` records through the positional lanes as both runtimes
    do: an ingest keeps its declared order, not keyword tracing's
    ``process`` first."""
    env = FakeEnv("p1")
    env.trace_device("ingest", "s1", 3)
    env.trace_row("command_issued", ("app", "light1", "on", 3))
    ingest, command = env.trace_log.events
    assert tuple(ingest.fields) == KINDS["ingest"].fields
    assert ingest.fields == {"sensor": "s1", "process": "p1", "seq": 3}
    assert tuple(command.fields) == KINDS["command_issued"].fields
    assert command["process"] == "p1" and command["action"] == "on"


# -- pickles -----------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_a_kept_trace_round_trips_through_every_pickle_protocol(protocol):
    trace = Trace()
    trace.record(1.0, "ingest", sensor="s", process="p", seq=1)
    trace.record_device(2.0, "ingest", "s", "p", 2)
    trace.message_channel("net_send", "a", "b").record(3.0, "keepalive", 20)
    clone = pickle.loads(pickle.dumps(trace, protocol=protocol))
    assert list(clone.events) == list(trace.events)
    assert clone.digest() == trace.digest()
