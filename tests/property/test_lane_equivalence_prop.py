"""A record's digest and aggregates do not depend on the lane that wrote it.

Every record shape has several writers — the generic ``Trace.record``, the
positional ``record_message`` / ``record_device``, the pre-resolved
``MessageChannel`` / ``DeviceChannel``, and the cells-plus-suffix that
``MessageChannel.bind`` hands the transport's quiescent multicast pair —
and what observes the trace (kept events, a kind-scoped subscriber) decides
which encoder runs inside them. One random record stream is written three
times, each record through an independently drawn lane, into an
aggregate-only trace, a keep-everything trace and an aggregate-only trace
with a kind-scoped subscriber: all three must agree with each other and
with the stream written through ``Trace.record`` alone.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.tracing import _PACK_D, Trace

MESSAGE_KINDS = ("net_send", "net_deliver", "net_drop")
DEVICE_KINDS = ("sensor_emit", "radio_emit", "radio_delivered", "ingest_unrouted")
ENDPOINTS = ("hub", "tv", "fridge", "küche")

names = st.one_of(
    st.sampled_from(("keepalive", "gapless_fwd", "door1", "météo")),
    st.text(max_size=8),
    st.text(min_size=255, max_size=300),  # past the one-byte length prefix
)
values = st.one_of(
    names, st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.lists(st.integers(0, 9), max_size=3),
)

message_records = st.tuples(
    st.just("message"), st.sampled_from(MESSAGE_KINDS),
    st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS), names,
    st.none() | st.integers(0, 2**40), st.none() | st.sampled_from(("partition", "dst_crashed")),
)
device_records = st.tuples(
    st.just("device"), st.sampled_from(DEVICE_KINDS), names,
    st.none() | st.sampled_from(ENDPOINTS), st.integers(0, 2**65),
)
generic_records = st.tuples(
    st.just("generic"), st.sampled_from(("alert", "window_closed")),
    st.dictionaries(st.sampled_from(("value", "note", "größe", "seq")), values),
)
# (record, ticks since the previous record): repeated instants exercise the
# packed-time memo, and eighths of a second are exact in binary.
streams = st.lists(
    st.tuples(st.one_of(message_records, device_records, generic_records),
              st.integers(0, 3)),
    max_size=40,
)


class Writer:
    """One trace plus the channels a home would hold on it."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        # As HomeNetwork does per pair: this also fixes the message kinds'
        # aggregate profile before any lane writes to them.
        self.messages = {
            (kind, src, dst): trace.message_channel(kind, src, dst)
            for kind in MESSAGE_KINDS for src in ENDPOINTS for dst in ENDPOINTS
        }
        self.devices = {}

    def message(self, lane, time, kind, src, dst, sub_kind, nbytes, reason):
        trace = self.trace
        channel = self.messages[kind, src, dst]
        if lane == 0:
            fields = {"src": src, "dst": dst, "kind": sub_kind}
            if nbytes is not None:
                fields["bytes"] = nbytes
            if reason is not None:
                fields["reason"] = reason
            trace.record(time, kind, **fields)
        elif lane == 1:
            trace.record_message(time, kind, src, dst, sub_kind, nbytes, reason)
        elif lane == 2 or reason is not None:
            channel.record(time, sub_kind, nbytes, reason)
        else:
            # HomeNetwork.send_multicast / a plan copy's _deliver: refuse while
            # anything observes the kind, else bump the cells and stage
            # packed time + the bound suffix.
            state, tally, pair, suffix = channel.bind(sub_kind, nbytes)
            if state[3] is not None or state[4] is not None or trace._subscribers:
                channel.record(time, sub_kind, nbytes)
                return
            state[0] += 1
            tally[0] += 1
            pair[0] += 1
            if nbytes is not None:
                state[1] += nbytes
                tally[1] += nbytes
            buf = trace._dig_buf
            buf += _PACK_D(time)
            buf += suffix

    def device(self, lane, time, kind, sensor, process, seq):
        if lane == 0:
            fields = {"sensor": sensor, "seq": seq}
            if process is not None:
                fields["process"] = process
            self.trace.record(time, kind, **fields)
        elif lane == 1:
            self.trace.record_device(time, kind, "sensor", sensor, process, seq)
        else:
            key = (kind, sensor, process)
            channel = self.devices.get(key)
            if channel is None:
                channel = self.devices[key] = self.trace.device_channel(*key)
            channel.record(time, seq)

    def write(self, stream, draw_lane):
        time = 0.0
        for record, ticks in stream:
            time += ticks * 0.125
            shape, *rest = record
            if shape == "message":
                self.message(draw_lane(4), time, *rest)
            elif shape == "device":
                self.device(draw_lane(3), time, *rest)
            else:
                kind, fields = rest
                self.trace.record(time, kind, **fields)
        return self.trace


def aggregates(trace: Trace):
    return (
        trace.counts,
        {kind: trace.bytes_of_kind(kind) for kind in MESSAGE_KINDS},
        {(kind, sub): trace.tally(kind, sub)
         for kind in MESSAGE_KINDS for sub in trace.sub_kinds(kind)},
        {kind: trace.pair_counts(kind) for kind in MESSAGE_KINDS},
    )


@settings(max_examples=150, deadline=None)
@given(streams, st.data())
def test_digest_and_aggregates_are_lane_independent(stream, data):
    reference = Writer(Trace(digest=True)).write(stream, lambda n: 0)

    subscribed = Trace(keep_kinds=set(), digest=True)
    seen = []
    subscribed.subscribe(seen.append, kinds=("net_send", "radio_emit"))
    traces = (
        Trace(keep_kinds=set(), digest=True),  # aggregate-only
        Trace(digest=True),                    # every record kept
        subscribed,
    )
    for trace in traces:
        Writer(trace).write(
            stream, lambda n: data.draw(st.integers(0, n - 1), label="lane"))
        assert trace.digest() == reference.digest()
        assert aggregates(trace) == aggregates(reference)

    # The streaming hash and the hash over kept events are the same encoder.
    kept = Writer(Trace()).write(
        stream, lambda n: data.draw(st.integers(0, n - 1), label="lane"))
    assert kept.digest() == reference.digest()
    assert [(e.time, e.kind, e.fields) for e in seen] == [
        (e.time, e.kind, e.fields) for e in reference.events
        if e.kind in ("net_send", "radio_emit")
    ]
