"""The aggregate-only trace and the channel/device fast lanes."""

import pytest

from repro.sim.tracing import Trace


def fill(trace: Trace, n: int = 10) -> Trace:
    channel = trace.message_channel("net_send", "a", "b")
    for i in range(n):
        channel.record(float(i), "keepalive", 100)
        trace.record_device(float(i), "radio_emit", "s1", i)
    return trace


def test_quiet_keeps_aggregates_but_stores_nothing():
    trace = fill(Trace(keep_kinds=set()))
    assert trace.count("net_send") == 10
    assert trace.bytes_of_kind("net_send") == 1000
    assert trace.tally("net_send", "keepalive") == (10, 1000)
    assert trace.pair_count("net_send", "a", "b") == 10
    assert trace.count("radio_emit") == 10
    assert len(trace.events) == 0
    assert len(trace.of_kind("net_send")) == 0


def test_digest_requires_hasher_when_stream_is_partial():
    trace = fill(Trace(keep_kinds=set()))
    with pytest.raises(RuntimeError):
        trace.digest()


def test_channel_records_match_generic_record_message():
    via_channel = Trace(digest=True)
    channel = via_channel.message_channel("net_send", "a", "b")
    channel.record(1.0, "keepalive", 90)
    channel.record(2.0, "sync", 120, "retry")

    via_generic = Trace(digest=True)
    via_generic.record_message(1.0, "net_send", "a", "b", "keepalive", 90)
    via_generic.record_message(2.0, "net_send", "a", "b", "sync", 120, "retry")

    assert via_channel.digest() == via_generic.digest()
    assert via_channel.tally("net_send", "sync") == via_generic.tally(
        "net_send", "sync"
    )
    assert [e.fields for e in via_channel.of_kind("net_send")] == [
        e.fields for e in via_generic.of_kind("net_send")
    ]


def test_record_device_matches_generic_record():
    fast = Trace(digest=True)
    fast.record_device(1.0, "radio_lost", "s1", "p1", 7)
    fast.record_device(2.0, "command_sent", "a1", "p2", "on")

    generic = Trace(digest=True)
    generic.record(1.0, "radio_lost", sensor="s1", process="p1", seq=7)
    generic.record(2.0, "command_sent", actuator="a1", process="p2",
                   action="on")

    assert fast.digest() == generic.digest()
    assert [e.fields for e in fast.events] == [e.fields for e in generic.events]


def test_kind_scoped_subscriber_sees_channel_records():
    trace = Trace(keep_kinds=set())
    seen = []
    trace.subscribe(seen.append, kinds=("net_send",))
    channel = trace.message_channel("net_send", "a", "b")
    channel.record(1.0, "keepalive", 90)
    trace.record_device(1.0, "radio_emit", "s1", 1)  # not subscribed
    assert [e.kind for e in seen] == ["net_send"]
    assert seen[0]["bytes"] == 90


def test_pair_counts_skip_precreated_empty_cells():
    trace = Trace()
    trace.message_channel("net_send", "a", "b")  # creates a zero cell
    channel = trace.message_channel("net_send", "a", "c")
    channel.record(1.0, "m", 10)
    assert trace.pair_counts("net_send") == {("a", "c"): 1}
    assert trace.pair_count("net_send", "a", "b") == 0
