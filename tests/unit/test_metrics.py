"""Unit tests for evaluation metrics (pure functions over traces)."""

import math

import pytest

from repro.eval import metrics
from repro.sim.tracing import Trace


def make_trace_with_deliveries():
    trace = Trace()
    for seq, (at, delay) in enumerate([(1.0, 0.002), (2.0, 0.004), (2.5, 0.006)], 1):
        trace.record(at, "logic_delivery", app="a", sensor="s", seq=seq,
                     emitted_at=at - delay, delay=delay)
    return trace


def test_mean_and_percentile():
    assert metrics.mean([1.0, 2.0, 3.0]) == 2.0
    assert math.isnan(metrics.mean([]))
    assert metrics.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert math.isnan(metrics.percentile([], 0.5))


def test_delivery_delays_and_mean_delay():
    trace = make_trace_with_deliveries()
    assert metrics.delivery_delays(trace) == [0.002, 0.004, 0.006]
    assert metrics.mean_delay_ms(trace) == 4.0
    assert metrics.delivery_delays(trace, app="other") == []


def test_event_bytes_and_messages():
    trace = Trace()
    trace.record(0.0, "net_send", src="a", dst="b", kind="gapless_fwd", bytes=100)
    trace.record(0.0, "net_send", src="a", dst="b", kind="keepalive", bytes=50)
    trace.record(0.0, "net_send", src="b", dst="c", kind="gap_fwd", bytes=70)
    assert metrics.event_bytes_sent(trace) == 170  # keepalive excluded
    assert metrics.event_messages_sent(trace) == 2
    assert metrics.bytes_per_event(trace, 2) == 85.0
    assert math.isnan(metrics.bytes_per_event(trace, 0))


def test_event_bytes_and_messages_are_exact_without_kept_records():
    """The byte/message metrics read the (net_send, sub-kind) tallies, so a
    trace that stores nothing answers the same as one that stores all."""
    sends = [("gapless_fwd", 100), ("keepalive", 50), ("gap_fwd", 70),
             ("nbcast", 31), ("rbcast", 9), ("cmd_fwd", 44)]
    full, aggregate = Trace(), Trace(keep_kinds=set())
    for trace in (full, aggregate):
        for kind, nbytes in sends:
            trace.record(0.0, "net_send", src="a", dst="b", kind=kind, bytes=nbytes)
    scanned = [e for e in full.of_kind("net_send")
               if e["kind"] in metrics.EVENT_CARRYING_KINDS]
    assert len(aggregate.of_kind("net_send")) == 0
    for trace in (full, aggregate):
        assert metrics.event_bytes_sent(trace) == sum(e["bytes"] for e in scanned) == 210
        assert metrics.event_messages_sent(trace) == len(scanned) == 4
        assert metrics.event_bytes_sent(trace, frozenset({"cmd_fwd"})) == 44
        assert metrics.bytes_per_event(trace, 2) == 105.0


@pytest.mark.parametrize("kind, fields, read", [
    ("logic_delivery", dict(app="a", sensor="s", seq=1, emitted_at=0.9, delay=0.1),
     metrics.delivery_delays),
    ("logic_delivery", dict(app="a", sensor="s", seq=1, emitted_at=0.9, delay=0.1),
     metrics.mean_delay_ms),
    ("logic_delivery", dict(app="a", sensor="s", seq=1, emitted_at=0.9, delay=0.1),
     lambda trace: metrics.delivered_fraction(trace, 1)),
    ("logic_delivery", dict(app="a", sensor="s", seq=1, emitted_at=0.9, delay=0.1),
     metrics.deliveries_per_bucket),
    ("poll_request", dict(sensor="t1", process="p0"),
     lambda trace: metrics.poll_requests(trace, "t1")),
    ("poll_request", dict(sensor="t1", process="p0"),
     lambda trace: metrics.normalized_poll_overhead(trace, "t1", 2.0, 10.0)),
    ("radio_delivered", dict(sensor="s1", process="hub", seq=1),
     metrics.reception_matrix),
])
def test_scanning_metrics_refuse_a_trace_that_did_not_keep_their_kind(kind, fields, read):
    """Counted but not kept: the scan would see nothing and report [] / NaN /
    0 for a run in which the thing happened."""
    dropped = Trace(keep_kinds={"something_else"})
    dropped.record(1.0, kind, **fields)
    with pytest.raises(ValueError, match=f"'{kind}'"):
        read(dropped)
    kept = Trace(keep_kinds={kind})
    kept.record(1.0, kind, **fields)
    read(kept)
    # Nothing recorded is not the same as nothing kept.
    read(Trace(keep_kinds=set()))
    # The unfiltered poll count is a counter and needs no records.
    assert metrics.poll_requests(dropped) == (1 if kind == "poll_request" else 0)


def test_delivered_fraction_counts_distinct():
    trace = Trace()
    for seq in (1, 2, 2, 3):  # seq 2 replayed after a failover
        trace.record(1.0, "logic_delivery", app="a", sensor="s", seq=seq,
                     emitted_at=0.9, delay=0.1)
    assert metrics.delivered_fraction(trace, 4) == 0.75
    assert math.isnan(metrics.delivered_fraction(trace, 0))


def test_deliveries_per_bucket():
    trace = make_trace_with_deliveries()
    series = metrics.deliveries_per_bucket(trace)
    assert series == [(0.0, 0), (1.0, 1), (2.0, 2)]
    assert metrics.deliveries_per_bucket(Trace()) == []


def test_poll_metrics():
    trace = Trace()
    for _ in range(6):
        trace.record(0.0, "poll_request", sensor="t1", process="p0")
    trace.record(0.0, "poll_request", sensor="t2", process="p0")
    assert metrics.poll_requests(trace) == 7
    assert metrics.poll_requests(trace, "t1") == 6
    assert metrics.normalized_poll_overhead(trace, "t1", epoch_s=2.0,
                                            duration_s=10.0) == 1.2


def test_reception_matrix():
    trace = Trace()
    trace.record(0.0, "radio_delivered", sensor="s1", process="hub", seq=1)
    trace.record(0.0, "radio_delivered", sensor="s1", process="hub", seq=2)
    trace.record(0.0, "radio_delivered", sensor="s1", process="tv", seq=1)
    matrix = metrics.reception_matrix(trace)
    assert matrix == {"s1": {"hub": 2, "tv": 1}}


def test_streaming_reception_counter():
    trace = Trace(keep_kinds=set())
    counter = metrics.ReceptionCounter(trace)
    trace.record(0.0, "sensor_emit", sensor="s1", seq=1)
    trace.record(0.0, "radio_delivered", sensor="s1", process="hub", seq=1)
    trace.record(0.0, "radio_delivered", sensor="s1", process="hub", seq=2)
    assert counter.emitted["s1"] == 1
    assert counter.matrix() == {"s1": {"hub": 2}}
    assert len(trace) == 0  # nothing stored, everything streamed
