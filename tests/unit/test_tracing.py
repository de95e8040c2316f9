"""Unit tests for the structured trace recorder."""

from repro.sim.tracing import Trace


def test_record_and_query():
    trace = Trace()
    trace.record(1.0, "ping", value=1)
    trace.record(2.0, "pong", value=2)
    trace.record(3.0, "ping", value=3)
    assert trace.count("ping") == 2
    assert [e["value"] for e in trace.of_kind("ping")] == [1, 3]


def test_where_filters_on_fields():
    trace = Trace()
    trace.record(0.0, "msg", src="a", dst="b")
    trace.record(0.0, "msg", src="a", dst="c")
    assert len(trace.where("msg", dst="c")) == 1


def test_keep_kinds_limits_storage_but_not_counts():
    trace = Trace(keep_kinds={"kept"})
    trace.record(0.0, "kept", x=1)
    trace.record(0.0, "dropped", x=2)
    assert trace.count("dropped") == 1
    assert len(trace.of_kind("dropped")) == 0
    assert len(trace.of_kind("kept")) == 1


def test_subscribers_see_unstored_records():
    trace = Trace(keep_kinds=set())
    seen = []
    trace.subscribe(lambda e: seen.append(e.kind))
    trace.record(0.0, "anything")
    assert seen == ["anything"]
    assert len(trace) == 0


def test_event_get_and_getitem():
    trace = Trace()
    trace.record(5.0, "k", a=1)
    event = trace.events[0]
    assert event["a"] == 1
    assert event.get("missing", 42) == 42
    assert event.time == 5.0


def test_field_named_kind_is_allowed():
    trace = Trace()
    trace.record(0.0, "net_send", kind="keepalive")
    assert trace.of_kind("net_send")[0]["kind"] == "keepalive"


def test_counts_snapshot_is_a_copy():
    trace = Trace()
    trace.record(0.0, "a")
    snapshot = trace.counts
    snapshot["a"] += 10
    assert trace.count("a") == 1

# -- read-only views -----------------------------------------------------------


def test_events_returns_live_view_not_copy():
    trace = Trace()
    trace.record(0.0, "a")
    view = trace.events
    assert len(view) == 1
    trace.record(1.0, "a")
    assert len(view) == 2  # a window onto the trace, not a snapshot


def test_views_are_read_only():
    trace = Trace()
    trace.record(0.0, "a")
    for view in (trace.events, trace.of_kind("a")):
        assert not hasattr(view, "append")
        with __import__("pytest").raises(TypeError):
            view[0] = None


def test_view_slicing_and_iteration():
    trace = Trace()
    for i in range(5):
        trace.record(float(i), "a", i=i)
    sliced = trace.events[1:4]
    assert [e["i"] for e in sliced] == [1, 2, 3]
    assert [e["i"] for e in trace.iter_kind("a")] == [0, 1, 2, 3, 4]


def test_of_kind_unknown_is_empty():
    trace = Trace()
    assert len(trace.of_kind("nothing")) == 0
    assert list(trace.iter_kind("nothing")) == []


# -- incremental aggregates ----------------------------------------------------


def test_bytes_of_kind_sums_incrementally():
    trace = Trace()
    trace.record(0.0, "net_send", bytes=10)
    trace.record(1.0, "net_send", bytes=32)
    trace.record(2.0, "other")
    assert trace.bytes_of_kind("net_send") == 42
    assert trace.bytes_of_kind("other") == 0


def test_tally_tracks_sub_kind_count_and_bytes():
    trace = Trace()
    trace.record(0.0, "net_send", kind="keepalive", bytes=5)
    trace.record(1.0, "net_send", kind="keepalive", bytes=7)
    trace.record(2.0, "net_send", kind="event_fwd", bytes=100)
    assert trace.tally("net_send", "keepalive") == (2, 12)
    assert trace.tally("net_send", "event_fwd") == (1, 100)
    assert trace.tally("net_send", "missing") == (0, 0)
    assert sorted(trace.sub_kinds("net_send")) == ["event_fwd", "keepalive"]


def test_pair_counts_track_src_dst():
    trace = Trace(keep_kinds=set())  # aggregates work even storing nothing
    trace.record(0.0, "net_send", src="a", dst="b", kind="k", bytes=1)
    trace.record(1.0, "net_send", src="a", dst="b", kind="k", bytes=1)
    trace.record(2.0, "net_send", src="b", dst="a", kind="k", bytes=1)
    assert trace.pair_count("net_send", "a", "b") == 2
    assert trace.pair_count("net_send", "b", "a") == 1
    assert trace.pair_counts("net_send") == {("a", "b"): 2, ("b", "a"): 1}


def test_add_counts_carries_the_aggregates_of_unkept_kinds():
    source = Trace(keep_kinds={"ingest"})
    source.record(0.0, "ingest", sensor="s", seq=1)
    source.record_message(0.5, "net_send", "a", "b", "event_fwd", 40)
    source.record_message(0.6, "net_send", "b", "a", "keepalive", 8)
    source.record_message(0.7, "net_drop", "a", "b", "event_fwd", reason="loss")
    merged = Trace(keep_kinds={"ingest"})
    merged.record(0.0, "ingest", sensor="s", seq=1)  # kept: re-recorded
    merged.record_message(0.8, "net_send", "a", "b", "event_fwd", 2)
    merged.add_counts(source)
    assert merged.count("ingest") == 1
    assert merged.count("net_send") == 3
    assert merged.bytes_of_kind("net_send") == 50
    assert merged.tally("net_send", "event_fwd") == (2, 42)
    assert merged.tally("net_send", "keepalive") == (1, 8)
    assert merged.pair_counts("net_send") == {("a", "b"): 2, ("b", "a"): 1}
    assert merged.tally("net_drop", "event_fwd") == (1, 0)
    assert merged.pair_counts("net_drop") == {("a", "b"): 1}
    assert not merged.of_kind("net_send")


def test_record_message_matches_record():
    """The transport's fast lane must be indistinguishable from record()."""
    slow = Trace(digest=True)
    fast = Trace(digest=True)
    slow.record(0.0, "net_send", src="a", dst="b", kind="keepalive", bytes=9)
    slow.record(1.0, "net_deliver", src="a", dst="b", kind="keepalive")
    slow.record(2.0, "net_drop", src="a", dst="c", kind="keepalive", reason="partition")
    fast.record_message(0.0, "net_send", "a", "b", "keepalive", 9)
    fast.record_message(1.0, "net_deliver", "a", "b", "keepalive")
    fast.record_message(2.0, "net_drop", "a", "c", "keepalive", reason="partition")
    assert slow.digest() == fast.digest()
    assert slow.counts == fast.counts
    assert slow.bytes_of_kind("net_send") == fast.bytes_of_kind("net_send")
    assert slow.tally("net_send", "keepalive") == fast.tally("net_send", "keepalive")
    assert slow.pair_counts("net_send") == fast.pair_counts("net_send")
    assert fast.events[0].fields == slow.events[0].fields


# -- kind-filtered subscriptions -----------------------------------------------


def test_kind_scoped_subscriber_only_sees_its_kinds():
    trace = Trace(keep_kinds=set())
    seen = []
    trace.subscribe(lambda e: seen.append(e.kind), kinds=("wanted",))
    trace.record(0.0, "wanted")
    trace.record(1.0, "ignored")
    trace.record(2.0, "wanted")
    assert seen == ["wanted", "wanted"]


def test_kind_scoped_subscription_after_records_exist():
    trace = Trace()
    trace.record(0.0, "k")
    seen = []
    trace.subscribe(lambda e: seen.append(e.time), kinds=("k",))
    trace.record(1.0, "k")
    assert seen == [1.0]


# -- digest --------------------------------------------------------------------


def test_digest_stable_for_identical_streams():
    a, b = Trace(), Trace()
    for t in (a, b):
        t.record(0.0, "x", peers={"p2", "p1"}, mapping={"b": 2, "a": 1})
        t.record(1.0, "y", values=[1, 2.5, None, True])
    assert a.digest() == b.digest()


def test_digest_differs_when_stream_differs():
    a, b = Trace(), Trace()
    a.record(0.0, "x", v=1)
    b.record(0.0, "x", v=2)
    assert a.digest() != b.digest()


def test_incremental_digest_matches_recomputed():
    streaming = Trace(digest=True)
    stored = Trace()
    for t in (streaming, stored):
        t.record(0.0, "x", v=1)
        t.record(1.0, "y", src="a", dst="b", kind="k", bytes=3)
    assert streaming.digest() == stored.digest()


def test_digest_requires_hasher_when_kinds_dropped():
    trace = Trace(keep_kinds=set())
    trace.record(0.0, "x")
    import pytest

    with pytest.raises(RuntimeError):
        trace.digest()
