"""Transport fast-path behaviors: the pair cache, the endpoints view and
the fire-and-forget delivery lane must be invisible to callers."""

import pytest

from repro.net.message import Message
from repro.net.transport import HomeNetwork
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


class Sink:
    def __init__(self, name: str):
        self.name = name
        self.alive = True
        self.received: list[Message] = []

    def deliver(self, message: Message) -> None:
        self.received.append(message)


def make_net():
    sched = Scheduler()
    trace = Trace()
    net = HomeNetwork(sched, RandomSource(1), trace)
    return sched, trace, net


def test_endpoints_view_is_read_only():
    _sched, _trace, net = make_net()
    a = Sink("a")
    net.register(a)
    view = net.endpoints
    assert view["a"] is a
    with pytest.raises(TypeError):
        view["b"] = Sink("b")
    with pytest.raises(TypeError):
        del view["a"]


def test_endpoints_view_is_live_not_a_snapshot():
    _sched, _trace, net = make_net()
    view = net.endpoints
    assert "a" not in view
    net.register(Sink("a"))
    assert "a" in view
    assert dict(net.endpoints) == dict(view)  # explicit copy still works


def test_register_after_send_patches_cached_sender_slot():
    """A pair cached while the sender was unregistered must pick up the
    real endpoint on registration, or crash gating would never engage."""
    sched, _trace, net = make_net()
    b = Sink("b")
    net.register(b)
    net.send(Message("m", "a", "b", {}))
    sched.run()
    assert len(b.received) == 1

    a = Sink("a")
    net.register(a)
    a.alive = False
    net.send(Message("m", "a", "b", {}))
    sched.run()
    # The dead sender's message must not have been transmitted.
    assert len(b.received) == 1
    assert net.messages_sent() == 1


def test_fifo_order_survives_pair_cache():
    sched, _trace, net = make_net()
    a, b = Sink("a"), Sink("b")
    net.register(a)
    net.register(b)
    for seq in range(20):
        net.send(Message("m", "a", "b", {"seq": seq}))
    sched.run()
    assert [m["seq"] for m in b.received] == list(range(20))


def test_unknown_destination_still_raises():
    _sched, _trace, net = make_net()
    net.register(Sink("a"))
    with pytest.raises(KeyError):
        net.send(Message("m", "a", "ghost", {}))


def test_aggregates_match_trace_records_with_keeping_enabled():
    """The inlined aggregate bumps and the generic record path must agree:
    run with kept events (slow path) and compare against counters."""
    sched, trace, net = make_net()
    a, b = Sink("a"), Sink("b")
    net.register(a)
    net.register(b)
    for seq in range(10):
        net.send(Message("m", "a", "b", {"seq": seq}))
    sched.run()
    assert trace.count("net_send") == len(trace.of_kind("net_send")) == 10
    assert trace.count("net_deliver") == 10
    assert trace.pair_count("net_send", "a", "b") == 10
    assert net.messages_sent(kinds={"m"}) == 10
    assert net.bytes_sent() == sum(
        e["bytes"] for e in trace.of_kind("net_send")
    )


def test_aggregates_only_trace_counts_identically():
    def totals(trace):
        sched = Scheduler()
        net = HomeNetwork(sched, RandomSource(1), trace)
        a, b = Sink("a"), Sink("b")
        net.register(a)
        net.register(b)
        for seq in range(25):
            net.send(Message("m", "a", "b", {"seq": seq}))
        sched.run()
        return (
            trace.count("net_send"),
            trace.count("net_deliver"),
            trace.bytes_of_kind("net_send"),
            trace.pair_count("net_deliver", "a", "b"),
        )

    assert totals(Trace()) == totals(Trace(keep_kinds=set()))


def make_mcast_net():
    # The quiescent path only engages when net_send/net_deliver records are
    # aggregate-only (the fleet configuration); net_drop stays kept so drop
    # records can be asserted directly.
    sched = Scheduler()
    trace = Trace(keep_kinds={"net_drop"})
    net = HomeNetwork(sched, RandomSource(1), trace)
    sinks = [Sink(n) for n in ("a", "b", "c")]
    for sink in sinks:
        net.register(sink)
    return sched, trace, net, sinks


def test_quiescent_multicast_delivers_to_every_peer():
    sched, trace, net, (a, b, c) = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    sched.run()
    assert len(b.received) == 1 and len(c.received) == 1
    assert trace.count("net_send") == 2
    assert trace.count("net_deliver") == 2


def test_partition_disables_the_quiescent_multicast_path():
    """An active partition must force the caller back onto per-message
    send() so per-peer drops are recorded exactly as before."""
    sched, trace, net, (a, b, c) = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    sched.run()
    net.partition.set_partition([("a",), ("b", "c")])
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    net.partition.heal()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    sched.run()
    assert len(b.received) == 2 and len(c.received) == 2


def test_partition_drops_in_flight_quiescent_copies():
    """Copies posted before a partition appears are lost at delivery time,
    with the same net_drop record the generic path produces."""
    sched, trace, net, (a, b, c) = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    net.partition.set_partition([("a",), ("b", "c")])
    sched.run()
    assert b.received == [] and c.received == []
    drops = trace.of_kind("net_drop")
    assert len(drops) == 2
    assert all(e["reason"] == "partition" for e in drops)


def test_crashed_destination_drops_quiescent_copy():
    sched, trace, net, (a, b, c) = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    b.alive = False
    sched.run()
    assert b.received == []
    assert len(c.received) == 1
    drops = trace.of_kind("net_drop")
    assert len(drops) == 1
    assert drops[0]["reason"] == "dst_crashed"


def test_membership_change_invalidates_cached_plan():
    """Registering a new endpoint bumps the epoch: the next multicast must
    rebuild its plan instead of reusing a stale peer set."""
    sched, trace, net, (a, b, c) = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    plan_before = net._mcast_plans["a"]
    d = Sink("d")
    net.register(d)
    assert net.send_multicast("a", ("b", "c", "d"), "keepalive")
    sched.run()
    assert net._mcast_plans["a"] is not plan_before
    assert len(d.received) == 1


def test_multicast_digest_matches_per_message_sends():
    """The express lane's digest bytes must be exactly the per-message
    path's: same records, same order, same payload reprs."""
    def run(multicast):
        sched = Scheduler()
        trace = Trace(digest=True, keep_kinds=set())
        net = HomeNetwork(sched, RandomSource(1), trace)
        sinks = [Sink(n) for n in ("a", "b", "c")]
        for sink in sinks:
            net.register(sink)
        for _ in range(50):
            if multicast:
                assert net.send_multicast("a", ("b", "c"), "keepalive")
            else:
                for dst in ("b", "c"):
                    net.send(Message("keepalive", "a", dst))
            sched.run()
        return trace.digest()

    assert run(multicast=True) == run(multicast=False)
