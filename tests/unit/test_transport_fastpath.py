"""Transport fast-path behaviors: the pair cache, the endpoints view and
the fire-and-forget delivery lane must be invisible to callers."""

import pytest

from repro.net.latency import LatencyModel
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


# -- registered payloads: the plan carries what the sender registered -------------


def test_registered_payload_rides_the_plan_and_is_repayloaded_in_place():
    sched, trace, net, (a, b, c) = make_mcast_net()
    first, second = {"wm": 1}, {"wm": 2}
    net.multicast_payload("a", "keepalive", first)
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    plan = net._mcast_plans["a"]
    # Copies of the first fan-out are still in flight when the payload
    # changes: they keep the message they were posted with.
    net.multicast_payload("a", "keepalive", second)
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    sched.run()
    assert net._mcast_plans["a"] is plan
    assert (net.plan_builds, net.plan_repayloads) == (1, 1)
    for sink in (b, c):
        assert [m.payload for m in sink.received] == [first, second]
        assert sink.received[0].payload is first and sink.received[1].payload is second
        assert [m.dst for m in sink.received] == [sink.name] * 2


def test_registration_is_per_source_and_kind_and_sized_once():
    _sched, _trace, net, _sinks = make_mcast_net()
    payload = {"wm": [1, 2, 3]}
    net.multicast_payload("a", "keepalive", payload)
    size = net.multicast_bytes("a", "keepalive", payload)
    assert size == net.multicast_bytes("a", "keepalive", payload) > 90
    # Identity, not equality: an equal dict somebody else built is unsized.
    assert net.multicast_bytes("a", "keepalive", dict(payload)) is None
    assert net.multicast_bytes("a", "other", payload) is None
    assert net.multicast_bytes("b", "keepalive", payload) is None
    # A plan of another kind is left alone; its own kind builds from the table.
    assert net.send_multicast("a", ("b", "c"), "other")
    assert net.plan_repayloads == 0
    net.multicast_payload("a", "keepalive", payload)
    assert net.plan_repayloads == 0


def _payload_runs(multicast: bool) -> tuple:
    """50 fan-outs whose payload changes every 5th: to an int (same size
    as the last int) or, every 10th, to a string of another length."""
    sched = Scheduler()
    trace = Trace(digest=True, keep_kinds=set())
    net = HomeNetwork(sched, RandomSource(1), trace)
    sinks = [Sink(n) for n in ("a", "b", "c")]
    for sink in sinks:
        net.register(sink)
    payload: dict = {}
    for tick in range(50):
        if tick % 5 == 0:
            payload = {"wm": tick} if tick % 10 else {"wm": "x" * tick}
            net.multicast_payload("a", "keepalive", payload)
        if multicast:
            assert net.send_multicast("a", ("b", "c"), "keepalive")
        else:
            size = net.multicast_bytes("a", "keepalive", payload)
            for dst in ("b", "c"):
                message = Message("keepalive", "a", dst, payload)
                message._wire_bytes = size
                net.send(message)
        sched.run()
    return (trace.digest(), trace.bytes_of_kind("net_send"),
            trace.tally("net_send", "keepalive"),
            [(m.dst, m.payload) for sink in sinks for m in sink.received])


def test_repayloaded_multicast_digest_matches_per_message_sends():
    lane, plain = _payload_runs(multicast=True), _payload_runs(multicast=False)
    assert lane == plain
    assert lane[1] > 100 * 90  # the payloads were on the wire


def test_lane_refusals_are_counted_by_cause():
    sched, trace, net, _sinks = make_mcast_net()
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    assert net.lane_refusals == {"partition": 0, "subscriber": 0, "kept": 0}
    net.partition.set_partition([("a",), ("b", "c")])
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    net.partition.heal()
    trace.subscribe(lambda event: None, kinds=("net_send",))
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    trace.subscribe(lambda event: None)
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    assert net.lane_refusals == {"partition": 2, "subscriber": 1, "kept": 1}
    assert net.plan_builds == 1
    sched.run()


def test_a_lane_refused_for_good_builds_and_repayloads_no_plan():
    """A home that keeps ``net_send`` refuses every fan-out before a plan
    is built, so its heartbeat's registrations re-payload nothing."""
    from repro.eval.workloads import single_sensor_home

    home, sensor = single_sensor_home(n_processes=3, receiving=["p1"], keep_trace_kinds=None)
    home.run_until(1.0)
    sensor.start_periodic(10.0)
    home.run_until(20.0)
    stats = home.stats()
    assert stats["lane_refusals"]["kept"] > 100
    assert stats["plan_builds"] == stats["plan_repayloads"] == 0


def test_a_plan_refused_by_a_later_subscription_is_dropped():
    sched, trace, net, _sinks = make_mcast_net()
    net.multicast_payload("a", "keepalive", {"wm": 1})
    assert net.send_multicast("a", ("b", "c"), "keepalive")
    trace.subscribe(lambda event: None, kinds=("net_send",))
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    net.multicast_payload("a", "keepalive", {"wm": 2})
    assert not net.send_multicast("a", ("b", "c"), "keepalive")
    assert (net.plan_builds, net.plan_repayloads) == (1, 0)
    assert net.lane_refusals["kept"] == 2
    sched.run()


class ConstantLatency(LatencyModel):
    """Every copy takes 0.25 s, whatever its size; each call is counted."""

    def message_delay(self, wire_bytes, live_processes=2, rng=None):
        self.calls.append((wire_bytes, live_processes))
        return 0.25


def test_a_latency_model_subclass_sets_the_delay_on_both_paths():
    """The stock model is inlined on the send path and in the multicast
    plan; a subclass's own message_delay is asked instead. The multicast
    lane refuses a subclass before it builds a plan (with no refusal
    cause counted), so the fan-out's copies take ``send``: one call per
    copy in dsts order."""
    sched = Scheduler()
    latency = ConstantLatency()
    latency.calls = []
    net = HomeNetwork(sched, RandomSource(1), Trace(keep_kinds=set()), latency=latency)
    arrivals = []

    class Timed(Sink):
        def deliver(self, message: Message) -> None:
            arrivals.append((message.kind, self.name, sched.now))

    for name in ("a", "b", "c"):
        net.register(Timed(name))
    net.send(Message("m", "a", "b", {}))
    assert not net.send_multicast("a", ("c", "b"), "keepalive")
    assert net.plan_builds == 0 and not net._mcast_plans
    assert net.lane_refusals == {"partition": 0, "subscriber": 0, "kept": 0}
    for dst in ("c", "b"):  # what RivuletProcess.multicast does on a refusal
        net.send(Message("keepalive", "a", dst, {}))
    sched.run()
    assert len(latency.calls) == 3 and {live for _size, live in latency.calls} == {3}
    # The keep-alive to b queues behind the message sent to b first (FIFO).
    assert arrivals == [("m", "b", 0.25), ("keepalive", "c", 0.25),
                        ("keepalive", "b", 0.25 + 1e-9)]
