"""Fault-proxy coverage: per-peer drop / delay / partition / heal on real TCP.

All runs route inter-node traffic through :class:`repro.rt.proxy.FaultProxy`
(``use_proxy=True``); waits are deadline-based.
"""

import asyncio

import pytest

from repro.core.delivery import GAPLESS
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.rt import LocalCluster
from repro.sim.faults import FaultError

pytestmark = pytest.mark.rt


def run(coro):
    return asyncio.run(coro)


def relay_app() -> App:
    op = Operator("L", on_window=lambda ctx, c: None)
    op.add_sensor("s1", GAPLESS, CountWindow(1))
    return App("app", op)


def three_node_cluster() -> LocalCluster:
    cluster = LocalCluster(use_proxy=True)
    for name in ("a", "b", "c"):
        cluster.add_process(name)
    # Events enter at a only: reaching b and c requires inter-node frames
    # through the proxy.
    cluster.add_push_sensor("s1", receivers=["a"])
    cluster.deploy(relay_app())
    return cluster


async def converged(cluster: LocalCluster) -> None:
    live = {name for name, node in cluster.nodes.items() if node.alive}
    await cluster.wait_for(
        lambda: all(
            set(node.heartbeat.view.members) >= live
            for node in cluster.nodes.values() if node.alive
        ),
        timeout=5.0,
    )


def test_traffic_flows_through_proxy_and_is_accounted():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            for _ in range(3):
                cluster.emit("s1", True)
            await cluster.wait_for(
                lambda: all(node.store.total_events() == 3
                            for node in cluster.nodes.values()),
                timeout=5.0,
            )
            # Every inter-node frame was observed by the proxy.
            assert cluster.trace.count("net_send") > 0
            forwarded = sum(s.forwarded for s in cluster.proxy.stats.values())
            assert forwarded == cluster.trace.count("net_send")

    run(scenario())


def test_per_peer_loss_drops_frames_on_one_link_only():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            # Kill every a->b frame (one direction: the proxy's own policy;
            # a plan's set_link_loss is symmetric). Heartbeat keepalives
            # flow constantly, so drops accrue on exactly that link while
            # every other directed pair stays clean.
            cluster.proxy.set_loss("a", "b", 1.0)
            await cluster.wait_for(
                lambda: cluster.proxy.stats[("a", "b")].dropped >= 3,
                timeout=5.0,
            )
            stats = cluster.proxy.stats
            assert stats[("a", "b")].reasons.get("loss", 0) >= 3
            for pair, pair_stats in stats.items():
                if pair != ("a", "b"):
                    assert pair_stats.reasons.get("loss", 0) == 0
            # Loss is one-way: b->a frames still forward.
            assert stats[("b", "a")].forwarded > 0
            # And net_drop accounting reached the shared trace.
            assert cluster.trace.count("net_drop") >= 3

    run(scenario())


def test_per_peer_delay_slows_but_does_not_lose():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            cluster.set_peer_delay("a", "b", 0.3, symmetric=False)
            loop = asyncio.get_event_loop()
            t0 = loop.time()
            cluster.emit("s1", True)
            await cluster.wait_for(
                lambda: cluster.node("b").store.total_events() == 1,
                timeout=8.0,
            )
            # The frame was delayed, not dropped.
            assert cluster.proxy.stats[("a", "b")].dropped == 0
            assert loop.time() - t0 >= 0.25

    run(scenario())


def test_partition_and_heal():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            cluster.set_partition([["a"], ["b", "c"]])
            # Frames crossing the cut are swallowed; the survivors notice
            # a's silence and evict it from their views.
            await cluster.wait_for(
                lambda: "a" not in cluster.node("b").heartbeat.view.members,
                timeout=5.0,
            )
            dropped = sum(
                stats.reasons.get("partition", 0)
                for stats in cluster.proxy.stats.values()
            )
            assert dropped > 0
            cluster.heal_partition()
            await cluster.wait_for(
                lambda: "a" in cluster.node("b").heartbeat.view.members
                and "a" in cluster.node("c").heartbeat.view.members,
                timeout=5.0,
            )
            assert cluster.trace.count("partition") == 1
            assert cluster.trace.count("partition_healed") == 1

    run(scenario())


def test_unlisted_process_is_isolated_by_partition():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            # Same group semantics as the sim transport: c is unlisted,
            # so c is isolated from everyone.
            cluster.set_partition([["a", "b"]])
            await cluster.wait_for(
                lambda: "c" not in cluster.node("a").heartbeat.view.members
                and "b" in cluster.node("a").heartbeat.view.members,
                timeout=5.0,
            )

    run(scenario())


def test_block_is_per_link_and_unblock_restores():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            await converged(cluster)
            proxy = cluster.proxy
            proxy.block("a", "b")  # symmetric by default
            await cluster.wait_for(
                lambda: proxy.stats[("a", "b")].dropped
                + proxy.stats[("b", "a")].dropped > 0,
                timeout=5.0,
            )
            # a<->c unaffected: membership keeps all three alive via c.
            assert proxy.stats[("a", "c")].dropped == 0
            proxy.unblock("a", "b")
            before = proxy.stats[("a", "b")].forwarded
            await cluster.wait_for(
                lambda: proxy.stats[("a", "b")].forwarded > before,
                timeout=5.0,
            )

    run(scenario())


def test_loss_respects_rate_bounds():
    async def scenario():
        cluster = three_node_cluster()
        async with cluster:
            with pytest.raises(FaultError):
                cluster.set_link_loss("a", "b", 1.5)
            with pytest.raises(ValueError):
                cluster.set_peer_delay("a", "b", -0.1)

    run(scenario())


def test_faults_require_proxy():
    async def scenario():
        cluster = LocalCluster()  # no proxy
        cluster.add_process("a")
        cluster.add_process("b")
        cluster.add_push_sensor("s1", receivers=["a"])
        cluster.deploy(relay_app())
        async with cluster:
            with pytest.raises(RuntimeError):
                cluster.set_link_loss("a", "b", 0.5)
            with pytest.raises(RuntimeError):
                cluster.set_partition([["a"], ["b"]])

    run(scenario())


# -- a bare proxy pair under a burst: per-frame policy survives coalesced writes --

BURST = 1_000
PROXY_SEED = 7


async def burst_through_proxy(configure) -> tuple:
    """Push BURST frames a->b through a bare FaultProxy in one write.

    Returns ``(proxy, trace, arrivals)``: the index and arrival time of
    every frame that reached b's listener, in arrival order.
    """
    from repro.net.message import Message
    from repro.rt import wire
    from repro.rt.proxy import FaultProxy
    from repro.sim.tracing import Trace

    loop = asyncio.get_running_loop()
    arrivals: list[tuple[int, float]] = []
    inbound: set = set()

    def sink() -> wire.FrameProtocol:
        return wire.FrameProtocol(
            lambda body: arrivals.append((wire.decode_body(body)["i"], loop.time())),
            inbound)

    server = await loop.create_server(sink, "127.0.0.1", 0)
    target = server.sockets[0].getsockname()
    trace = Trace()
    proxy = FaultProxy(["a", "b"], {"a": target, "b": target},
                       seed=PROXY_SEED, trace=trace)
    await proxy.start()
    configure(proxy)
    _reader, writer = await asyncio.open_connection(*proxy.address_map_for("a")["b"])
    writer.write(b"".join(
        wire.encode_message(Message(kind="burst", src="a", dst="b", payload={"i": i}))
        for i in range(BURST)
    ))
    await writer.drain()
    stats = proxy.stats[("a", "b")]
    deadline = loop.time() + 10.0
    while stats.forwarded + stats.dropped < BURST or len(arrivals) < stats.forwarded:
        assert loop.time() < deadline, (stats, len(arrivals))
        await asyncio.sleep(0.01)
    writer.close()
    await proxy.stop()
    server.close()
    await server.wait_closed()
    await wire.close_accepted(inbound)
    return proxy, trace, arrivals


def test_delayed_burst_arrives_in_order_and_no_frame_early():
    async def scenario():
        proxy, trace, arrivals = await burst_through_proxy(
            lambda proxy: proxy.set_delay("a", "b", 0.05))
        stats = proxy.stats[("a", "b")]
        assert (stats.forwarded, stats.dropped) == (BURST, 0)
        assert [index for index, _ in arrivals] == list(range(BURST))
        forwarded_at = [event.time for event in trace.events
                        if event.kind == "net_send"]
        assert len(forwarded_at) == BURST  # one record per frame, not per write
        for (_, arrived), forwarded in zip(arrivals, forwarded_at):
            assert arrived - forwarded >= 0.05

    run(scenario())


def test_lossy_burst_draws_once_per_frame_in_arrival_order():
    from repro.sim.random import RandomSource

    async def scenario():
        proxy, trace, arrivals = await burst_through_proxy(
            lambda proxy: proxy.set_loss("a", "b", 0.3))
        stats = proxy.stats[("a", "b")]
        assert stats.forwarded + stats.dropped == BURST
        assert stats.reasons == {"loss": stats.dropped}
        # The drop pattern is a pure function of the seed: the i-th frame
        # to arrive takes the i-th draw, however the reads were chunked.
        rng = RandomSource(PROXY_SEED).child("rt/proxy-loss")
        survivors = [i for i in range(BURST) if not rng.chance(0.3)]
        assert [index for index, _ in arrivals] == survivors
        assert 0 < stats.dropped < BURST
        assert trace.count("net_send") == stats.forwarded
        assert trace.count("net_drop") == stats.dropped
        assert stats.bytes_forwarded == sum(
            event.fields["bytes"] for event in trace.events
            if event.kind == "net_send")

    run(scenario())
