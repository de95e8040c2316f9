"""Integration tests for the asyncio TCP runtime (real localhost sockets).

Waits are deadline-based (``wait_for`` / ``quiesce``), never fixed sleeps:
each test polls for the condition it actually needs and fails loudly on a
generous timeout instead of flaking on a slow CI box.
"""

import asyncio

import pytest

from repro.core.delivery import GAPLESS, PollingPolicy, PollMode
from repro.core.events import Event
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.windows import CountWindow, TimeWindow
from repro.rt import LocalCluster


def run(coro):
    return asyncio.run(coro)


async def converged(cluster: LocalCluster) -> None:
    """Wait until every live node's membership view covers the live set."""
    live = {name for name, node in cluster.nodes.items() if node.alive}

    def views_full():
        return all(
            set(node.heartbeat.view.members) >= live
            for name, node in cluster.nodes.items()
            if node.alive
        )

    await cluster.wait_for(views_full, timeout=5.0)


def door_light_app() -> App:
    op = Operator(
        "TL",
        on_window=lambda ctx, c: ctx.actuate("light1", "set",
                                             bool(c.all_values()[-1])),
    )
    op.add_sensor("door1", GAPLESS, CountWindow(1))
    op.add_actuator("light1", GAPLESS)
    return App("door-light", op)


def make_cluster(**kwargs) -> LocalCluster:
    cluster = LocalCluster(**kwargs)
    for name in ("hub", "tv", "fridge"):
        cluster.add_process(name)
    cluster.add_push_sensor("door1", receivers=["tv", "fridge"])
    cluster.add_actuator("light1", hosts=["hub"])
    cluster.deploy(door_light_app())
    return cluster


def test_event_to_actuation_over_tcp():
    async def scenario():
        cluster = make_cluster()
        async with cluster:
            await converged(cluster)
            cluster.emit("door1", True)
            hub = cluster.node("hub")
            await cluster.wait_for(lambda: hub.actuations,
                                   timeout=5.0)
            assert hub.actuations[0].value is True

    run(scenario())


def test_event_journaled_on_every_node():
    async def scenario():
        cluster = make_cluster()
        async with cluster:
            await converged(cluster)
            for _ in range(5):
                cluster.emit("door1", True)
            await cluster.wait_for(
                lambda: all(node.store.total_events() == 5
                            for node in cluster.nodes.values()),
                timeout=5.0,
            )

    run(scenario())


def test_failover_over_tcp():
    async def scenario():
        cluster = make_cluster()
        async with cluster:
            await converged(cluster)
            active = [n for n, node in cluster.nodes.items()
                      if node.execution.runtimes["door-light"].active]
            assert active == ["tv"]  # tv hosts the sensor: placement winner
            await cluster.crash("tv")
            # Survivors must detect the death (bounded by detection time),
            # then a new active must take over and route the next command.
            await cluster.wait_for(
                lambda: all("tv" not in node.heartbeat.view.members
                            for node in cluster.nodes.values() if node.alive),
                timeout=5.0,
            )
            cluster.emit("door1", False)
            hub = cluster.node("hub")
            await cluster.wait_for(
                lambda: any(c.issued_by != "door-light@tv"
                            for c in hub.actuations),
                timeout=5.0,
            )

    run(scenario())


def test_poll_based_sensor_over_tcp():
    async def scenario():
        polls = []

        def thermometer(sensor: str, respond):
            polls.append(sensor)
            respond(Event(sensor_id=sensor, seq=len(polls),
                          emitted_at=asyncio.get_event_loop().time(),
                          value=21.5, size_bytes=4))

        deliveries = []
        op = Operator("Mon", on_window=lambda ctx, c: deliveries.extend(
            c.all_values()))
        op.add_sensor("temp1", GAPLESS, TimeWindow(0.5),
                      polling=PollingPolicy(epoch_s=0.5,
                                            mode=PollMode.COORDINATED))
        app = App("monitor", op)

        cluster = LocalCluster()
        for name in ("hub", "tv"):
            cluster.add_process(name)
        cluster.add_poll_sensor("temp1", thermometer, service_time=0.05,
                                default_epoch=0.5)
        cluster.deploy(app)
        async with cluster:
            started = asyncio.get_event_loop().time()
            await cluster.wait_for(
                lambda: len(polls) >= 3 and len(deliveries) >= 1,
                timeout=8.0,
            )
            elapsed = asyncio.get_event_loop().time() - started
            # Coordinated polling: roughly one poll per 0.5 s epoch, not
            # one per process per epoch.
            assert len(polls) <= 4 + 2 * elapsed / 0.5
        assert deliveries and all(v == 21.5 for v in deliveries)

    run(scenario())


def test_cluster_validates_deployment():
    async def scenario():
        cluster = LocalCluster()
        cluster.add_process("hub")
        cluster.deploy(door_light_app())  # needs door1/light1: undeclared
        with pytest.raises(ValueError):
            await cluster.start()
        await cluster.stop()

    run(scenario())


def test_zero_delay_callbacks_are_fifo_cancellable_and_die_with_the_node():
    async def scenario():
        ran: list[str] = []
        cluster = make_cluster()
        async with cluster:
            node = cluster.node("hub")
            node.schedule(0.0, ran.append, "A")
            node.schedule(0.0, ran.append, "skipped").cancel()
            node.schedule(0.0, ran.append, "B")
            node.schedule(-1.0, ran.append, "C")  # a past deadline is "now"
            node.schedule(0.01, ran.append, "later")
            assert ran == []  # never run inline, whatever the delay
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert ran == ["A", "B", "C"]
            await cluster.wait_for(lambda: ran[-1] == "later", timeout=2.0)
            node.schedule(0.0, ran.append, "after-stop")
            node.schedule(0.01, ran.append, "after-stop")
            await cluster.crash("hub")
            await asyncio.sleep(0.05)
            assert ran == ["A", "B", "C", "later"]

    run(scenario())


def test_crash_closes_the_listener_the_cluster_reserved():
    async def scenario():
        cluster = make_cluster(use_proxy=True)
        async with cluster:
            port = cluster.node("tv").port
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await cluster.crash("tv")
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

    run(scenario())


def test_fifty_proxied_clusters_start_and_stop_without_a_port_clash(monkeypatch):
    """Node ports stay bound from the moment they are chosen.

    They used to be picked with a bind-and-release probe and bound again
    only after the proxy had opened its six ephemeral listeners, one of
    which now and then was the very port just released (EADDRINUSE about
    once in a thousand starts). So besides starting fifty clusters, check
    the mechanism: when the proxy starts, nobody can bind a node's port.
    """
    import socket

    from repro.rt.proxy import FaultProxy

    proxy_start = FaultProxy.start
    taken = []

    async def start_after_probing(proxy):
        for address in proxy._targets.values():
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                with pytest.raises(OSError):
                    probe.bind(address)
                taken.append(address)
        await proxy_start(proxy)

    monkeypatch.setattr(FaultProxy, "start", start_after_probing)

    async def scenario():
        for _ in range(50):
            cluster = make_cluster(use_proxy=True)
            await cluster.start()
            assert len({node.port for node in cluster.nodes.values()}) == 3
            await cluster.stop()

    run(scenario())
    assert len(taken) == 150
