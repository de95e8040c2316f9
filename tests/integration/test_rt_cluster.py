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
            await cluster.crash_process("tv")
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
            polls.append(cluster.now())
            respond(Event(sensor_id=sensor, seq=len(polls),
                          emitted_at=polls[-1], value=21.5, size_bytes=4))

        deliveries = []
        op = Operator("Mon", on_window=lambda ctx, c: deliveries.extend(
            c.all_values()))
        # The span is two epochs: on the run clock the window's ticks and
        # the poll epochs both start at t=0, so a one-epoch span would age
        # out each reading delivered just after the tick it was polled before.
        op.add_sensor("temp1", GAPLESS, TimeWindow(1.0),
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
            await cluster.wait_for(
                lambda: len(polls) >= 3 and len(deliveries) >= 1,
                timeout=8.0,
            )
            elapsed = cluster.now()
            # Coordinated polling: roughly one poll per 0.5 s epoch, not
            # one per process per epoch.
            assert len(polls) <= 4 + 2 * elapsed / 0.5
            issued = list(cluster.trace.of_kind("poll_issued"))
        assert deliveries and all(v == 21.5 for v in deliveries)
        # Readings are stamped on the nodes' run clock, so a node whose
        # peer's reading already covers the epoch (by more than a delivery's
        # slack) never polls in it.
        assert all(0.0 <= at <= elapsed for at in polls)
        for poll in issued:
            assert not any(int(at // 0.5) == poll["epoch"] and at < poll.time - 0.15
                           for at in polls), (poll, polls)

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
            await cluster.crash_process("hub")
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
            await cluster.crash_process("tv")
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


def test_run_record_is_a_live_run_relative_view_of_the_oracle_kinds():
    """The record wraps ``cluster.trace`` itself, stamped on the run clock.

    The trace keeps the oracle kinds only: the proxy's per-frame
    ``net_send`` records are counted (and tallied per message kind) but
    not stored, so a long run holds a few records per event.
    """
    from repro.core.invariants import check_all

    events = 200

    async def scenario():
        loop = asyncio.get_running_loop()
        started = loop.time()
        cluster = make_cluster(use_proxy=True)
        async with cluster:
            await converged(cluster)
            hub = cluster.node("hub")
            for batch in range(events // 20):
                for _ in range(20):
                    cluster.emit("door1", True)
                await cluster.wait_for(
                    lambda: len(hub.actuations) >= 20 * (batch + 1), timeout=10.0)
            assert await cluster.quiesce(timeout=10.0)
            record = cluster.run_record()
            elapsed = loop.time() - started
            forwarded = sum(s.forwarded for s in cluster.proxy.stats.values())
        return cluster, record, elapsed, forwarded

    cluster, record, elapsed, forwarded = run(scenario())
    trace = record.trace
    assert trace is cluster.trace
    assert all(0.0 <= event.time <= elapsed for event in trace.events)
    assert all(0.0 <= at <= elapsed for _, _, at in record.actuations)
    deliveries = trace.of_kind("logic_delivery")
    assert len(deliveries) >= events
    for event in deliveries:
        assert 0.0 <= event["emitted_at"] <= event.time
        assert event["delay"] == pytest.approx(event.time - event["emitted_at"], abs=1e-3)
    assert len(trace.events) <= 7.5 * events
    assert len(trace.of_kind("net_send")) == 0
    assert trace.count("net_send") == forwarded > 0
    assert check_all(record) == []
