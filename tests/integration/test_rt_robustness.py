"""Robustness tests for the asyncio runtime: dead peers, garbage, state.

All waits are deadline-based (``wait_for``) rather than fixed sleeps.
"""

import asyncio
import gc
import struct

import pytest

from repro.core.delivery import GAPLESS
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.rt import LocalCluster
from repro.rt.cluster import bound_socket
from repro.rt.wire import WIRE_VERSION
from tests.helpers import resource_warnings_are_errors


def run(coro):
    return asyncio.run(coro)


def simple_app() -> App:
    op = Operator("L", on_window=lambda ctx, c: None)
    op.add_sensor("s1", GAPLESS, CountWindow(1))
    return App("app", op)


def two_node_cluster() -> LocalCluster:
    cluster = LocalCluster()
    cluster.add_process("a")
    cluster.add_process("b")
    cluster.add_push_sensor("s1", receivers=["a", "b"])
    cluster.deploy(simple_app())
    return cluster


async def write_raw(port: int, data: bytes) -> None:
    _reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    writer.close()


def test_sends_to_dead_peer_do_not_crash_the_sender():
    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            await cluster.quiesce(idle_for=0.2, timeout=5.0)
            await cluster.crash_process("b")
            # a keeps emitting into the void: frames are dropped, a lives.
            for _ in range(5):
                cluster.emit("s1", True)
            node = cluster.node("a")
            await cluster.wait_for(
                lambda: node.store.total_events() == 5, timeout=5.0
            )
            assert node.alive

    run(scenario())


def test_garbage_frames_are_dropped():
    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            node = cluster.node("a")
            # Correct header, garbage body (one payload key whose value
            # has an unknown tag): the node traces a wire error and drops
            # the connection without dying.
            body = b"\x00\x07\x01\x01k\x00\x00\x01x" + b"?"
            await write_raw(
                node.port,
                bytes([WIRE_VERSION]) + struct.pack(">I", len(body)) + body,
            )
            await cluster.wait_for(
                lambda: cluster.trace.count("wire_error") >= 1, timeout=5.0
            )
            # The node survived and still processes real traffic.
            cluster.emit("s1", True)
            await cluster.wait_for(
                lambda: node.store.total_events() == 1, timeout=5.0
            )

    run(scenario())


def test_wrong_version_frame_rejected():
    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            node = cluster.node("a")
            await write_raw(
                node.port,
                bytes([WIRE_VERSION + 1]) + struct.pack(">I", 2) + b"{}",
            )
            await cluster.wait_for(
                lambda: cluster.trace.count("wire_error") >= 1, timeout=5.0
            )
            assert node.alive

    run(scenario())


def test_oversized_frame_rejected():
    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            node = cluster.node("a")
            # Absurd length prefix: rejected at the header, never buffered.
            await write_raw(
                node.port, bytes([WIRE_VERSION]) + struct.pack(">I", 2**31)
            )
            await cluster.wait_for(
                lambda: cluster.trace.count("wire_error") >= 1, timeout=5.0
            )
            assert node.alive

    run(scenario())


def test_unknown_message_kind_traced():
    async def scenario():
        cluster = two_node_cluster()
        seen = []
        cluster.trace.subscribe(seen.append, kinds=("boot", "unhandled_message"))
        async with cluster:
            node = cluster.node("a")
            from repro.net.message import Message
            from repro.rt.wire import encode_message

            frame = encode_message(Message(kind="martian", src="x", dst="a",
                                           payload={}))
            await write_raw(node.port, frame)
            await cluster.wait_for(
                lambda: node.traced.count("unhandled_message") >= 1,
                timeout=5.0,
            )
        # The simulator's shapes (repro.sim.schema): one per kind.
        assert [e.fields for e in seen] == [
            {"process": "a", "incarnation": 0},
            {"process": "b", "incarnation": 0},
            {"process": "a", "kind": "martian", "src": "x"},
        ]

    run(scenario())


def test_replicated_store_over_tcp():
    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            cluster.node("a").kv.put("mode", "home")
            await cluster.wait_for(
                lambda: cluster.node("b").kv.get("mode") == "home",
                timeout=5.0,
            )

    run(scenario())


@pytest.mark.rt
def test_replicated_value_reads_back_identical_on_a_peer():
    """Int and None keys, tuples and a set survive the TCP hop: the peer's
    replica holds the value the writer wrote, types and all."""
    value = {1: "a", "1": "b", None: (1, 2), "s": {3, 4}, "l": [(5, "x")]}

    async def scenario():
        cluster = two_node_cluster()
        async with cluster:
            cluster.node("a").kv.put("mode", value)
            await cluster.wait_for(
                lambda: cluster.node("b").kv.get("mode") is not None, timeout=5.0,
            )
            replica = cluster.node("b").kv.get("mode")
            assert replica == {**value, "s": frozenset({3, 4})}
            assert list(map(type, replica)) == [int, str, type(None), str, str]
            assert type(replica[None]) is tuple and type(replica["l"][0]) is tuple
            assert type(replica["s"]) is frozenset

    run(scenario())


def test_bound_sockets_hold_distinct_ports():
    socks = [bound_socket() for _ in range(5)]
    try:
        ports = {sock.getsockname()[1] for sock in socks}
        assert len(ports) == 5  # held, so never handed out twice
        assert all(1024 < p < 65536 for p in ports)
    finally:
        for sock in socks:
            sock.close()


def test_stopped_proxied_cluster_leaves_no_socket_open():
    """start / emit / stop with ``ResourceWarning`` as an error: ``stop()``
    itself closes every connection the nodes and the proxy accepted (a
    handler still parked in ``read`` — or cancelled before its first step —
    would otherwise leave its socket to the garbage collector)."""
    def open_sockets() -> list:
        return [
            obj for obj in gc.get_objects()
            if isinstance(obj, asyncio.Transport)
            and (sock := obj.get_extra_info("socket")) is not None
            and sock.fileno() != -1
        ]

    async def scenario():
        cluster = LocalCluster(use_proxy=True)
        for name in ("a", "b", "c"):
            cluster.add_process(name)
        cluster.add_push_sensor("s1", receivers=["a"])
        cluster.deploy(simple_app())
        await cluster.start()
        cluster.emit("s1", True)
        await cluster.wait_for(
            lambda: all(node.store.total_events() == 1
                        for node in cluster.nodes.values()),
            timeout=5.0,
        )
        # A connection whose handler has not run yet when stop() arrives.
        _reader, late = await asyncio.open_connection(
            "127.0.0.1", cluster.node("c").port)
        await cluster.stop()
        late.close()
        await late.wait_closed()
        assert open_sockets() == []

    with resource_warnings_are_errors():
        run(scenario())


def test_cluster_stopped_while_its_first_dials_land_leaks_nothing(caplog):
    """Six start / stop cycles, stopped 5-30 ms after ``start()`` — while
    the first keep-alive dials (node -> proxy -> node) are landing — in
    asyncio's debug mode with ``ResourceWarning`` as an error. A listener
    closed while a peer's dial sits between the loop's accept and
    ``Server._attach`` trips that assertion ("Error on transport creation
    for incoming connection") and the accepted socket is left to the
    garbage collector; ``stop()`` halts every dialer before any listener
    it dials closes."""
    async def scenario():
        for cycle in range(6):
            cluster = LocalCluster(use_proxy=True, heartbeat_interval=0.05,
                                   failure_detection_s=0.2)
            for name in ("a", "b", "c"):
                cluster.add_process(name)
            cluster.add_push_sensor("s1", receivers=["a"])
            cluster.deploy(simple_app())
            await cluster.start()
            await asyncio.sleep(0.005 * (cycle + 1))
            await cluster.stop()

    with caplog.at_level("ERROR", logger="asyncio"), resource_warnings_are_errors():
        asyncio.run(scenario(), debug=True)
    assert [record.getMessage() for record in caplog.records] == []
