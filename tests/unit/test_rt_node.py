"""The asyncio node's zero-delay hand-offs, inbound sockets and sender
counters, each on a real event loop with a bare node (no cluster, no proxy).
"""

import asyncio

import pytest

from repro.core.scenario import rt_deployment
from repro.core.stack import RT_STACK
from repro.net.message import Message
from repro.rt.cluster import bound_socket
from repro.rt.node import AsyncRivuletNode
from repro.rt.wire import (
    FrameProtocol, PeerSender, SenderStats, close_accepted, decode_body, encode_message)
from tests.helpers import each_frame


async def started_node() -> tuple[AsyncRivuletNode, object]:
    """A started node ``hub`` whose one peer ``tv`` refuses every dial;
    also returns the socket holding tv's port (close it when done)."""
    refusing = bound_socket()  # bound, never listening
    listener = bound_socket()
    plan, device_info = rt_deployment(("hub", "tv"), {"s": ("hub",)}, {}, {}, [])
    node = AsyncRivuletNode(
        "hub", listener.getsockname()[1], {"tv": refusing.getsockname()[:2]},
        plan, device_info, RT_STACK)
    await node.start(listener)
    return node, refusing


async def until(predicate, timeout: float = 5.0) -> None:
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.005)


def probe(i: int) -> bytes:
    return encode_message(Message("probe", "tv", "hub", {"i": i}))


# -- zero-delay hand-offs ----------------------------------------------------------


@pytest.mark.parametrize("methods", [("schedule",), ("defer",), ("schedule", "defer")],
                         ids=["schedule", "defer", "mixed"])
def test_zero_delay_steps_run_in_fifo_order(methods):
    async def go():
        node, refusing = await started_node()
        ran = []
        try:
            for i in range(500):
                step = getattr(node, methods[i // 2 % len(methods)])
                step(0.0 if i % 2 else -1.0, ran.append, i)
            assert ran == []  # never inline
            await asyncio.sleep(0)
            return ran
        finally:
            await node.stop()
            refusing.close()

    assert asyncio.run(go()) == list(range(500))


def test_cancel_on_a_zero_delay_handle_skips_the_step():
    async def go():
        node, refusing = await started_node()
        ran, caught = [], []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: caught.append(context))
        try:
            handles = [node.schedule(0.0, ran.append, i) for i in range(6)]
            handles[0].cancel()
            handles[3].cancel()
            handles[3].cancel()  # twice is harmless
            await asyncio.sleep(0)
            handles[4].cancel()  # after it ran: a no-op
            await asyncio.sleep(0)
            return ran, caught
        finally:
            await node.stop()
            refusing.close()

    assert asyncio.run(go()) == ([1, 2, 4, 5], [])


@pytest.mark.parametrize("method", ["schedule", "defer"])
def test_halt_drops_queued_steps(method):
    async def go():
        node, refusing = await started_node()
        ran = []
        try:
            getattr(node, method)(0.0, ran.append, "queued")
            await node.halt()
            getattr(node, method)(0.0, ran.append, "after-halt")
            await asyncio.sleep(0.01)
            return ran, len(node._ready)
        finally:
            await node.close()
            refusing.close()

    assert asyncio.run(go()) == ([], 0)


def test_a_raising_step_reaches_the_loop_handler_and_the_rest_still_run():
    async def go():
        node, refusing = await started_node()
        caught, ran = [], []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: caught.append(context))

        def boom() -> None:
            raise RuntimeError("step failed")

        try:
            node.schedule(0.0, ran.append, "before")
            node.schedule(0.0, boom)
            node.schedule(0.0, ran.append, "after")
            await asyncio.sleep(0)
            node.schedule(0.0, ran.append, "next turn")
            await asyncio.sleep(0)
            return caught, ran
        finally:
            await node.stop()
            refusing.close()

    caught, ran = asyncio.run(go())
    assert ran == ["before", "after", "next turn"]
    assert [type(c["exception"]) for c in caught] == [RuntimeError]
    assert "hub" in caught[0]["message"]


def test_a_step_posted_by_a_step_waits_for_a_later_turn_and_io_runs_between():
    """A 200-step cascade, each step posting the next: a frame already in
    the node's socket is read within the first turns, not after the whole
    cascade (which one callback running every step it finds would do)."""
    async def go():
        node, refusing = await started_node()
        log = []
        node.register_handler("probe", lambda message: log.append("read"))
        _reader, writer = await asyncio.open_connection("127.0.0.1", node.port)

        def cascade(i: int) -> None:
            log.append(i)
            if i < 200:
                node.schedule(0.0, cascade, i + 1)

        try:
            writer.write(probe(0))  # connect, accept and read once
            await until(lambda: log == ["read"])
            log.clear()
            writer.write(probe(1))  # in the node's socket buffer now
            node.schedule(0.0, cascade, 0)
            await until(lambda: len(log) == 202)
            return log
        finally:
            writer.close()
            await node.stop()
            refusing.close()

    log = asyncio.run(go())
    assert [entry for entry in log if entry != "read"] == list(range(201))
    assert log.index("read") < 10


# -- batched writes -----------------------------------------------------------------


async def connected_node():
    """A started node ``hub`` without keep-alives whose peer ``tv`` is a
    listener collecting the ``i`` of every probe it reads, already dialled
    by one probe; returns ``(node, probes, close)``."""
    probes, inbound = [], set()

    def read(body: bytes) -> None:
        message = decode_body(body)
        if message.kind == "probe":
            probes.append(message["i"])

    server = await asyncio.get_running_loop().create_server(
        lambda: FrameProtocol(each_frame(read), inbound), "127.0.0.1", 0)
    listener = bound_socket()
    plan, device_info = rt_deployment(("hub", "tv"), {"s": ("hub",)}, {}, {}, [])
    node = AsyncRivuletNode("hub", listener.getsockname()[1],
                            {"tv": server.sockets[0].getsockname()[:2]},
                            plan, device_info, RT_STACK)
    await node.start(listener)
    node.heartbeat.stop()
    node.send("tv", "probe", i=-1)
    await until(lambda: probes == [-1])

    async def close() -> None:
        await node.stop()
        server.close()
        await close_accepted(inbound)
        await server.wait_closed()

    return node, probes, close


def test_the_frames_of_one_drain_leave_in_one_write():
    async def go():
        node, probes, close = await connected_node()
        stats = node.sender_stats()["tv"]
        try:
            before = (stats.frames, stats.writes)
            for i in range(5):
                node.schedule(0.0, lambda i=i: node.send("tv", "probe", i=i))
            await until(lambda: len(probes) == 6)
            return before, (stats.frames, stats.writes), probes
        finally:
            await close()

    before, after, order = asyncio.run(go())
    assert (after[0] - before[0], after[1] - before[1]) == (5, 1)
    assert order == list(range(-1, 5))


def test_a_send_leaves_on_the_next_turn():
    async def go():
        node, probes, close = await connected_node()
        stats = node.sender_stats()["tv"]
        try:
            node.send("tv", "probe", i=0)
            node.send("tv", "probe", i=1)
            same_turn = stats.writes
            await asyncio.sleep(0)
            next_turn = stats.writes
            await until(lambda: len(probes) == 3)
            return same_turn, next_turn
        finally:
            await close()

    same_turn, next_turn = asyncio.run(go())
    assert next_turn == same_turn + 1


# -- the inbound path ----------------------------------------------------------------


def test_a_node_halted_mid_chunk_dispatches_none_of_that_chunks_rest():
    async def go():
        node, refusing = await started_node()
        seen = []

        def on_probe(message: Message) -> None:
            seen.append(message["i"])
            if message["i"] == 1:
                node._alive = False  # what halt() does first, between two frames

        node.register_handler("probe", on_probe)
        reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
        try:
            writer.write(b"".join(probe(i) for i in range(5)))  # one chunk
            async with asyncio.timeout(5):
                assert await reader.read() == b""  # the node hung up
            return seen
        finally:
            writer.close()
            await node.stop()
            refusing.close()

    assert asyncio.run(go()) == [0, 1]


def test_stop_closes_accepted_connections_and_waits_for_connection_lost():
    async def go():
        node, refusing = await started_node()
        clients = [await asyncio.open_connection("127.0.0.1", node.port)
                   for _ in range(3)]
        await until(lambda: len(node._inbound) == 3)
        protocols = list(node._inbound)
        await node.stop()
        # Nothing awaited past stop(): every connection_lost already ran.
        closed = [p.closed.done() for p in protocols]
        sockets = [p.transport.get_extra_info("socket").fileno() for p in protocols]
        for reader, writer in clients:
            async with asyncio.timeout(5):
                assert await reader.read() == b""
            writer.close()
        refusing.close()
        return closed, sockets, node._inbound

    closed, sockets, inbound = asyncio.run(go())
    assert closed == [True] * 3
    assert sockets == [-1] * 3
    assert inbound == set()


# -- sender counters -----------------------------------------------------------------


def test_sender_counts_redials_lost_frames_and_peak_depth_at_a_refusing_peer():
    async def go():
        refusing = bound_socket()
        sender = PeerSender(refusing.getsockname()[:2])
        frame = probe(0)
        try:
            for _ in range(5):
                sender.put(0.0, frame)
            assert sender.stats == SenderStats()  # put counts nothing
            await until(lambda: sender.stats.dial_lost == 5)
            for _ in range(3):
                sender.put(0.0, frame)
            await until(lambda: sender.stats.dial_lost == 8)
            return sender.stats
        finally:
            await sender.close()
            refusing.close()

    assert asyncio.run(go()) == SenderStats(redials=1, dial_lost=8, peak_queue=5)


def test_sender_backs_off_between_dials_to_a_dead_peer(monkeypatch):
    """Frames due every 10 ms for 1 s at a refusing peer: the retry delay
    (50 ms, doubling) allows dials at 0, 0.05, 0.15, 0.35 and 0.75 s, not
    one per frame, and a frame due meanwhile waits for the next dial."""
    real_open = asyncio.open_connection
    dials = []

    async def counted_open(*args, **kwargs):
        dials.append(args)
        return await real_open(*args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", counted_open)

    async def go():
        refusing = bound_socket()
        sender = PeerSender(refusing.getsockname()[:2])
        loop = asyncio.get_running_loop()
        put = 0
        try:
            end = loop.time() + 1.0
            while loop.time() < end:
                sender.put(loop.time(), probe(put))
                put += 1
                await asyncio.sleep(0.01)
            return len(dials), put, sender.stats
        finally:
            await sender.close()
            refusing.close()

    dialled, put, stats = asyncio.run(go())
    assert 2 <= dialled <= 6
    assert stats.redials == dialled - 1
    assert stats.frames == 0 and 0 < stats.dial_lost <= put


def test_node_reports_its_senders_stats_per_peer():
    async def go():
        node, refusing = await started_node()
        try:
            node.send("tv", "probe", i=0)
            await until(lambda: node.sender_stats()["tv"].dial_lost >= 1)
            return node.sender_stats()
        finally:
            await node.stop()
            refusing.close()

    stats = asyncio.run(go())
    assert list(stats) == ["tv"]
    assert stats["tv"].peak_queue >= 1
