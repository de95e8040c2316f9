"""Microbenchmarks of the platform's hot paths.

Unlike the figure benchmarks (one timed simulation each), these use
pytest-benchmark's statistical timing: they are the operations the
simulator and the asyncio runtime execute millions of times.
"""

import asyncio
import itertools
import random

from repro.core.delivery import GAPLESS
from repro.core.events import Event
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.intervals import IntervalSet
from repro.core.marzullo import Interval, fuse
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.devices.sensor import PushSensor
from repro.eval.workloads import single_sensor_home
from repro.net.message import Message
from repro.net.wire import ProcessIdSet, wire_size
from repro.rt.wire import (
    FrameProtocol, decode_body, encode_message, frame_kind, split_frame,
)
from repro.sim.scheduler import Scheduler


def test_scheduler_throughput(benchmark):
    def run():
        scheduler = Scheduler()

        def chain(n):
            if n:
                scheduler.call_later(0.001, chain, n - 1)

        for lane in range(20):
            scheduler.call_later(lane * 0.0001, chain, 500)
        scheduler.run()
        return scheduler.processed_events

    processed = benchmark(run)
    assert processed == 20 * 501


def test_cancellable_timer_churn(benchmark):
    """ns per cancellable timer: ``call_later`` a thousand timers, cancel
    every other one (the answered timeouts) and let the rest fire — the
    pattern of every ``RuntimeEnv.schedule`` in the simulator."""
    scheduler = Scheduler()
    timers = 1_000

    def run():
        start = scheduler.now
        handles = [scheduler.call_later(0.001 * (i + 1), int) for i in range(timers)]
        for handle in handles[::2]:
            handle.cancel()
        scheduler.run_until(start + 0.001 * (timers + 1))

    benchmark(run)
    assert scheduler.pending_events == 0
    assert scheduler.processed_events % (timers // 2) == 0
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_timer"] = round(
            benchmark.stats.stats.mean * 1e9 / timers
        )


def test_post_drain(benchmark):
    """ns per fire-and-forget post: ``post_at`` ten thousand jittered
    instants (nearly every one alone, as a keep-alive or delivery copy is)
    and drain them with ``run_until`` — the scheduler's per-post floor."""
    scheduler = Scheduler()
    posts = 10_000
    jitter = random.Random(7)

    def run():
        start = scheduler.now
        post_at = scheduler.post_at
        for i in range(posts):
            post_at(start + 0.001 * (i + jitter.random()), int)
        scheduler.run_until(start + 0.001 * (posts + 1))

    benchmark(run)
    assert scheduler.pending_events == 0
    assert scheduler.processed_events % posts == 0
    _ns_per_event(benchmark, posts)


def test_wire_size_computation(benchmark):
    event = Event(sensor_id="s", seq=1, emitted_at=0.0, value=0, size_bytes=4)
    ids = ProcessIdSet({f"p{i}" for i in range(5)})
    message = Message(kind="gapless_fwd", src="a", dst="b",
                      payload={"sensor": "s", "event": event, "S": ids, "V": ids})
    size = benchmark(wire_size, message)
    assert size > 100


def _gossiping_home() -> Home:
    """An idle 4-process home whose one Gapless app has processed events:
    the watermark piggyback is present on every keep-alive."""
    home = Home(HomeConfig(seed=7, heartbeat_interval=0.5, keep_trace_kinds=set()))
    for i in range(4):
        home.add_process(f"p{i}", adapters=("ip",))
    home.add_sensor("s1", kind="door", technology="ip",
                    processes=["p0", "p1", "p2", "p3"])
    op = Operator("L", on_window=lambda ctx, combined: None)
    op.add_sensor("s1", GAPLESS, CountWindow(1))
    home.deploy(App("app", op))
    home.start()
    for second in range(1, 6):
        home.scheduler.call_at(float(second), home.sensor("s1").emit, True)
    home.run_until(10.0)
    assert any(p.heartbeat._payload for p in home.processes.values())
    return home


def _ns_per_tick(benchmark, home: Home) -> None:
    """Time 50 s of the home: 100 ticks (send to 3 peers, 3 deliveries) in
    each of the 4 processes."""
    benchmark(lambda: home.run_until(home.scheduler.now + 50.0))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_tick"] = round(
            benchmark.stats.stats.mean * 1e9 / (4 * 100)
        )


def test_keepalive_tick_with_unchanged_piggyback(benchmark):
    """The piggyback never changes: every tick rides the multicast plan as
    it stands."""
    home = _gossiping_home()
    builds = home.stats()["payload_builds"]
    _ns_per_tick(benchmark, home)
    assert home.stats()["payload_builds"] == builds
    assert home.stats()["lane_refusals"] == {"partition": 0, "subscriber": 0, "kept": 0}


def test_keepalive_tick_with_changing_piggyback(benchmark):
    """A second provider hands back a new object every tick (the
    ``paper_protocols`` case: 10 ev/s against 0.5 s heartbeats), so every
    tick assembles, registers and re-payloads before it sends. Must not
    cost more than a per-message tick (docs/performance.md)."""
    home = _gossiping_home()
    serial = itertools.count()
    for process in home.processes.values():
        process.heartbeat.add_payload_provider("n", lambda: {"n": next(serial)})
    builds, repayloads = home.stats()["payload_builds"], home.stats()["plan_repayloads"]
    _ns_per_tick(benchmark, home)
    grown = home.stats()["payload_builds"] - builds
    assert grown >= 4 * 100 and home.stats()["plan_repayloads"] - repayloads == grown
    assert home.stats()["plan_builds"] == 4


def _ring_home() -> tuple[Home, PushSensor]:
    """p0..p4 on aggregate-only traces, one Gapless no-op app pinned to p0
    (one active logic node, four shadows), the sensor heard by p1 only."""
    home, sensor = single_sensor_home(
        n_processes=5, receiving=["p1"], seed=7, keep_trace_kinds=set()
    )
    home.run_until(1.0)
    return home, sensor


def _ns_per_event(benchmark, events: int) -> None:
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_event"] = round(
            benchmark.stats.stats.mean * 1e9 / events
        )


def test_gapless_ring_hop(benchmark):
    """ns per event around the whole 5-process ring (ingest at p1, five
    forwards until it is back at p1, five local deliveries, one logic
    delivery at p0), heartbeats included: each hop reads the view, its
    successor and the routes."""
    home, sensor = _ring_home()
    builds = sum(p.heartbeat.view_builds for p in home.processes.values())
    events = 200

    def run():
        start = home.scheduler.now
        for i in range(events):
            home.scheduler.call_at(start + 0.01 * (i + 1), sensor.emit, True)
        home.run_until(start + 0.01 * events + 0.5)

    benchmark(run)
    assert home.trace.tally("net_send", "gapless_fwd")[0] == 5 * sensor.events_emitted
    assert home.trace.count("logic_delivery") == sensor.events_emitted
    assert sum(p.heartbeat.view_builds for p in home.processes.values()) == builds
    _ns_per_event(benchmark, events)


def test_execution_fanout_to_shadows(benchmark):
    """ns per ``ExecutionService.on_event`` on a shadow: the call every
    process but the app-bearing one makes for every event it delivers
    locally (four of five in the ring above)."""
    home, _sensor = _ring_home()
    shadow = home.processes["p3"].execution
    assert not shadow.runtimes["app"].active
    events = [Event(sensor_id="s1", seq=seq, emitted_at=1.0, value=True, size_bytes=4)
              for seq in range(1, 1001)]

    def run():
        on_event = shadow.on_event
        for event in events:
            on_event("s1", event)

    benchmark(run)
    assert home.trace.count("logic_delivery") == 0
    assert shadow.route_builds == 1
    _ns_per_event(benchmark, len(events))


def _gapless_message() -> Message:
    event = Event(sensor_id="door", seq=7, emitted_at=1.25, value=True,
                  size_bytes=4, epoch=3)
    return Message(kind="gapless_fwd", src="a", dst="b",
                   payload={"sensor": "door", "event": event,
                            "S": ProcessIdSet({"a"}),
                            "V": ProcessIdSet({"a", "b", "c"})})


def test_rt_frame_roundtrip(benchmark):
    message = _gapless_message()

    def roundtrip():
        frame = encode_message(message)
        return decode_body(split_frame(frame)[1])

    decoded = benchmark(roundtrip)
    assert decoded["event"] == message["event"]


def test_rt_frame_splitter(benchmark):
    """1 000 frames out of one in-memory stream, fed in 64 KB chunks."""
    frame = encode_message(_gapless_message())
    stream = frame * 1000
    chunks = [stream[i:i + (64 << 10)] for i in range(0, len(stream), 64 << 10)]

    async def split() -> int:
        frames: list[int] = []  # each chunk's complete frames, as deliver gets them
        protocol = FrameProtocol(lambda data, ends: frames.append(len(ends)), set())
        protocol.connection_made(None)
        for chunk in chunks:
            protocol.data_received(chunk)
        return sum(frames)

    assert benchmark(lambda: asyncio.run(split())) == 1000


def test_rt_frame_kind(benchmark):
    frame = encode_message(_gapless_message())
    assert benchmark(frame_kind, frame) == "gapless_fwd"


def test_interval_set_dense_inserts(benchmark):
    rng = random.Random(7)
    values = [rng.randint(0, 5000) for _ in range(2000)]

    def run():
        interval_set = IntervalSet()
        for value in values:
            interval_set.add(value)
        return len(interval_set.ranges())

    ranges = benchmark(run)
    assert ranges >= 1


def test_marzullo_fusion(benchmark):
    rng = random.Random(3)
    intervals = [Interval.around(21.0 + rng.gauss(0, 0.3), 0.5)
                 for _ in range(20)]
    fused = benchmark(fuse, intervals, 6)
    assert fused.contains(21.0) or fused.width >= 0
