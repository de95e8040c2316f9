"""Microbenchmarks of the platform's hot paths.

Unlike the figure benchmarks (one timed simulation each), these use
pytest-benchmark's statistical timing: they are the operations the
simulator and the asyncio runtime execute millions of times.
"""

import asyncio
import random

from repro.core.events import Event
from repro.core.intervals import IntervalSet
from repro.core.marzullo import Interval, fuse
from repro.net.message import Message
from repro.net.wire import ProcessIdSet, wire_size
from repro.rt.wire import (
    decode_body, encode_message, frame_kind, read_frames, split_frame,
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


def test_wire_size_computation(benchmark):
    event = Event(sensor_id="s", seq=1, emitted_at=0.0, value=0, size_bytes=4)
    ids = ProcessIdSet({f"p{i}" for i in range(5)})
    message = Message(kind="gapless_fwd", src="a", dst="b",
                      payload={"sensor": "s", "event": event, "S": ids, "V": ids})
    size = benchmark(wire_size, message)
    assert size > 100


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
    """1 000 frames out of one in-memory stream, read in 64 KB chunks."""
    frame = encode_message(_gapless_message())
    stream = frame * 1000

    async def split() -> int:
        reader = asyncio.StreamReader(limit=len(stream))
        reader.feed_data(stream)
        reader.feed_eof()
        count = 0
        async for _body in read_frames(reader):
            count += 1
        return count

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
