"""The fault proxy's chunk path against a per-frame reference model.

:meth:`repro.rt.proxy.FaultProxy._receive` judges each chunk a pair's
listener reads in one pass and forwards what survives as one write. The
model here is the per-frame rule it replaces: split the whole stream into
frames, then for each in stream order drop it (blocked or partitioned
pair), draw once for loss (when the pair's loss is above 0), or forward it,
recording ``net_drop`` / ``net_send`` one frame at a time. However the
stream is cut into chunks (inside a header too), the two must forward the
same bytes in the same order and agree on ``PairStats``, every count,
tally, byte sum and pair cell, and the number of loss draws.
"""

import asyncio
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.net.message import Message
from repro.net.wire import ProcessIdSet
from repro.rt import wire
from repro.rt.proxy import FaultProxy, PairStats
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace
from tests.helpers import _HeldTransport

SEED = 11
NAMES = wire.Names(("door", "a", "b"), ("a", "b"))

#: Shape-0 frames of three kinds and sizes, and two shaped Gapless forwards.
FRAMES = [
    wire.encode_message(Message("keepalive", "a", "b", {})),
    wire.encode_message(Message("sync", "a", "b", {"blob": "x" * 300})),
    wire.encode_message(Message("probe", "a", "b", {"i": 7})),
    *(wire.encode_message(Message("gapless_fwd", "a", "b", {
        "sensor": "door", "event": Event("door", seq, 1.5, True, 4),
        "S": ProcessIdSet({"a"}), "V": ProcessIdSet({"a", "b"})}), NAMES)
      for seq in (1, 2**40)),
]

POLICIES = st.one_of(
    st.just(("clear", 0.0)),
    st.tuples(st.just("loss"), st.sampled_from([0.3, 0.7, 1.0])),
    st.tuples(st.just("delay"), st.sampled_from([0.05, 2.0])),
    st.just(("blocked", 0.0)),
    st.just(("partition", 0.0)),
)


class _Sink:
    """Stands in for the pair's PeerSender: what the proxy hands over."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.data: list[bytes] = []
        self.frames = 0
        self.lags: list[float] = []

    def hold(self, due: float, data: bytes, frames: int = 1) -> bool:
        self.data.append(data)
        self.frames += frames
        self.lags.append(due - self._loop.time())
        return True

    def flush(self) -> None:
        pass


class _CountedDraws:
    """The proxy's loss stream, counting its draws."""

    def __init__(self, rng: RandomSource) -> None:
        self._rng = rng
        self.draws = 0

    def chance(self, p: float) -> bool:
        self.draws += 1
        return self._rng.chance(p)


def _configure(proxy: FaultProxy, policy: tuple[str, float]) -> None:
    name, value = policy
    if name == "loss":
        proxy.set_loss("a", "b", value)
    elif name == "delay":
        proxy.set_delay("a", "b", value)
    elif name == "blocked":
        proxy.block("a", "b")
    elif name == "partition":
        proxy.set_partition([["a"], ["b"]])


def _reference(frames: list[bytes], policy: tuple[str, float], trace: Trace):
    """The per-frame rule: ``(forwarded bytes, PairStats, loss draws)``."""
    rng = RandomSource(SEED).child("rt/proxy-loss")
    stats, out, draws = PairStats(), [], 0
    name, value = policy
    for frame in frames:
        kind = wire.frame_kind(frame) or "?"
        reason = "partition" if name in ("blocked", "partition") else None
        if reason is None and name == "loss":
            draws += 1
            reason = "loss" if rng.chance(value) else None
        if reason is None:
            stats.forwarded += 1
            stats.bytes_forwarded += len(frame)
            trace.record_message(0.0, "net_send", "a", "b", kind, len(frame))
            out.append(frame)
        else:
            stats.dropped += 1
            stats.reasons[reason] = stats.reasons.get(reason, 0) + 1
            trace.record_message(0.0, "net_drop", "a", "b", kind, reason=reason)
    return b"".join(out), stats, draws


def _aggregates(trace: Trace) -> dict:
    return {
        kind: (trace.count(kind), trace.bytes_of_kind(kind),
               {sub: trace.tally(kind, sub) for sub in sorted(trace.sub_kinds(kind))},
               trace.pair_counts(kind),
               [(e["kind"], e.get("bytes"), e.get("reason")) for e in trace.of_kind(kind)])
        for kind in ("net_send", "net_drop")
    }


def _chunks(stream: bytes, cuts: list[int]) -> list[bytes]:
    edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
    return [stream[i:j] for i, j in zip(edges, edges[1:])]


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(FRAMES) - 1), min_size=1, max_size=24),
    cuts=st.lists(st.integers(0, 1 << 16), max_size=12),
    policy=POLICIES,
    keep=st.sampled_from(["counted", "kept", "hashed"]),
)
def test_chunk_path_matches_the_per_frame_model(picks, cuts, policy, keep):
    frames = [FRAMES[i] for i in picks]
    stream = b"".join(frames)

    def new_trace() -> Trace:
        if keep == "kept":
            return Trace(keep_kinds={"net_send", "net_drop"})
        return Trace(keep_kinds=set(), digest=keep == "hashed")

    async def through_proxy():
        loop = asyncio.get_running_loop()
        # One fixed instant: the proxy stamps a frame due at now + delay and
        # the sink reads the same now, so each lag is the delay exactly.
        loop.time = lambda: 0.0
        trace = new_trace()
        proxy = FaultProxy(["a", "b"], {}, seed=SEED, trace=trace)
        proxy._loop = loop
        _configure(proxy, policy)
        proxy._rng = rng = _CountedDraws(proxy._rng)
        link = proxy._links[("a", "b")]
        link.sender = sink = _Sink(loop)
        protocol = wire.FrameProtocol(functools.partial(proxy._receive, link), set())
        protocol.connection_made(_HeldTransport())
        for chunk in _chunks(stream, cuts):
            protocol.data_received(chunk)
        protocol.connection_lost(None)
        del loop.time
        return proxy.stats[("a", "b")], sink, trace, rng.draws

    stats, sink, trace, draws = asyncio.run(through_proxy())
    expected_trace = new_trace()
    expected, expected_stats, expected_draws = _reference(frames, policy, expected_trace)

    assert b"".join(sink.data) == expected
    assert sink.frames == expected_stats.forwarded
    assert stats == expected_stats
    assert draws == expected_draws
    assert _aggregates(trace) == _aggregates(expected_trace)
    delay = policy[1] if policy[0] == "delay" else 0.0
    assert sink.lags == [delay] * len(sink.lags)
