"""A TCP fault-injection proxy for the asyncio runtime.

Real networks fail between sockets, not inside them. The proxy sits on the
wire between every ordered pair of Rivulet processes and applies per-pair
fault policy to genuine TCP traffic — the rt analogue of the simulator's
lossy/partitionable transport:

- **loss**: each frame is independently dropped with probability ``p``
  (seeded, reproducible),
- **delay**: frames are forwarded after a fixed extra latency, order
  preserved per connection,
- **partition**: frames crossing partition groups are swallowed while the
  TCP connections stay up — exactly how a dead WiFi router looks to the
  endpoints (silence, not resets). :class:`repro.net.partition.PartitionState`
  supplies the group semantics, so sim and rt agree on who can talk.

Topology: one listener per *directed* pair ``(src, dst)``. A plain proxy
cannot know who connected to it, so each source process gets its own
private ingress port per destination; the per-pair listener is what makes
per-peer fault policy possible. Each chunk read on a pair's listener
(:class:`repro.rt.wire.FrameProtocol`) is judged in one pass over its
complete frames: every frame is dropped (blocked or partitioned pair),
drawn for loss (one seeded draw per frame, in stream order) or forwarded.
What is forwarded leaves as one write through the pair's one
:class:`repro.rt.wire.PeerSender`, whichever connection carried it in: in
the same loop turn when nothing waits ahead of it, ``delay_s`` later (or
behind what waits) otherwise.

The proxy is also the rt runtime's network observer: every forwarded frame
counts as a ``net_send`` trace record (src/dst/kind/bytes; the kind is
:func:`repro.rt.wire.frame_kind`, one byte for a shaped frame, so the proxy
needs no names table) and every swallowed frame as ``net_drop``, giving
:mod:`repro.eval.metrics` the same overhead counters it reads off simulated
runs. Both go through the pair's :class:`repro.sim.tracing.MessageChannel`:
``net_send``'s count, tallies, byte sum and pair cell are bumped once per
chunk (drops, a fault path, are recorded frame by frame), and a record per
frame is written only while the kind is kept or subscribed to, or the
trace hashes. Records are stamped with the chunk's absolute ``loop.time()``: an rt
harness's trace counts these kinds but never keeps a record of them, so
their times are never read.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from repro.net.partition import PartitionState
from repro.rt import wire
from repro.sim.random import RandomSource
from repro.sim.tracing import MessageChannel, Trace


@dataclass
class PairPolicy:
    """Fault policy for one directed peer pair."""

    loss: float = 0.0
    delay_s: float = 0.0
    blocked: bool = False


@dataclass
class PairStats:
    """Observed traffic for one directed peer pair."""

    forwarded: int = 0
    dropped: int = 0
    bytes_forwarded: int = 0
    reasons: dict[str, int] = field(default_factory=dict)


class _Link:
    """One directed pair's policy, counters and sender, and its ``net_send``
    / ``net_drop`` channels once opened, with a ``net_send`` tally cell
    bound per frame kind."""

    def __init__(self, src: str, dst: str) -> None:
        self.src, self.dst = src, dst
        self.policy, self.stats = PairPolicy(), PairStats()
        self.sender: wire.PeerSender | None = None
        self.send: MessageChannel | None = None
        self.drop: MessageChannel | None = None
        self.tallies: dict[str, list[int]] = {}
        self.state = self.pair_cell = None

    def tally(self, kind: str) -> list[int]:
        self.state, tally, self.pair_cell, _suffix = self.send.bind(kind)
        self.tallies[kind] = tally
        return tally


class FaultProxy:
    """Per-pair TCP shim between every ordered pair of processes."""

    def __init__(
        self,
        processes: Sequence[str],
        targets: dict[str, tuple[str, int]],
        *,
        seed: int = 42,
        trace: Trace | None = None,
    ) -> None:
        self._processes = list(processes)
        self._targets = dict(targets)
        self._trace = trace if trace is not None else Trace(keep_kinds=set())
        self._rng = RandomSource(seed).child("rt/proxy-loss")
        self._partition = PartitionState()
        self._links = {(src, dst): _Link(src, dst)
                       for src in self._processes for dst in self._processes if src != dst}
        self.stats: dict[tuple[str, str], PairStats] = {
            pair: link.stats for pair, link in self._links.items()}
        self._ports: dict[tuple[str, str], int] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._inbound: set[wire.FrameProtocol] = set()
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for pair, link in self._links.items():
            link.sender = wire.PeerSender(self._targets[link.dst])
            receive = functools.partial(self._receive, link)
            server = await self._loop.create_server(
                functools.partial(wire.FrameProtocol, receive, self._inbound),
                "127.0.0.1", 0,
            )
            self._servers.append(server)
            self._ports[pair] = server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        await wire.close_accepted(self._inbound)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        await asyncio.gather(*(link.sender.close() for link in self._links.values()
                               if link.sender is not None))

    def address_map_for(self, src: str) -> dict[str, tuple[str, int]]:
        """The peer-address map process ``src`` should dial through."""
        return {
            dst: ("127.0.0.1", self._ports[(src, dst)])
            for dst in self._processes
            if dst != src
        }

    def sender_stats(self) -> dict[tuple[str, str], wire.SenderStats]:
        """Each pair's :class:`repro.rt.wire.SenderStats` (while started)."""
        return {pair: link.sender.stats for pair, link in self._links.items()
                if link.sender is not None}

    # -- fault policy -------------------------------------------------------------

    def set_loss(self, src: str, dst: str, loss: float, *, symmetric: bool = False) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss rate must be within [0, 1], got {loss}")
        self._pair(src, dst).loss = loss
        if symmetric:
            self._pair(dst, src).loss = loss

    def set_delay(self, src: str, dst: str, delay_s: float, *, symmetric: bool = False) -> None:
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        self._pair(src, dst).delay_s = delay_s
        if symmetric:
            self._pair(dst, src).delay_s = delay_s

    def block(self, src: str, dst: str, *, symmetric: bool = True) -> None:
        """Sever one link outright (both directions by default)."""
        self._pair(src, dst).blocked = True
        if symmetric:
            self._pair(dst, src).blocked = True

    def unblock(self, src: str, dst: str, *, symmetric: bool = True) -> None:
        self._pair(src, dst).blocked = False
        if symmetric:
            self._pair(dst, src).blocked = False

    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Install partition groups (same semantics as the sim transport)."""
        self._partition.set_partition(groups)

    def heal(self) -> None:
        """Remove the partition and any per-link blocks."""
        self._partition.heal()
        for link in self._links.values():
            link.policy.blocked = False

    def _pair(self, src: str, dst: str) -> PairPolicy:
        try:
            return self._links[(src, dst)].policy
        except KeyError:
            raise KeyError(f"unknown proxy pair {src!r}->{dst!r}") from None

    # -- data path ----------------------------------------------------------------

    def _receive(self, link: _Link, data: bytes, ends: list[int]) -> None:
        """Apply the pair's policy to the complete frames of one chunk."""
        policy = link.policy
        now = self._loop.time()
        spans = list(zip(chain((0,), ends), ends))  # each frame's (start, end)
        if policy.blocked or not self._partition.can_communicate(link.src, link.dst):
            self._drop(link, now, data, spans, "partition")
            return
        if policy.loss > 0.0:
            lost = [self._rng.chance(policy.loss) for _ in spans]  # in stream order
            if any(lost):
                self._drop(link, now, data, [s for s, x in zip(spans, lost) if x], "loss")
                spans = [span for span, x in zip(spans, lost) if not x]
                if not spans:
                    return
        nbytes = self._count(link, now, data, spans)
        link.stats.forwarded += len(spans)
        link.stats.bytes_forwarded += nbytes
        if len(spans) < len(ends):
            data = b"".join(data[start:end] for start, end in spans)
        elif ends[-1] != len(data):
            data = data[:ends[-1]]
        link.sender.hold(now + policy.delay_s, data, len(spans))
        link.sender.flush()

    def _count(self, link: _Link, now: float, data: bytes,
               spans: list[tuple[int, int]]) -> int:
        """Count forwarded frames as ``net_send``; their bytes."""
        nbytes = 0
        frame_kind = wire.frame_kind
        if link.send is None:
            link.send = self._trace.message_channel("net_send", link.src, link.dst)
        if link.send.counted_only:  # the cells, once per chunk (and per kind)
            tallies = link.tallies
            for start, end in spans:
                kind = frame_kind(data, start, end) or "?"
                tally = tallies.get(kind) or link.tally(kind)
                tally[0] += 1
                tally[1] += end - start
                nbytes += end - start
            link.state[0] += len(spans)
            link.state[1] += nbytes
            link.pair_cell[0] += len(spans)
        else:  # a record per frame
            for start, end in spans:
                link.send.record(now, frame_kind(data, start, end) or "?", end - start)
                nbytes += end - start
        return nbytes

    def _drop(self, link: _Link, now: float, data: bytes,
              spans: list[tuple[int, int]], reason: str) -> None:
        """Swallow frames, each counted as a ``net_drop``."""
        if link.drop is None:
            link.drop = self._trace.message_channel("net_drop", link.src, link.dst)
        for start, end in spans:
            link.drop.record(now, wire.frame_kind(data, start, end) or "?", None, reason)
        stats = link.stats
        stats.dropped += len(spans)
        stats.reasons[reason] = stats.reasons.get(reason, 0) + len(spans)
