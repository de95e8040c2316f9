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
per-peer fault policy possible.

The proxy is also the rt runtime's network observer: every forwarded frame
is recorded as a ``net_send`` trace record (src/dst/kind/bytes) and every
swallowed frame as ``net_drop``, giving :mod:`repro.eval.metrics` the same
overhead counters it reads off simulated runs. Both are stamped with
absolute ``loop.time()``: an rt harness's trace counts, byte-sums and
tallies these kinds but never keeps a record of them, so their times are
never read.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.net.partition import PartitionState
from repro.rt import wire
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace


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
        self._trace = trace
        self._rng = RandomSource(seed).child("rt/proxy-loss")
        self._partition = PartitionState()
        self._policy: dict[tuple[str, str], PairPolicy] = {}
        self.stats: dict[tuple[str, str], PairStats] = {}
        self._ports: dict[tuple[str, str], int] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._pumps: set[asyncio.Task] = set()
        self._inbound: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        for src in self._processes:
            for dst in self._processes:
                if src != dst:
                    self._policy[(src, dst)] = PairPolicy()
                    self.stats[(src, dst)] = PairStats()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for pair in self._policy:
            src, dst = pair
            server = await asyncio.start_server(
                wire.accept_into(
                    self._inbound, functools.partial(self._serve_pair, pair)),
                "127.0.0.1", 0,
            )
            self._servers.append(server)
            self._ports[pair] = server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # A handler cancels its own pump on the way out; one cancelled before
        # its first step has neither a pump nor a ``finally``.
        await wire.close_accepted(self._inbound, self._pumps)
        self._pumps.clear()

    def address_map_for(self, src: str) -> dict[str, tuple[str, int]]:
        """The peer-address map process ``src`` should dial through."""
        return {
            dst: ("127.0.0.1", self._ports[(src, dst)])
            for dst in self._processes
            if dst != src
        }

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
        for policy in self._policy.values():
            policy.blocked = False

    def _pair(self, src: str, dst: str) -> PairPolicy:
        try:
            return self._policy[(src, dst)]
        except KeyError:
            raise KeyError(f"unknown proxy pair {src!r}->{dst!r}") from None

    # -- data path ----------------------------------------------------------------

    async def _serve_pair(
        self,
        pair: tuple[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        src, dst = pair
        queue: asyncio.Queue = asyncio.Queue()
        pump = asyncio.ensure_future(wire.send_frames(queue, self._targets[dst]))
        self._pumps.add(pump)
        policy = self._policy[pair]
        stats = self.stats[pair]
        loop = self._loop or asyncio.get_running_loop()
        try:
            async for frame in wire.read_frames(reader, raw=True):
                now = loop.time()
                if policy.blocked or not self._partition.can_communicate(src, dst):
                    self._drop(now, src, dst, frame, stats, "partition")
                    continue
                if policy.loss > 0.0 and self._rng.chance(policy.loss):
                    self._drop(now, src, dst, frame, stats, "loss")
                    continue
                stats.forwarded += 1
                stats.bytes_forwarded += len(frame)
                if self._trace is not None:
                    kind = wire.frame_kind(frame) or "?"
                    self._trace.record_message(
                        now, "net_send", src, dst, kind, len(frame)
                    )
                queue.put_nowait((now + policy.delay_s, frame))
        except (asyncio.CancelledError, ConnectionError):
            pass
        except wire.WireError:
            pass  # corrupted upstream: drop the connection, peer will redial
        finally:
            pump.cancel()
            self._pumps.discard(pump)
            writer.close()

    def _drop(
        self, now: float, src: str, dst: str, frame: bytes,
        stats: PairStats, reason: str,
    ) -> None:
        stats.dropped += 1
        stats.reasons[reason] = stats.reasons.get(reason, 0) + 1
        if self._trace is not None:
            kind = wire.frame_kind(frame) or "?"
            self._trace.record_message(
                now, "net_drop", src, dst, kind, reason=reason
            )
