"""Shared test utilities.

:class:`FakeEnv` is a minimal in-memory :class:`repro.core.env.RuntimeEnv`
for sans-IO protocol tests: several FakeEnvs share one simulator scheduler
and a tiny loopback "network" with a constant delay and controllable drops.
This is how heartbeat/election/protocol units are exercised without the
full Home machinery.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import sys
import warnings
from typing import Any, Callable

from repro.core.env import CancelHandle, RuntimeEnv
from repro.net.message import Message
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


@contextlib.contextmanager
def resource_warnings_are_errors():
    """Fail the block on any ``ResourceWarning``, finalizers included.

    A warning turned into an error inside ``__del__`` is unraisable, so
    those are collected through ``sys.unraisablehook`` and asserted on
    exit, after a garbage collection.
    """
    unraisable: list[str] = []
    hook = sys.unraisablehook
    sys.unraisablehook = lambda info: unraisable.append(repr(info.exc_value))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert not unraisable, unraisable


class _HeldTransport:
    """Just enough transport for a protocol fed by hand: it records close()."""

    closing = False

    def close(self) -> None:
        self.closing = True


def each_frame(fn, *, raw: bool = False):
    """A :class:`repro.rt.wire.FrameProtocol` ``deliver`` that calls
    ``fn`` on every frame of a chunk in order: its body, or all of it if
    ``raw``."""
    from repro.rt.wire import HEADER_SIZE

    skip = 0 if raw else HEADER_SIZE

    def deliver(data: bytes, ends: list[int]) -> None:
        start = 0
        for end in ends:
            fn(data[start + skip:end])
            start = end

    return deliver


def split_chunks(chunks, *, raw: bool = False):
    """Feed ``chunks`` one at a time to a :class:`repro.rt.wire.FrameProtocol`,
    then EOF, the way a transport would (nothing more once it closes).

    Returns ``(frames, error)``: what it delivered, bodies or ``raw``
    frames, and the :class:`WireError` that closed it, or None.
    """
    from repro.rt.wire import FrameProtocol

    async def go():
        frames, errors = [], []
        protocol = FrameProtocol(each_frame(frames.append, raw=raw), set(),
                                 on_error=errors.append)
        transport = _HeldTransport()
        protocol.connection_made(transport)
        for chunk in chunks:
            if transport.closing:
                break
            protocol.data_received(chunk)
        protocol.connection_lost(None)
        return frames, (errors[0] if errors else None)

    return asyncio.run(go())


class FakeEnv(RuntimeEnv):
    """An in-memory RuntimeEnv; wire several together via ``link()``."""

    def __init__(
        self,
        name: str,
        scheduler: Scheduler | None = None,
        *,
        delay: float = 0.001,
        seed: int = 7,
    ) -> None:
        self.name = name
        self.scheduler = scheduler or Scheduler()
        self.delay = delay
        self.sent: list[Message] = []
        self.trace_log = Trace()
        self.alive = True
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._network: dict[str, "FakeEnv"] = {name: self}
        self._rng = RandomSource(seed).child(name)
        self.dropped_links: set[tuple[str, str]] = set()

    # -- wiring ------------------------------------------------------------------

    def link(self, *others: "FakeEnv") -> "FakeEnv":
        """Connect envs into one loopback network (shared scheduler assumed)."""
        for other in others:
            self._network[other.name] = other
            other._network.update(self._network)
            for peer in self._network.values():
                peer._network.update(self._network)
        return self

    def drop_between(self, a: str, b: str) -> None:
        """Silently drop messages in both directions between a and b."""
        self.dropped_links.add((a, b))
        self.dropped_links.add((b, a))
        for env in self._network.values():
            env.dropped_links |= self.dropped_links

    # -- RuntimeEnv ---------------------------------------------------------------------

    def now(self) -> float:
        return self.scheduler.now

    def send(self, dst: str, kind: str, **payload: Any) -> None:
        if not self.alive:
            return
        message = Message(kind=kind, src=self.name, dst=dst, payload=payload)
        self.sent.append(message)
        if (self.name, dst) in self.dropped_links:
            return
        target = self._network.get(dst)
        if target is None:
            return
        self.scheduler.call_later(self.delay, target.deliver, message)

    def deliver(self, message: Message) -> None:
        if not self.alive:
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(message)

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> CancelHandle:
        def guarded() -> None:
            if self.alive:
                fn(*args)

        return self.scheduler.call_later(delay, guarded)

    def defer(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        self.schedule(delay, fn, *args)

    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        self._handlers[kind] = fn

    def rng(self, stream: str) -> RandomSource:
        return self._rng.child(stream)

    def trace(self, kind: str, /, **fields: Any) -> None:
        self.trace_log.record(self.scheduler.now, kind, process=self.name, **fields)

    def trace_device(self, kind: str, id_value: str, seq: Any) -> None:
        self.trace_log.record_device(self.scheduler.now, kind, id_value, self.name, seq)

    def trace_row(self, kind: str, values: tuple) -> None:
        self.trace_log.record_row(self.scheduler.now, kind, (self.name, *values))

    def peers(self) -> list[str]:
        return sorted(n for n in self._network if n != self.name)

    def sent_of_kind(self, kind: str) -> list[Message]:
        return [m for m in self.sent if m.kind == kind]
