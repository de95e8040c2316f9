"""The sans-IO runtime environment interface.

Every Rivulet protocol component (heartbeats, Gap chain, Gapless ring,
reliable broadcast, coordinated polling, election) is written against this
narrow interface and nothing else. One host implements the part that does
not depend on how bytes and time move — :class:`repro.core.stack.ServiceHost`
(``rng``, ``peers``, and the service stack it boots) — and two runtimes
subclass it for the rest:

- :class:`repro.core.runtime.RivuletProcess` — the deterministic simulator;
- :class:`repro.rt.node.AsyncRivuletNode` — real asyncio TCP sockets.

Keeping protocols IO-free is what lets the test suite drive them through
hand-crafted message sequences, the benchmark harness replay them
deterministically, and the asyncio runtime deploy the identical logic.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Protocol, Sequence

from repro.net.message import Message
from repro.sim.random import RandomSource


class CancelHandle(Protocol):
    """Anything with a ``cancel()`` — sim timers and asyncio timers both fit."""

    def cancel(self) -> None: ...


class _ChainedRepeating:
    """Default repeating timer: a self-re-arming chain of one-shots.

    Used by runtimes whose scheduler has no native repeating primitive
    (e.g. the asyncio runtime); the simulator overrides
    :meth:`RuntimeEnv.schedule_repeating` with the allocation-free
    :meth:`repro.sim.scheduler.Scheduler.post_repeating`.
    """

    __slots__ = ("_env", "_interval", "_fn", "_args", "_cancelled", "_inner")

    def __init__(
        self,
        env: "RuntimeEnv",
        interval: float,
        fn: Callable[..., None],
        args: tuple,
        first_delay: float | None,
    ) -> None:
        self._env = env
        self._interval = interval
        self._fn = fn
        self._args = args
        self._cancelled = False
        delay = interval if first_delay is None else first_delay
        self._inner = env.schedule(delay, self._tick)

    def _tick(self) -> None:
        if self._cancelled:
            return
        self._fn(*self._args)
        if not self._cancelled:
            self._inner = self._env.schedule(self._interval, self._tick)

    def cancel(self) -> None:
        self._cancelled = True
        self._inner.cancel()


class RuntimeEnv(abc.ABC):
    """What a protocol component may do to the outside world."""

    name: str
    """This process's unique name."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or monotonic wall clock)."""

    @abc.abstractmethod
    def send(self, dst: str, kind: str, **payload: Any) -> None:
        """Send a message to another process (reliable in-order transport)."""

    def multicast(self, dsts: Sequence[str], kind: str, payload: dict) -> None:
        """Send the same ``(kind, payload)`` to every process in ``dsts``.

        Semantically ``for dst in dsts: send(dst, kind, **payload)`` — one
        independent unicast per destination, in order. Hot environments
        override it to size the identical wire image once per fan-out
        (heartbeats send one keepalive per peer per tick, the dominant
        message load of a long run). Callers must not mutate ``payload``
        afterwards; the messages hold a reference, not a copy.
        """
        for dst in dsts:
            self.send(dst, kind, **payload)

    @abc.abstractmethod
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> CancelHandle:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a cancellable handle.

        For a step that someone may call off: the caller keeps the handle
        (a grace timer, a poll slot, a retry, the store's anti-entropy
        tick) and cancels it. A step nobody cancels uses :meth:`defer`.
        """

    @abc.abstractmethod
    def defer(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds; nothing can cancel it.

        For protocol steps whose handle would be thrown away (a journal
        write before a ring hop, a hop's processing, a local delivery, a
        periodic check that re-arms itself). Same instant, same order and
        the same crash guard as :meth:`schedule`, minus the handle: the
        simulator posts it on the scheduler's post lane.
        """

    def schedule_repeating(
        self,
        interval: float,
        fn: Callable[..., None],
        *args: Any,
        first_delay: float | None = None,
    ) -> CancelHandle:
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing is after ``first_delay`` (default ``interval``).
        Periodic services (heartbeats, poll epochs, anti-entropy) should
        prefer this over re-arming one-shots: the simulator implements it
        without per-tick allocations.
        """
        return _ChainedRepeating(self, interval, fn, args, first_delay)

    @abc.abstractmethod
    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        """Dispatch incoming messages of ``kind`` to ``fn``."""

    @abc.abstractmethod
    def rng(self, stream: str) -> RandomSource:
        """A persistent named random stream scoped to this process."""

    @abc.abstractmethod
    def trace(self, kind: str, /, **fields: Any) -> None:
        """Record a structured trace event (metrics are functions of these)."""

    @abc.abstractmethod
    def trace_device(self, kind: str, id_value: str, seq: Any) -> None:
        """Positional lane for the per-event ingest records.

        ``kind`` is declared ``<id field>, process, seq``
        (:mod:`repro.sim.schema`); the record is that declared row, with
        this process in the middle (``Trace.record_device``), so it keeps
        the declared field order that ``trace(kind, **fields)`` would not.
        """

    @abc.abstractmethod
    def trace_row(self, kind: str, values: tuple) -> None:
        """Positional lane for the per-event protocol records.

        ``kind`` is declared with ``process`` first (:mod:`repro.sim.schema`),
        which the environment fills; ``values`` are its other fields, in
        declared order (``Trace.record_row``).
        """

    @abc.abstractmethod
    def peers(self) -> list[str]:
        """Names of all other configured processes (static deployment set)."""
