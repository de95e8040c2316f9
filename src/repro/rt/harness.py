"""What every rt harness shares: one clock, one trace, one emit, one fault surface.

:class:`~repro.rt.cluster.LocalCluster` (asyncio nodes in this
interpreter) and :class:`~repro.rt.proc.ProcessHome` (one OS process per
node) differ in how a node is started and killed. How a sensor event is
numbered, recorded and handed to each node's ``inject_event``, and how a
fault is validated, applied and recorded, do not, so they are written
once here and :class:`~repro.rt.faults.RtFaultDriver` drives either
through it.

The clock is the run clock, :meth:`RtHarness.now`: seconds since
``start()``, i.e. ``loop.time()`` minus the harness's origin ``_t0``.
Nodes and subprocess children are handed the same origin, so every kept
record, ``Event.emitted_at`` and actuation time is run-relative when it is
written, exactly like a simulated run that starts at t=0. The trace keeps
the kinds the oracles read (:data:`~repro.core.invariants.ORACLE_TRACE_KINDS`)
and only counts the rest: the proxy's per-frame ``net_send``/``net_drop``
(stamped on absolute ``loop.time()``, a time nothing reads), ``boot``,
``send_dropped`` and the like reach counts, tallies and pair counts, never
a stored record.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import defaultdict
from functools import partial
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.core.events import Event
from repro.core.invariants import ORACLE_TRACE_KINDS
from repro.rt.proxy import FaultProxy
from repro.sim.faults import FaultError
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace


class RtHarness:
    """The fault/observation surface of a home on the real runtime.

    Subclasses declare ``_process_names`` and ``_push_receivers`` (push
    sensor -> receiving processes: the links :meth:`emit` feeds and
    :meth:`set_link_loss` degrades) before they start, fill ``nodes``
    (handles with an ``alive`` flag and an ``inject_event``) and ``proxy``
    in ``start()``, and implement ``_kill``.
    """

    _process_names: Sequence[str]
    _push_receivers: Mapping[str, Sequence[str]]

    def __init__(self, *, seed: int, use_proxy: bool) -> None:
        self.seed = seed
        self.use_proxy = use_proxy
        self.nodes: dict[str, Any] = {}
        self.trace = Trace(keep_kinds=set(ORACLE_TRACE_KINDS))
        self.proxy: FaultProxy | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float = 0.0
        self._event_seq: defaultdict[str, itertools.count] = defaultdict(
            partial(itertools.count, 1)
        )
        self._emit_loss: dict[tuple[str, str], float] = {}
        self._loss_rng = RandomSource(seed).child("rt/emit-loss")
        self._fault_free = True
        self._lossless = True

    async def __aenter__(self):
        try:
            await self.start()
        except BaseException:
            await self.stop()  # a half-started home leaves nothing behind
            raise
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    async def _start_proxy(self, addresses: dict[str, tuple[str, int]]) -> None:
        """With ``use_proxy``, interpose the fault proxy on every peer link."""
        if self.use_proxy:
            self.proxy = FaultProxy(
                self._process_names, addresses, seed=self.seed, trace=self.trace
            )
            await self.proxy.start()

    def _peer_addresses(
        self, name: str, addresses: dict[str, tuple[str, int]]
    ) -> dict[str, tuple[str, int]]:
        """Where ``name`` dials its peers: through the proxy when there is one."""
        if self.proxy is not None:
            return self.proxy.address_map_for(name)
        return {peer: address for peer, address in addresses.items() if peer != name}

    def now(self) -> float:
        """Run-clock seconds: ``loop.time()`` since ``start()``. Stamp a
        poll reading's ``emitted_at`` with this, as the nodes do."""
        return (self._loop or asyncio.get_event_loop()).time() - self._t0

    def emit(self, sensor: str, value: Any, *, size_bytes: int = 4) -> Event:
        """Multicast one push-sensor event to every live receiving node."""
        receivers = self._push_receivers[sensor]
        now = self.now()
        event = Event(
            sensor_id=sensor,
            seq=next(self._event_seq[sensor]),
            emitted_at=now,
            value=value,
            size_bytes=size_bytes,
        )
        self.trace.record_device(now, "sensor_emit", sensor, event.seq)
        for receiver in receivers:
            node = self.nodes[receiver]
            if not node.alive:
                continue
            loss = self._emit_loss.get((sensor, receiver), 0.0)
            if loss > 0.0 and self._loss_rng.chance(loss):
                continue  # radio loss: the frame never leaves the device
            node.inject_event(event)
        return event

    async def wait_for(
        self,
        predicate: Callable[[], Any],
        *,
        timeout: float = 5.0,
        poll: float = 0.02,
    ) -> Any:
        """Poll ``predicate`` until truthy; raise on deadline.

        Returns the truthy value, so callers can both wait and read:
        ``hits = await cluster.wait_for(lambda: node.actuations)``.
        """
        deadline = self.now() + timeout
        while True:
            value = predicate()
            if value:
                return value
            if self.now() >= deadline:
                raise TimeoutError(
                    f"condition not reached within {timeout}s: {predicate!r}"
                )
            await asyncio.sleep(poll)

    async def _until_idle(
        self, sample: Callable[[], Awaitable[Any]], *, idle_for: float,
        timeout: float, poll: float,
    ) -> bool:
        """True once ``await sample()`` holds still for ``idle_for`` seconds.

        Deadline-based quiescence detection: False if ``timeout`` elapsed
        first (callers that require quiescence assert on the result).
        """
        deadline = self.now() + timeout
        last: Any = None
        idle_since = self.now()
        while True:
            current = await sample()
            now = self.now()
            if current != last:
                last = current
                idle_since = now
            elif now - idle_since >= idle_for:
                return True
            if now >= deadline:
                return False
            await asyncio.sleep(poll)

    # -- fault injection: validate, then mutate, then record -----------------------
    #
    # A plan action's kind is the method it calls, exactly as on the
    # simulated Home, and like Home every entry point raises FaultError on
    # an impossible injection before any flag, proxy policy or record moves.

    def crash_process(self, name: str) -> Awaitable[None]:
        """Crash-stop a live node; returns the kill to await.

        The refusal (an unknown or already-dead process) and the ``crash``
        record happen on the call, so a fault driver firing it from a timer
        fails loudly there.
        """
        self._check_process(name)
        node = self.nodes.get(name)
        if node is None or not node.alive:
            raise FaultError(f"cannot crash {name!r}: not running")
        self._fault_free = False
        self.trace.record(self.now(), "crash", process=name)
        return self._kill(node)

    def set_link_loss(self, device: str, process: str, loss_rate: float) -> None:
        """Drop ``device -> process`` traffic with probability ``loss_rate``.

        A push sensor's link is the rt analogue of the simulator's radio
        link: a lost event is never handed to that receiver's delivery
        service. A poll sensor has no such link (its readings are replies,
        not :meth:`emit` injections), so naming one is refused.
        A process pair is an inter-process link: the proxy drops its frames
        in both directions (needs the proxy).
        """
        if not 0.0 <= loss_rate <= 1.0:
            raise FaultError(f"loss rate must be in [0, 1], got {loss_rate}")
        names = self._process_names
        if device in names and process in names and device != process:
            self._require_proxy().set_loss(device, process, loss_rate, symmetric=True)
        elif process in self._push_receivers.get(device, ()):
            self._emit_loss[(device, process)] = loss_rate
        else:
            raise FaultError(f"no link {device!r} -> {process!r}")
        if loss_rate > 0.0:
            self._fault_free = False
            self._lossless = False

    def set_peer_delay(
        self, src: str, dst: str, delay_s: float, *, symmetric: bool = True
    ) -> None:
        """Add fixed latency to inter-process frames (needs proxy)."""
        self._require_proxy().set_delay(src, dst, delay_s, symmetric=symmetric)

    def set_partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Partition the processes into isolated groups (needs proxy)."""
        for group in groups:
            for name in group:
                self._check_process(name)
        self._require_proxy().set_partition(groups)
        self._fault_free = False
        self.trace.record(self.now(), "partition",
                          groups=[list(g) for g in groups])

    def heal_partition(self) -> None:
        self._require_proxy().heal()
        self.trace.record(self.now(), "partition_healed")

    def _check_process(self, name: str) -> None:
        if name not in self._process_names:
            raise FaultError(f"unknown process {name!r}")

    def _require_proxy(self) -> FaultProxy:
        if self.proxy is None:
            raise RuntimeError(
                "this fault needs the TCP proxy: construct "
                f"{type(self).__name__}(use_proxy=True) and start it"
            )
        return self.proxy
