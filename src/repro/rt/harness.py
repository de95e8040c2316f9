"""What every rt harness shares: one clock, one trace, one fault surface.

:class:`~repro.rt.cluster.LocalCluster` (asyncio nodes in this
interpreter) and :class:`~repro.rt.proc.ProcessHome` (one OS process per
node) differ in how a node is started, fed and killed. How a fault is
validated, applied and recorded does not, so it is written once here and
:class:`~repro.rt.faults.RtFaultDriver` drives either through it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.rt.proxy import FaultProxy
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace


class RtHarness:
    """The fault/observation surface of a home on the real runtime.

    Subclasses declare ``_process_names`` and ``_sensor_receivers`` before
    they start, fill ``nodes`` (handles with an ``alive`` flag) and
    ``proxy`` in ``start()``, and implement ``_kill``.
    """

    _process_names: Sequence[str]
    _sensor_receivers: Mapping[str, Sequence[str]]

    def __init__(self, *, seed: int, use_proxy: bool) -> None:
        self.seed = seed
        self.use_proxy = use_proxy
        self.nodes: dict[str, Any] = {}
        self.trace = Trace()
        self.proxy: FaultProxy | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float = 0.0
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

    def _now(self) -> float:
        return (self._loop or asyncio.get_event_loop()).time()

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
        deadline = self._now() + timeout
        while True:
            value = predicate()
            if value:
                return value
            if self._now() >= deadline:
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
        deadline = self._now() + timeout
        last: Any = None
        idle_since = self._now()
        while True:
            current = await sample()
            now = self._now()
            if current != last:
                last = current
                idle_since = now
            elif now - idle_since >= idle_for:
                return True
            if now >= deadline:
                return False
            await asyncio.sleep(poll)

    # -- fault injection: validate, then mutate, then record -----------------------

    async def crash(self, name: str) -> None:
        """Crash-stop a node; a dead one stays dead."""
        node = self.nodes[name]
        if not node.alive:
            return
        self._fault_free = False
        self.trace.record(self._now(), "crash", process=name)
        await self._kill(node)

    def set_emit_loss(self, sensor: str, receiver: str, loss: float) -> None:
        """Drop sensor->process injections with probability ``loss``.

        The rt analogue of the simulator's radio link loss
        (``set_link_loss``): the event is simply never handed to that
        receiver's delivery service.
        """
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss rate must be within [0, 1], got {loss}")
        if sensor not in self._sensor_receivers:
            raise KeyError(f"unknown sensor {sensor!r}")
        if receiver not in self._process_names:
            raise KeyError(f"unknown process {receiver!r}")
        self._emit_loss[(sensor, receiver)] = loss
        if loss > 0.0:
            self._fault_free = False
            self._lossless = False

    def set_peer_loss(
        self, src: str, dst: str, loss: float, *, symmetric: bool = True
    ) -> None:
        """Drop inter-process frames with probability ``loss`` (needs proxy)."""
        self._require_proxy().set_loss(src, dst, loss, symmetric=symmetric)
        if loss > 0.0:
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
                if name not in self._process_names:
                    raise KeyError(f"cannot partition unknown process {name!r}")
        self._require_proxy().set_partition(groups)
        self._fault_free = False
        self.trace.record(self._now(), "partition",
                          groups=[list(g) for g in groups])

    def heal_partition(self) -> None:
        self._require_proxy().heal()
        self.trace.record(self._now(), "partition_healed")

    def _require_proxy(self) -> FaultProxy:
        if self.proxy is None:
            raise RuntimeError(
                "this fault needs the TCP proxy: construct "
                f"{type(self).__name__}(use_proxy=True) and start it"
            )
        return self.proxy
