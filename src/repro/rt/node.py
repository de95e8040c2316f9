"""One Rivulet process over real asyncio TCP.

:class:`AsyncRivuletNode` is a :class:`repro.core.stack.ServiceHost` on an
event loop: the host boots the identical service stack the simulator runs
(heartbeat membership, the delivery service, the execution service, the
replicated store); the node adds sockets, timers and the device hooks.

Transport semantics match the paper's assumptions: per-peer ordered frames
over TCP (one :class:`repro.rt.wire.PeerSender` per destination, holding at
most :data:`SEND_QUEUE_LIMIT` frames), silent loss when the peer is
unreachable (the membership layer notices via missing keep-alives).

Device IO is pluggable: sensors are injected through
:meth:`AsyncRivuletNode.inject_event` (a software adapter), actuation lands
in :attr:`actuations` or a user callback, and poll requests are served by a
user-supplied handler.

:meth:`AsyncRivuletNode.now` is the run clock of the harness that owns the
node: ``loop.time()`` minus the ``origin`` it was handed, so what the
services stamp (trace records, logic-delivery delays) is run-relative.
"""

from __future__ import annotations

import asyncio
import functools
import socket
from typing import Any, Callable

from repro.core.delivery_service import DeviceInfo
from repro.core.env import CancelHandle
from repro.core.events import Command, Event
from repro.core.plan import DeploymentPlan
from repro.core.stack import ServiceHost, StackConfig
from repro.net.latency import ProcessingModel
from repro.net.message import Message
from repro.rt import wire
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace, row_names

PollHandler = Callable[[str, Callable[[Event], None]], None]

#: Frames a node holds for one peer that is not taking them; the next send
#: is dropped and traced as ``send_dropped``.
SEND_QUEUE_LIMIT = 10_000

#: The per-command record's schema (see RuntimeEnv.trace_row).
_ACTUATION = row_names("process", "actuator", "action", "by")


class AsyncRivuletNode(ServiceHost):
    """A Rivulet process listening on ``("127.0.0.1", port)``."""

    def __init__(
        self,
        name: str,
        port: int,
        peer_addresses: dict[str, tuple[str, int]],
        plan: DeploymentPlan,
        device_info: dict[str, DeviceInfo],
        config: StackConfig,
        *,
        seed: int = 42,
        on_actuate: Callable[[Command], None] | None = None,
        poll_handler: PollHandler | None = None,
        trace: Trace | None = None,
        origin: float = 0.0,
    ) -> None:
        super().__init__(
            name, plan, device_info, config,
            # Real processing happens in real time; the model adds nothing here.
            ProcessingModel(
                local_dispatch=0.0, gapless_ingest_log=0.0, gapless_hop_processing=0.0
            ),
            RandomSource(seed).child(f"node/{name}"),
        )
        self.port = port
        self._origin = origin
        self.peer_addresses = dict(peer_addresses)
        self._on_actuate = on_actuate
        self._poll_handler = poll_handler

        # Not `trace or Trace()`: an empty Trace is falsy, and a shared
        # cluster trace is always empty at construction time.
        self._trace = trace if trace is not None else Trace()
        # Every node of the deployment builds the same table from the plan.
        self.names = wire.Names.of(plan)
        self._senders: dict[str, wire.PeerSender] = {}
        self._inbound: set[wire.FrameProtocol] = set()
        # Zero-delay steps, drained by one loop callback (see schedule()).
        self._ready: list[_Step] = []
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._alive = False
        self.actuations: list[Command] = []

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, sock: socket.socket | None = None) -> None:
        """Listen (on ``sock`` if given: a cluster binds every node's port
        before anything else can take it, and hands it over) and boot."""
        self._loop = asyncio.get_running_loop()
        self._alive = True
        where = {"sock": sock} if sock is not None else {"host": "127.0.0.1", "port": self.port}
        self._server = await self._loop.create_server(functools.partial(
            wire.FrameProtocol, self._dispatch, self._inbound, on_error=self._wire_error), **where)
        self.boot_services()
        self.trace("boot")

    async def stop(self) -> None:
        """Crash-stop the node: close the server and all connections."""
        await self.halt()
        await self.close()

    async def halt(self) -> None:
        """First half of :meth:`stop`: no more activity, sends or dials."""
        self._alive = False
        self._ready.clear()
        if self.heartbeat is not None:
            self.heartbeat.stop()
        senders = list(self._senders.values())
        self._senders.clear()
        await asyncio.gather(*(sender.close() for sender in senders))

    async def close(self) -> None:
        """Second half: close the listener and what it accepted."""
        if self._server is not None:
            self._server.close()
        await wire.close_accepted(self._inbound)
        if self._server is not None:
            await self._server.wait_closed()
        self.trace("stop")

    @property
    def alive(self) -> bool:
        return self._alive

    def sender_stats(self) -> dict[str, wire.SenderStats]:
        """Each peer's :class:`repro.rt.wire.SenderStats`, by name."""
        return {dst: sender.stats for dst, sender in self._senders.items()}

    # -- device-side API -----------------------------------------------------------------

    def inject_event(self, event: Event) -> None:
        """Deliver a sensor event to this node, as a local adapter would."""
        if self._alive and self.delivery is not None:
            self.delivery.on_ingest(event)

    # -- RuntimeEnv -------------------------------------------------------------------------

    def now(self) -> float:
        loop = self._loop or asyncio.get_event_loop()
        return loop.time() - self._origin

    def send(self, dst: str, kind: str, **payload: Any) -> None:
        if not self._alive:
            return
        message = Message(kind=kind, src=self.name, dst=dst, payload=payload)
        frame = wire.encode_message(message, self.names)
        sender = self._senders.get(dst)
        if sender is None:
            sender = self._senders[dst] = wire.PeerSender(
                self.peer_addresses[dst], limit=SEND_QUEUE_LIMIT)
        if not sender.put(0.0, frame):  # due at once
            self.trace("send_dropped", dst=dst, reason="queue_full")

    # schedule and register_handler are defined on this class (not the
    # host): bench/tracer.py wraps them via cls.__dict__.
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> CancelHandle:
        loop = self._loop or asyncio.get_event_loop()
        if delay <= 0:
            # The ProcessingModel is all zeros here, so most protocol steps
            # are zero-delay hand-offs: FIFO, off the timer heap, and one
            # loop callback runs every step queued by the time it runs.
            if not self._ready:
                loop.call_soon(self._drain)
            step = _Step(fn, args)
            self._ready.append(step)
            return step
        return loop.call_later(delay, self._fire, fn, args)

    def _drain(self) -> None:
        """Run the queued steps. What they post goes to a fresh queue and
        its own callback, the next loop turn, as ``call_soon`` would run
        it: a cascade cannot starve I/O."""
        steps, self._ready = self._ready, []
        for step in steps:
            if step.fn is not None and self._alive:
                try:
                    step.fn(*step.args)
                except Exception as exc:
                    asyncio.get_running_loop().call_exception_handler({
                        "message": f"Exception in node {self.name}'s step {step.fn!r}",
                        "exception": exc})

    def _fire(self, fn: Callable[..., None], args: tuple) -> None:
        if self._alive:
            fn(*args)

    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        self._handlers[kind] = fn

    def trace(self, kind: str, /, **fields: Any) -> None:
        self._trace.record(self.now(), kind, process=self.name, **fields)

    def trace_device(
        self, kind: str, id_field: str, id_value: str, seq: Any = None
    ) -> None:
        # The positional lane, as on the simulator's process.
        self._trace.record_device(
            self.now(), kind, id_field, id_value, process=self.name, seq=seq)

    def trace_row(self, kind: str, names: tuple[str, ...], values: tuple) -> None:
        self._trace.record_row(self.now(), kind, names, (self.name, *values))

    @property
    def traced(self) -> Trace:
        return self._trace

    # -- inbound ----------------------------------------------------------------------------

    def _dispatch(self, data: bytes, ends: list[int]) -> bool | None:
        """Decode and handle the frames of one chunk, in order."""
        decode, names, handlers = wire.decode_body, self.names, self._handlers
        start = 0
        for end in ends:
            if not self._alive:
                return False  # halted: hang up, dispatch nothing more
            message = decode(data[start + wire.HEADER_SIZE:end], names)
            start = end
            handler = handlers.get(message.kind)
            if handler is None:
                self.trace("unhandled_message", kind=message.kind)
            else:
                handler(message)

    def _wire_error(self, exc: wire.WireError) -> None:
        self.trace("wire_error", error=str(exc))

    # -- service plumbing --------------------------------------------------------------------

    def _actuate_local(self, command: Command) -> None:
        self.actuations.append(command)
        self._trace.record_row(self.now(), "actuation", _ACTUATION, (
            self.name, command.actuator_id, command.action, command.issued_by))
        if self._on_actuate is not None:
            self._on_actuate(command)

    def _poll_sensor(self, sensor: str, on_response: Callable[[Event], None]) -> None:
        if self._poll_handler is None:
            self.trace("poll_unserviced", sensor=sensor)
            return
        self._poll_handler(sensor, on_response)


class _Step:
    """A queued zero-delay step and its cancel handle."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None] | None, args: tuple) -> None:
        self.fn, self.args = fn, args

    def cancel(self) -> None:
        self.fn = None
