"""One Rivulet process over real asyncio TCP.

:class:`AsyncRivuletNode` is a :class:`repro.core.stack.ServiceHost` on an
event loop: the host boots the identical service stack the simulator runs
(heartbeat membership, the delivery service, the execution service, the
replicated store); the node adds sockets, timers and the device hooks.

Transport semantics match the paper's assumptions: per-peer ordered frames
over TCP (one outbound queue per destination), silent loss when the peer is
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
from repro.sim.tracing import Trace

PollHandler = Callable[[str, Callable[[Event], None]], None]


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
        self._queues: dict[str, asyncio.Queue] = {}
        self._sender_tasks: dict[str, asyncio.Task] = {}
        self._inbound: dict[asyncio.Task, asyncio.StreamWriter] = {}
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
        self._server = await asyncio.start_server(
            wire.accept_into(self._inbound, self._on_connection), **where)
        self.boot_services()
        self.trace("boot")

    async def stop(self) -> None:
        """Crash-stop the node: close the server and all connections."""
        await self.halt()
        await self.close()

    async def halt(self) -> None:
        """First half of :meth:`stop`: no more activity, sends or dials."""
        self._alive = False
        if self.heartbeat is not None:
            self.heartbeat.stop()
        await wire.close_accepted({}, self._sender_tasks.values())
        self._sender_tasks.clear()

    async def close(self) -> None:
        """Second half: close the listener and what it accepted."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await wire.close_accepted(self._inbound)
        self.trace("stop")

    @property
    def alive(self) -> bool:
        return self._alive

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
        frame = wire.encode_message(message)
        queue = self._queues.get(dst)
        if queue is None:
            queue = asyncio.Queue(maxsize=10_000)
            self._queues[dst] = queue
            self._sender_tasks[dst] = asyncio.ensure_future(
                wire.send_frames(queue, self.peer_addresses[dst]))
        try:
            queue.put_nowait((0.0, frame))  # due at once
        except asyncio.QueueFull:
            self.trace("send_dropped", dst=dst, reason="queue_full")

    # schedule and register_handler are defined on this class (not the
    # host): bench/tracer.py wraps them via cls.__dict__.
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> CancelHandle:
        loop = self._loop or asyncio.get_event_loop()
        if delay <= 0:
            # FIFO and off the timer heap: the ProcessingModel is all zeros
            # here, so most protocol steps are zero-delay hand-offs.
            return loop.call_soon(self._fire, fn, args)
        return loop.call_later(delay, self._fire, fn, args)

    def _fire(self, fn: Callable[..., None], args: tuple) -> None:
        if self._alive:
            fn(*args)

    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        self._handlers[kind] = fn

    def trace(self, kind: str, /, **fields: Any) -> None:
        self._trace.record(self.now(), kind, process=self.name, **fields)

    @property
    def traced(self) -> Trace:
        return self._trace

    # -- inbound ----------------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            async for body in wire.read_frames(reader):
                if not self._alive:
                    break
                message = wire.decode_body(body)
                handler = self._handlers.get(message.kind)
                if handler is None:
                    self.trace("unhandled_message", kind=message.kind)
                    continue
                handler(message)
        except (asyncio.CancelledError, ConnectionError):
            pass  # node shutting down or peer gone: just drop the stream
        except wire.WireError as exc:
            self.trace("wire_error", error=str(exc))
        finally:
            writer.close()

    # -- service plumbing --------------------------------------------------------------------

    def _actuate_local(self, command: Command) -> None:
        self.actuations.append(command)
        self.trace("actuation", actuator=command.actuator_id,
                   action=command.action, by=command.issued_by)
        if self._on_actuate is not None:
            self._on_actuate(command)

    def _poll_sensor(self, sensor: str, on_response: Callable[[Event], None]) -> None:
        if self._poll_handler is None:
            self.trace("poll_unserviced", sensor=sensor)
            return
        self._poll_handler(sensor, on_response)
