"""LocalCluster: a whole Rivulet home on localhost TCP ports.

Mirrors :class:`repro.core.home.Home` for the asyncio runtime: declare
processes, software sensors/actuators, deploy apps, start everything, then
inject events and observe actuations — over real sockets.

    cluster = LocalCluster()
    cluster.add_process("hub")
    cluster.add_process("tv")
    cluster.add_push_sensor("door1", receivers=["tv"])
    cluster.add_actuator("light1", hosts=["hub"])
    cluster.deploy(app)
    async with cluster:
        cluster.emit("door1", True)
        await cluster.wait_for(lambda: cluster.node("hub").actuations)
        assert cluster.node("hub").actuations

The cluster is also the rt observation pipeline: every node records into
one shared :class:`~repro.sim.tracing.Trace`, the cluster itself records
the device/fault envelope (``sensor_emit``, ``poll_served``, ``crash``,
``partition``/``partition_healed``) with the same fields the simulator
uses, and :meth:`run_record` assembles a runtime-agnostic
:class:`~repro.core.invariants.RunRecord` that the standard oracles and
metrics consume unchanged. Everything is stamped on the harness's run
clock as it is recorded, so the record is a live view: its ``trace`` *is*
``cluster.trace``, and nothing is copied or rebased. That trace keeps only
the oracle kinds (see :mod:`repro.rt.harness`); every other kind is
counted.

With ``use_proxy=True`` every inter-node connection is routed through a
:class:`~repro.rt.proxy.FaultProxy`, enabling per-peer loss/delay/partition
injection against real TCP traffic (and ``net_send`` overhead accounting).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import socket
from typing import Any, Callable, Sequence

from repro.core.events import Command, Event
from repro.core.graph import App, validate_apps
from repro.core.invariants import GroundTruth, RunRecord
from repro.core.scenario import RT_POLL_SERVICE_S, Scenario, rt_deployment
from repro.core.stack import RT_STACK
from repro.rt import wire
from repro.rt.harness import RtHarness
from repro.rt.node import AsyncRivuletNode, PollHandler
from repro.sim.schema import QUIESCE, tagged


def bound_socket() -> socket.socket:
    """A TCP socket bound to an OS-chosen localhost port, not yet listening.

    While it stays open nobody else is handed that port — neither another
    process nor this one's own ephemeral listeners (the fault proxy's). No
    SO_REUSEADDR: Linux lets two such sockets share a port until one listens.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    return sock


#: Trace kinds whose counts constitute "protocol activity" for
#: :meth:`LocalCluster.quiesce` — heartbeat chatter never settles, but
#: event propagation, app delivery, and actuation do.
QUIESCE_KINDS: tuple[str, ...] = tagged(QUIESCE)


class LocalCluster(RtHarness):
    """A set of AsyncRivuletNode processes on localhost."""

    nodes: dict[str, AsyncRivuletNode]

    # __init__ and emit are entries of this class's own __dict__:
    # bench/tracer.py wraps them through it.
    def __init__(self, *, seed: int = 42, use_proxy: bool = False, **stack: Any) -> None:
        """``stack`` overrides :data:`~repro.core.stack.RT_STACK` field by
        field; every node boots from the resulting ``config``."""
        super().__init__(seed=seed, use_proxy=use_proxy)
        self.config = dataclasses.replace(RT_STACK, **stack)
        self._process_names: list[str] = []
        self._push_receivers: dict[str, list[str]] = {}
        self._poll_receivers: dict[str, list[str]] = {}
        #: poll sensor -> (service time, default epoch)
        self._poll_timing: dict[str, tuple[float, float]] = {}
        self._actuator_hosts: dict[str, list[str]] = {}
        self._poll_handlers: dict[str, PollHandler] = {}
        self._apps: list[App] = []
        self._actuation_log: list[tuple[str, tuple, float]] = []
        self._applied_log: list[tuple[str, str, Any, float]] = []
        self._started = False

    # -- declaration ---------------------------------------------------------------

    def add_process(self, name: str) -> "LocalCluster":
        self._process_names.append(name)
        return self

    def _hosts(self, hosts: list[str] | None) -> list[str]:
        """``None`` is every process; an empty list is none."""
        return list(self._process_names) if hosts is None else hosts

    def add_push_sensor(
        self, name: str, *, receivers: list[str] | None = None
    ) -> "LocalCluster":
        """A software push sensor; events are injected at the receivers
        (:meth:`emit` sizes each one). ``None`` means every process; an
        empty list none, as ``Home.add_sensor(processes=)`` has it."""
        self._push_receivers[name] = self._hosts(receivers)
        return self

    def add_poll_sensor(
        self,
        name: str,
        handler: PollHandler,
        *,
        receivers: list[str] | None = None,
        service_time: float = 0.2,
        default_epoch: float = 1.0,
    ) -> "LocalCluster":
        """A polled sensor: ``handler(sensor, respond)`` answers each poll.

        Stamp the reading's ``emitted_at`` with :meth:`now`, the run clock
        the nodes read: polling derives a reading's epoch from it, and the
        delivery services its delay and staleness. ``loop.time()`` is not
        that clock.
        """
        self._poll_receivers[name] = self._hosts(receivers)
        self._poll_timing[name] = (service_time, default_epoch)
        self._poll_handlers[name] = handler
        return self

    def add_actuator(self, name: str, *, hosts: list[str] | None = None) -> "LocalCluster":
        self._actuator_hosts[name] = self._hosts(hosts)
        return self

    def deploy(self, app: App) -> "LocalCluster":
        self._apps.append(app)
        validate_apps(self._apps)
        return self

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        plan, device_info = rt_deployment(
            self._process_names, {**self._push_receivers, **self._poll_receivers},
            self._poll_timing, self._actuator_hosts, self._apps,
        )
        # Bound before the proxy opens its ephemeral listeners and handed
        # to the nodes still open, so no port is ever given out twice.
        listeners = {name: bound_socket() for name in self._process_names}
        addresses = {name: sock.getsockname() for name, sock in listeners.items()}
        await self._start_proxy(addresses)

        def make_poll_router() -> PollHandler:
            def route(sensor: str, respond) -> None:
                handler = self._poll_handlers.get(sensor)
                if handler is not None:
                    handler(sensor, self._traced_responder(sensor, respond))

            return route

        for name in self._process_names:
            node = AsyncRivuletNode(
                name,
                addresses[name][1],
                self._peer_addresses(name, addresses),
                plan,
                device_info,
                self.config,
                seed=self.seed,
                on_actuate=self._record_actuation,
                poll_handler=make_poll_router(),
                trace=self.trace,
                origin=self._t0,
            )
            self.nodes[name] = node
        for name, node in self.nodes.items():
            await node.start(listeners[name])

    async def stop(self) -> None:
        # Dialers before the listeners they dial (nodes -> proxy -> nodes),
        # with the loop given time to hand over what was already accepted:
        # a listener closed under a half-accepted connection leaks it.
        nodes = [node for node in self.nodes.values() if node.alive]
        for node in nodes:
            await node.halt()
        await wire.accepts_handed_over()
        if self.proxy is not None:
            await self.proxy.stop()
            await wire.accepts_handed_over()
        for node in nodes:
            await node.close()
        self._started = False

    # -- driving ---------------------------------------------------------------------------

    def node(self, name: str) -> AsyncRivuletNode:
        return self.nodes[name]

    emit = RtHarness.emit  # an own __dict__ entry (see __init__)

    def _traced_responder(
        self, sensor: str, respond: Callable[[Event], None]
    ) -> Callable[[Event], None]:
        def traced(event: Event) -> None:
            self.trace.record(self.now(), "poll_served",
                              sensor=sensor, seq=event.seq)
            respond(event)

        return traced

    def _record_actuation(self, command: Command) -> None:
        now = self.now()
        self._actuation_log.append(
            (command.actuator_id, command.command_id, now)
        )
        self._applied_log.append(
            (command.actuator_id, command.action, command.value, now)
        )

    # -- waiting ---------------------------------------------------------------------------

    async def quiesce(
        self,
        *,
        idle_for: float = 0.3,
        timeout: float = 10.0,
        poll: float = 0.05,
        kinds: Sequence[str] = QUIESCE_KINDS,
    ) -> bool:
        """Wait until protocol activity stops for ``idle_for`` seconds.

        The cluster is considered quiescent once no new trace record of
        any activity kind has appeared for a continuous ``idle_for``
        window. Returns True when quiescent, False if ``timeout`` elapsed
        first (callers that require quiescence should assert on the result).
        """
        count = self.trace.count

        async def counts() -> tuple[int, ...]:
            return tuple(count(kind) for kind in kinds)

        return await self._until_idle(
            counts, idle_for=idle_for, timeout=timeout, poll=poll,
        )

    # -- fault injection -------------------------------------------------------------------

    async def _kill(self, node: AsyncRivuletNode) -> None:
        """The in-process analogue of SIGKILL."""
        await node.stop()

    # -- observation ------------------------------------------------------------------------

    def run_record(
        self,
        *,
        ground_truth: GroundTruth | None = None,
        fault_free: bool | None = None,
        lossless: bool | None = None,
    ) -> RunRecord:
        """The run so far as a runtime-agnostic record over the live trace.

        The same structure ``RunRecord.from_home`` yields for a simulated
        run: the trace is ``self.trace`` itself (already run-relative), and
        liveness/views/delivery modes are snapshotted straight off the
        node objects (they host the identical service stack). Feed it to
        :func:`repro.core.invariants.check_all` or
        :mod:`repro.eval.metrics` unchanged, before :meth:`stop`: the
        snapshot is taken now, but the trace grows until the nodes halt.
        """
        from repro.core.records import build_run_record

        return build_run_record(
            self.trace,
            processes=self.nodes,
            apps=self._apps,
            actuations=list(self._actuation_log),
            applied_actions=list(self._applied_log),
            ground_truth=ground_truth,
            fault_free=self._fault_free if fault_free is None else fault_free,
            lossless=self._lossless if lossless is None else lossless,
        )


def thermometer_reading(sensor: str, seq: int, now: float) -> Event:
    """Deterministic poll reading shared by rt poll handlers."""
    return Event(sensor_id=sensor, seq=seq, emitted_at=now,
                 value=21.0 + (seq % 5) * 0.5, size_bytes=4)


def build_cluster(
    scenario: Scenario, *, seed: int, use_proxy: bool = True
) -> LocalCluster:
    """The scenario as an in-process asyncio cluster (not yet started)."""
    cluster = LocalCluster(seed=seed, use_proxy=use_proxy, **scenario.stack_fields())
    for name in scenario.processes:
        cluster.add_process(name)
    for sensor, receivers in scenario.push_sensors.items():
        cluster.add_push_sensor(sensor, receivers=list(receivers))
    for sensor, receivers in scenario.poll_sensors.items():
        seq = itertools.count(1)

        def handler(name: str, respond, _seq=seq) -> None:
            respond(thermometer_reading(name, next(_seq), cluster.now()))

        cluster.add_poll_sensor(
            sensor, handler, receivers=list(receivers),
            service_time=RT_POLL_SERVICE_S, default_epoch=scenario.poll_epoch_s,
        )
    for actuator, hosts in scenario.actuators.items():
        cluster.add_actuator(actuator, hosts=list(hosts))
    for app in scenario.make_apps():
        cluster.deploy(app)
    return cluster
