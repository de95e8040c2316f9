"""The per-host Rivulet process: the simulator's RuntimeEnv implementation.

A :class:`RivuletProcess` is a :class:`~repro.core.stack.ServiceHost` —
which owns the heartbeat, kv, execution and delivery services — on the
simulated home network: it adds the scheduler, the transport endpoint, the
radio adapters and crash/recover.

Crash-recovery semantics (Section 3.1):

- ``crash()`` halts all activity: no messages are sent or received, no
  timers fire (guarded by an incarnation counter), soft state is lost;
- ``recover()`` boots a fresh set of services. The durable event store
  survives, like flash storage would, which is what the Gapless successor
  synchronization relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.delivery_service import DeviceInfo
from repro.core.env import CancelHandle
from repro.core.events import Command, Event
from repro.core.plan import DeploymentPlan
from repro.core.stack import ServiceHost, StackConfig
from repro.devices.adapters import ADAPTER_FACTORIES, AdapterSet
from repro.net.latency import ProcessingModel
from repro.net.message import Message
from repro.net.radio import RadioNetwork, TECHNOLOGIES
from repro.net.transport import HomeNetwork
from repro.core.sensorwatch import SensorWatch
from repro.sim.clock import LocalClock
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


class _GuardedCall:
    """A scheduled callback that is inert after crash or re-incarnation.

    A slotted callable instead of a closure: cheaper per scheduling on the
    delivery hot path, and — unlike a closure — picklable, which the fleet
    checkpoint/restore machinery requires of everything in the scheduler.
    """

    __slots__ = ("_env", "_incarnation", "_fn", "_args")

    def __init__(self, env: "RivuletProcess", fn: Callable[..., None], args: tuple):
        self._env = env
        self._incarnation = env._incarnation
        self._fn = fn
        self._args = args

    def __call__(self) -> None:
        env = self._env
        if env.alive and env._incarnation == self._incarnation:
            self._fn(*self._args)


class _GuardedRepeating(_GuardedCall):
    """Repeating variant: cancels its own timer once the owner is gone."""

    __slots__ = ("_handle",)

    def __init__(self, env: "RivuletProcess", fn: Callable[..., None], args: tuple):
        super().__init__(env, fn, args)
        self._handle: Any = None

    def __call__(self) -> None:
        env = self._env
        if env.alive and env._incarnation == self._incarnation:
            self._fn(*self._args)
        elif self._handle is not None:
            # The owning incarnation is gone; stop the repetition so a
            # crashed process leaves no ticking timers behind.
            self._handle.cancel()


class RivuletProcess(ServiceHost):
    """One Rivulet runtime instance on one smart appliance or hub."""

    def __init__(
        self,
        name: str,
        *,
        scheduler: Scheduler,
        network: HomeNetwork,
        radio: RadioNetwork,
        trace: Trace,
        rng: RandomSource,
        plan: DeploymentPlan,
        device_info: dict[str, DeviceInfo],
        config: StackConfig,
        adapter_technologies: tuple[str, ...] = ("zwave", "zigbee", "ble", "ip"),
        processing: ProcessingModel | None = None,
        clock_skew: float = 0.0,
        modified_openzwave: bool = True,
        sensor_watch: bool = False,
    ) -> None:
        super().__init__(
            name, plan, device_info, config, processing or ProcessingModel(),
            rng.child(f"process/{name}"),
        )
        self._scheduler = scheduler
        self._network = network
        self._radio = radio
        self._trace = trace
        self.clock = LocalClock(scheduler, skew=clock_skew)
        self._adapter_technologies = adapter_technologies
        self._modified_openzwave = modified_openzwave
        self._sensor_watch_enabled = sensor_watch

        # Plain attribute (not a property): the transport reads it on
        # every send and delivery, and stub endpoints in tests set it the
        # same way. Only crash()/recover() write it.
        self.alive = True
        self._incarnation = 0
        self.adapters = AdapterSet()
        self.sensor_watch: SensorWatch | None = None

        network.register(self)
        radio.register_listener(self)

    # -- boot / crash / recover ----------------------------------------------------

    def boot(self) -> None:
        """Create and start all services for the current incarnation."""
        self.adapters = AdapterSet()
        for tech_name in self._adapter_technologies:
            factory = ADAPTER_FACTORIES[tech_name]
            if tech_name == "zwave":
                adapter = factory(
                    self.name, self._radio, self._scheduler,
                    modified_openzwave=self._modified_openzwave,
                )
            else:
                adapter = factory(self.name, self._radio, self._scheduler)
            self.adapters.install(adapter)

        self.boot_services()
        if self._sensor_watch_enabled:
            self.sensor_watch = SensorWatch(
                self, self.plan, self.device_info, self.delivery
            )
            self.sensor_watch.start()
        self.trace("boot", incarnation=self._incarnation)

    def crash(self) -> None:
        """Halt all activity (crash-stop until recovery)."""
        if not self.alive:
            return
        self.alive = False
        self._handlers.clear()
        if self.heartbeat is not None:
            self.heartbeat.stop()
        self._network.liveness_changed()
        self.trace("crash")

    def recover(self) -> None:
        """Come back with fresh soft state; the event store persists."""
        if self.alive:
            return
        self._incarnation += 1
        self.alive = True
        self._network.liveness_changed()
        self.trace("recover", incarnation=self._incarnation)
        self.boot()

    # -- RuntimeEnv implementation -----------------------------------------------------

    @property
    def incarnation(self) -> int:
        """How many times this process has recovered (0 before any crash)."""
        return self._incarnation

    def now(self) -> float:
        return self._scheduler._now

    def local_time(self) -> float:
        return self.clock.time()

    def send(self, dst: str, kind: str, **payload: Any) -> None:
        if not self.alive:
            return
        self._network.send(Message(kind, self.name, dst, payload))

    def multicast(self, dsts: Sequence[str], kind: str, payload: dict) -> None:
        if not self.alive:
            return
        network = self._network
        name = self.name
        # The per-message path (the heartbeat offers its fan-outs to the
        # transport's multicast lane first; this is where a refused one
        # lands). Identical payload, identical wire image: every copy
        # carries the size the transport measured when the payload was
        # registered; an unregistered one is sized by each send.
        wire_bytes = network.multicast_bytes(name, kind, payload)
        for dst in dsts:
            message = Message(kind, name, dst, payload)
            message._wire_bytes = wire_bytes
            network.send(message)

    # schedule, schedule_repeating and register_handler are defined on this
    # class (not the host): bench/tracer.py wraps them via cls.__dict__.
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> CancelHandle:
        return self._scheduler.call_later(delay, _GuardedCall(self, fn, args))

    def schedule_repeating(
        self,
        interval: float,
        fn: Callable[..., None],
        *args: Any,
        first_delay: float | None = None,
    ) -> CancelHandle:
        guarded = _GuardedRepeating(self, fn, args)
        guarded._handle = handle = self._scheduler.post_repeating(
            interval, guarded, first_delay=first_delay
        )
        return handle

    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        self._handlers[kind] = fn

    def trace(self, kind: str, /, **fields: Any) -> None:
        self._trace.record(self._scheduler._now, kind, process=self.name, **fields)

    def trace_device(
        self, kind: str, id_field: str, id_value: str, seq: Any = None
    ) -> None:
        # Same record as trace(kind, <id_field>=id_value, seq=seq) — the
        # digest sorts field keys, so insertion order is immaterial — but
        # routed down Trace.record_device's positional lane.
        self._trace.record_device(
            self._scheduler._now, kind, id_field, id_value,
            process=self.name, seq=seq,
        )

    def trace_row(self, kind: str, names: tuple[str, ...], values: tuple) -> None:
        self._trace.record_row(self._scheduler._now, kind, names, (self.name, *values))

    # -- transport endpoint ------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        if not self.alive:
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.trace("unhandled_message", kind=message.kind, src=message.src)
            return
        handler(message)

    # -- radio listener -------------------------------------------------------------------------

    def on_sensor_event(self, event: Event) -> None:
        """An adapter received an event from a directly linked sensor."""
        if not self.alive or self.delivery is None:
            return
        info = self.device_info.get(event.sensor_id)
        if info is not None and not self.adapters.supports(
            TECHNOLOGIES[info.technology]
        ):
            # No adapter for this technology: the link should not exist, but
            # guard anyway (hardware capability gates active sensor nodes).
            return
        self.delivery.on_ingest(event)

    # -- internal plumbing -------------------------------------------------------------------------

    def _actuate_local(self, command: Command) -> None:
        info = self.device_info.get(command.actuator_id)
        technology = TECHNOLOGIES[info.technology] if info else TECHNOLOGIES["ip"]
        adapter = self.adapters.for_technology(technology)
        adapter.actuate(command)

    def _poll_sensor(self, sensor: str, on_response: Callable[[Event], None]) -> None:
        info = self.device_info.get(sensor)
        technology = TECHNOLOGIES[info.technology] if info else TECHNOLOGIES["ip"]
        adapter = self.adapters.for_technology(technology)

        def guarded(event: Event) -> None:
            if self.alive:
                on_response(event)

        adapter.poll(sensor, guarded)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<RivuletProcess {self.name} ({state}, inc={self._incarnation})>"
