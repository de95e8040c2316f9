"""The per-process service stack: its configuration and the host that boots it.

Section 3.3: every process boots the same delivery + execution stack from
the static deployment plan. What that stack is booted *with* is one value,
:class:`StackConfig` (a :class:`~repro.core.home.HomeConfig` is one); what
boots it is one class, :class:`ServiceHost`. The simulator's
:class:`~repro.core.runtime.RivuletProcess` and the asyncio
:class:`~repro.rt.node.AsyncRivuletNode` subclass the host and add only how
they move bytes and time; nothing else in ``src/`` constructs a service.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from repro.core.delivery import EpochGap, PollMode
from repro.core.delivery_service import (
    DeliveryContext,
    DeliveryService,
    DeviceInfo,
    GaplessOptions,
)
from repro.core.env import RuntimeEnv
from repro.core.eventlog import EventStore
from repro.core.events import Command, Event
from repro.core.execution import ExecutionService
from repro.core.plan import DeploymentPlan
from repro.membership.heartbeat import HeartbeatService
from repro.net.latency import ProcessingModel
from repro.net.message import Message
from repro.sim.random import RandomSource
from repro.storage.kv import ReplicatedStore, StoreBackend


@dataclass
class StackConfig:
    """What a process's service stack is booted with (sim defaults: the
    paper's testbed)."""

    heartbeat_interval: float = 0.5
    failure_detection_s: float = 2.0
    """The paper's failure-detection time threshold (Section 8.4)."""

    delivery_override: dict[str, str] = field(default_factory=dict)
    """Per-sensor protocol override: "gap" | "gapless" | "naive-broadcast"."""

    gapless_options: GaplessOptions = field(default_factory=GaplessOptions)
    poll_mode_override: PollMode | None = None

    active_replicas: int = 1
    """Concurrent active logic nodes per app (>1 = active replication)."""

    kv_sync_interval: float = 5.0
    """Anti-entropy period of the replicated state store."""


#: Where the real runtime's defaults differ: keep-alives over localhost TCP
#: are cheap, and a test should see a crash detected in well under a second.
RT_STACK = StackConfig(heartbeat_interval=0.15, failure_detection_s=0.6)

#: The change-time build counters ``Home.stats()`` reports, by service slot.
SERVICE_COUNTERS: tuple[tuple[str, str], ...] = (
    ("execution", "watermark_builds"), ("heartbeat", "payload_builds"),
    ("heartbeat", "view_builds"), ("execution", "route_builds"),
)


class ServiceHost(RuntimeEnv):
    """One named process hosting one incarnation of the service stack.

    Owns everything the two runtimes share: identity, plan, device table,
    configuration, random streams, the handler table, the durable ``store``
    / ``kv_backend`` (they outlive a crash) and the four service slots
    ``heartbeat`` / ``kv`` / ``execution`` / ``delivery`` — one
    incarnation's soft state, the surface
    :func:`repro.core.records.snapshot_processes` reads off either runtime.
    """

    def __init__(
        self,
        name: str,
        plan: DeploymentPlan,
        device_info: dict[str, DeviceInfo],
        config: StackConfig,
        processing: ProcessingModel,
        rng_root: RandomSource,
    ) -> None:
        self.name = name
        self.plan = plan
        self.device_info = device_info
        self.config = config
        self.processing = processing
        self._rng_root = rng_root
        self._rng_streams: dict[str, RandomSource] = {}
        # The deployment plan is fixed for the lifetime of a run.
        self._peers = [p for p in plan.processes if p != name]
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self.store = EventStore(name)
        self.kv_backend = StoreBackend(name)
        self.heartbeat: HeartbeatService | None = None
        self.kv: ReplicatedStore | None = None
        self.execution: ExecutionService | None = None
        self.delivery: DeliveryService | None = None
        self._retired_counters = dict.fromkeys(
            (counter for _, counter in SERVICE_COUNTERS), 0
        )

    def boot_services(self) -> None:
        """Create, install and start heartbeat, kv, execution and delivery.

        All four are installed before any of them starts: the callbacks
        handed to them, and any handler registered during a ``start()``,
        reach the others through ``self``. The stack being replaced (a
        recovery) first leaves its build counters behind.
        """
        self._retired_counters = self.service_counters()
        config = self.config
        replicas = config.active_replicas
        self.heartbeat = heartbeat = HeartbeatService(
            self, interval=config.heartbeat_interval, timeout=config.failure_detection_s
        )
        ctx = DeliveryContext(
            env=self,
            heartbeat=heartbeat,
            plan=self.plan,
            store=self.store,
            processing=self.processing,
            deliver_local=self._deliver_to_logic,
            on_epoch_gap=self._on_epoch_gap,
            actuate_local=self._actuate_local,
            poll_sensor=self._poll_sensor,
            device_info=self.device_info,
            active_replicas=replicas,
        )
        self.kv = kv = ReplicatedStore(
            self, heartbeat, self.kv_backend, sync_interval=config.kv_sync_interval
        )
        self.execution = execution = ExecutionService(
            self, heartbeat, self.plan, self.store, self.processing,
            kv=kv, active_replicas=replicas,
        )
        self.delivery = delivery = DeliveryService(
            ctx,
            delivery_override=config.delivery_override,
            gapless_options=config.gapless_options,
            poll_mode_override=config.poll_mode_override,
        )
        execution.bind_delivery(delivery)
        # Handlers must exist before the first message can arrive.
        heartbeat.start()
        kv.start()
        delivery.start()
        execution.start()

    def service_counters(self) -> dict[str, int]:
        """Each build counter, summed over every incarnation so far."""
        totals = dict(self._retired_counters)
        for slot, counter in SERVICE_COUNTERS:
            service = getattr(self, slot)
            if service is not None:
                totals[counter] += getattr(service, counter)
        return totals

    # -- RuntimeEnv: what does not depend on how bytes and time move -----------

    def rng(self, stream: str) -> RandomSource:
        cached = self._rng_streams.get(stream)
        if cached is None:
            cached = self._rng_root.child(stream)
            self._rng_streams[stream] = cached
        return cached

    def peers(self) -> list[str]:
        return self._peers

    # -- what the services call back into --------------------------------------

    def _deliver_to_logic(self, sensor: str, event: Event, only_app: str | None) -> None:
        if self.execution is not None:
            self.execution.on_event(sensor, event, only_app)

    def _on_epoch_gap(self, sensor: str, gap: EpochGap) -> None:
        if self.execution is not None:
            self.execution.on_epoch_gap(sensor, gap)

    @abc.abstractmethod
    def _actuate_local(self, command: Command) -> None:
        """Hand ``command`` to the locally attached actuator."""

    @abc.abstractmethod
    def _poll_sensor(self, sensor: str, on_response: Callable[[Event], None]) -> None:
        """Poll a locally attached sensor; ``on_response`` gets its reading."""
