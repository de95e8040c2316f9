"""The delivery service: per-sensor protocol instances plus command routing.

This is the per-process orchestrator of Section 4. It owns one protocol
instance per sensor (Gapless ring, Gap chain, or the naive-broadcast
baseline), one :class:`~repro.core.polling.PollCoordinator` per locally
reachable poll-based sensor, the reliable-broadcast fallback, and the
forwarding of actuation commands toward processes hosting active actuator
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.broadcast import NBCAST, NaiveBroadcastDelivery, ReliableBroadcast
from repro.core.delivery import (
    Delivery,
    EpochGap,
    GAPLESS,
    PollingPolicy,
    PollMode,
)
from repro.core.eventlog import EventStore
from repro.core.events import Command, Event
from repro.core.gap import GAP_FWD, GapDelivery
from repro.core.gapless import (
    GAPLESS_FWD,
    GAPLESS_SYNC_QUERY,
    GAPLESS_SYNC_REPLY,
    GaplessDelivery,
)
from repro.core.env import RuntimeEnv
from repro.core.plan import DeploymentPlan
from repro.core.polling import PollCoordinator
from repro.membership.heartbeat import HeartbeatService
from repro.membership.views import LocalView
from repro.net.latency import ProcessingModel
from repro.net.message import Message
from repro.sim.tracing import DeviceChannel

CMD_FWD = "cmd_fwd"

EVENT_CARRYING_KINDS = frozenset({GAPLESS_FWD, GAP_FWD, NBCAST, "rbcast"})
"""Message kinds that carry event payloads — the Fig. 5 accounting set."""


@dataclass(frozen=True)
class DeviceInfo:
    """What a process knows about one device from the deployment plan."""

    name: str
    category: str  # "sensor" | "actuator"
    mode: str = "push"  # "push" | "poll" (sensors only)
    technology: str = "ip"
    service_time: float | None = None
    default_epoch: float | None = None


@dataclass
class GaplessOptions:
    """Ablation switches for the Gapless protocol (all on = the paper)."""

    fallback_enabled: bool = True
    sync_enabled: bool = True


@dataclass
class DeliveryContext:
    """Everything a delivery protocol instance needs from its process."""

    env: RuntimeEnv
    heartbeat: HeartbeatService
    plan: DeploymentPlan
    store: EventStore
    processing: ProcessingModel
    deliver_local: Callable[[str, Event, str | None], None]
    on_epoch_gap: Callable[[str, EpochGap], None]
    actuate_local: Callable[[Command], None]
    poll_sensor: Callable[[str, Callable[[Event], None]], None]
    device_info: dict[str, DeviceInfo] = field(default_factory=dict)
    active_replicas: int = 1
    """Concurrent active logic nodes per app (1 = the paper's primary-
    secondary; >1 = the active-replication extension)."""


class _Router:
    """Route one message kind to the per-sensor delivery instance.

    A slot-based callable rather than a closure so a running home (whose
    handler tables reference these) stays picklable for checkpointing.
    """

    __slots__ = ("_service", "_method")

    def __init__(self, service: "DeliveryService", method: str) -> None:
        self._service = service
        self._method = method

    def __call__(self, message: "Message") -> None:
        service = self._service
        instance = service._instances.get(message["sensor"])
        if instance is None:
            return
        bound = getattr(instance, self._method, None)
        if bound is None:
            # e.g. a stray sync message for a sensor now configured Gap.
            service._ctx.env.trace(
                "misrouted_message", kind=message.kind, sensor=message["sensor"]
            )
            return
        bound(message)


class DeliveryService:
    """Per-process delivery orchestration."""

    def __init__(
        self,
        ctx: DeliveryContext,
        *,
        delivery_override: dict[str, str] | None = None,
        gapless_options: GaplessOptions | None = None,
        poll_mode_override: PollMode | None = None,
    ) -> None:
        self._ctx = ctx
        self._override = dict(delivery_override or {})
        self._gapless_options = gapless_options or GaplessOptions()
        self._poll_mode_override = poll_mode_override
        self._instances: dict[str, object] = {}
        self._coordinators: dict[str, PollCoordinator] = {}
        self._rb: ReliableBroadcast | None = None
        # sensor -> ingest_unrouted trace channel (see on_ingest; with no
        # app routing installed, every ingested event records one, so the
        # fleet tier hits this lane constantly). The channel needs the
        # simulator trace and clock; duck-typed like the heartbeat's fast
        # path, so stub/real-time envs without them keep the generic
        # trace_device route.
        self._unrouted: dict[str, DeviceChannel] = {}
        env = ctx.env
        self._fast_trace = getattr(env, "_trace", None)
        self._fast_sched = getattr(env, "_scheduler", None)
        if self._fast_sched is None:
            self._fast_trace = None

    @property
    def instances(self) -> dict[str, object]:
        return dict(self._instances)

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        env = self._ctx.env
        env.register_handler(GAPLESS_FWD, self._route("on_message"))
        env.register_handler(GAPLESS_SYNC_QUERY, self._route("on_sync_query"))
        env.register_handler(GAPLESS_SYNC_REPLY, self._route("on_sync_reply"))
        env.register_handler(GAP_FWD, self._route("on_message"))
        env.register_handler(NBCAST, self._route("on_message"))
        env.register_handler(CMD_FWD, self._on_cmd_fwd)
        self._rb = ReliableBroadcast(self._ctx, on_deliver=self._on_rb_deliver)

        for app in self._ctx.plan.apps:
            for sensor, requirement in app.sensor_requirements().items():
                if sensor not in self._instances:
                    self._instances[sensor] = self._make_instance(
                        sensor, requirement.delivery
                    )
        for instance in self._instances.values():
            instance.start()
        self._ctx.heartbeat.add_view_listener(self._on_view_change)
        self._start_poll_coordinators()

    def _make_instance(self, sensor: str, guarantee: Delivery):
        mode = self._override.get(
            sensor, "gapless" if guarantee is GAPLESS else "gap"
        )
        if mode == "gapless":
            return GaplessDelivery(
                self._ctx, sensor, self._rb,
                fallback_enabled=self._gapless_options.fallback_enabled,
                sync_enabled=self._gapless_options.sync_enabled,
            )
        if mode == "gap":
            return GapDelivery(self._ctx, sensor)
        if mode == "naive-broadcast":
            return NaiveBroadcastDelivery(self._ctx, sensor)
        raise ValueError(f"unknown delivery mode {mode!r} for sensor {sensor!r}")

    def _start_poll_coordinators(self) -> None:
        me = self._ctx.env.name
        for app in self._ctx.plan.apps:
            for sensor, requirement in app.sensor_requirements().items():
                info = self._ctx.device_info.get(sensor)
                if info is None or info.mode != "poll":
                    continue
                if sensor in self._coordinators:
                    continue
                if not self._ctx.plan.has_active_sensor_node(sensor, me):
                    continue  # shadow sensor nodes never poll
                policy = requirement.polling or PollingPolicy(
                    epoch_s=info.default_epoch or (info.service_time or 1.0) * 3
                )
                coordinator = PollCoordinator(
                    self._ctx,
                    sensor,
                    policy,
                    self._resolve_poll_mode(policy, requirement.delivery),
                    info.service_time or 0.5,
                    self._instances[sensor],
                    self._ctx.poll_sensor,
                )
                self._coordinators[sensor] = coordinator
                coordinator.start()

    def _resolve_poll_mode(
        self, policy: PollingPolicy, guarantee: Delivery
    ) -> PollMode:
        if self._poll_mode_override is not None:
            return self._poll_mode_override
        if policy.mode is not None:
            return policy.mode
        return PollMode.COORDINATED if guarantee is GAPLESS else PollMode.SINGLE

    # -- inbound ----------------------------------------------------------------------------

    def on_ingest(self, event: Event) -> None:
        """Direct sensor receipt, handed up from the adapter layer."""
        instance = self._instances.get(event.sensor_id)
        if instance is None:
            # Same record as trace("ingest_unrouted", sensor=..., seq=...).
            trace = self._fast_trace
            if trace is None:
                self._ctx.env.trace_device("ingest_unrouted", event.sensor_id, event.seq)
                return
            channel = self._unrouted.get(event.sensor_id)
            if channel is None:
                self._unrouted[event.sensor_id] = channel = trace.device_channel(
                    "ingest_unrouted", event.sensor_id, self._ctx.env.name
                )
            channel.record(self._fast_sched._now, event.seq)
            return
        instance.on_ingest(event)

    def _route(self, method: str) -> Callable[[Message], None]:
        return _Router(self, method)

    def _on_rb_deliver(self, sensor: str, event: Event) -> None:
        instance = self._instances.get(sensor)
        if isinstance(instance, GaplessDelivery):
            instance.on_broadcast_deliver(event)

    def _on_view_change(
        self, view: LocalView, added: frozenset, removed: frozenset
    ) -> None:
        for instance in self._instances.values():
            instance.on_view_change(view, added, removed)

    # -- actuation ----------------------------------------------------------------------------

    def send_command(self, command: Command, app_name: str, guarantee: Delivery) -> None:
        """Route a command toward a process with an active actuator node.

        Commands are delivered through the first live active actuator host;
        under GAPLESS the command is additionally re-sent to the next live
        host if the first is suspected within the command's lifetime — the
        "analogous" treatment Section 4 sketches for the actuator side.
        """
        me = self._ctx.env.name
        plan = self._ctx.plan
        if plan.has_active_actuator_node(command.actuator_id, me):
            self._ctx.actuate_local(command)
            return
        view = self._ctx.heartbeat.view
        hosts = [
            h
            for h in plan.active_actuator_hosts(command.actuator_id)
            if h in view.members
        ]
        if not hosts:
            self._ctx.env.trace(
                "command_unroutable", actuator=command.actuator_id, app=app_name,
            )
            return
        self._ctx.env.send(
            hosts[0], CMD_FWD, actuator=command.actuator_id,
            command=command, app=app_name,
        )
        if guarantee is GAPLESS and len(hosts) > 1:
            # Cheap redundancy for the stronger guarantee: if the primary
            # actuator host is suspected shortly after, re-route. The check
            # runs after the detector has had time to conclude (timeout plus
            # a couple of keep-alive rounds).
            recheck_after = (
                self._ctx.heartbeat.timeout + 2 * self._ctx.heartbeat.interval
            )
            self._ctx.env.defer(
                recheck_after,
                self._resend_if_suspected, command, app_name, hosts[0],
            )

    def _resend_if_suspected(
        self, command: Command, app_name: str, first_host: str
    ) -> None:
        if self._ctx.heartbeat.is_alive(first_host):
            return
        self._ctx.env.trace(
            "command_rerouted", actuator=command.actuator_id, app=app_name,
        )
        self.send_command(command, app_name, GAPLESS)

    def _on_cmd_fwd(self, message: Message) -> None:
        command: Command = message["command"]
        if not self._ctx.plan.has_active_actuator_node(
            command.actuator_id, self._ctx.env.name
        ):
            self._ctx.env.trace(
                "command_misrouted", actuator=command.actuator_id,
            )
            return
        self._ctx.actuate_local(command)
