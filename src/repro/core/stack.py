"""The per-process service stack, assembled once for every runtime.

Section 3.3: every process boots the same delivery + execution stack from
the static deployment plan. The simulator's
:class:`~repro.core.runtime.RivuletProcess` and the asyncio
:class:`~repro.rt.node.AsyncRivuletNode` differ in how they move bytes and
time, not in what they run, so both call :func:`boot_services`.
"""

from __future__ import annotations

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
from repro.storage.kv import ReplicatedStore, StoreBackend


def boot_services(
    env: RuntimeEnv,
    plan: DeploymentPlan,
    store: EventStore,
    kv_backend: StoreBackend,
    processing: ProcessingModel,
    device_info: dict[str, DeviceInfo],
    deliver_local: Callable[[str, Event, str | None], None],
    on_epoch_gap: Callable[[str, EpochGap], None],
    actuate_local: Callable[[Command], None],
    poll_sensor: Callable[[str, Callable[[Event], None]], None],
    *,
    heartbeat_interval: float,
    failure_detection_s: float,
    delivery_override: dict[str, str] | None = None,
    gapless_options: GaplessOptions | None = None,
    poll_mode_override: PollMode | None = None,
    active_replicas: int = 1,
    kv_sync_interval: float = 5.0,
) -> None:
    """Create, install and start heartbeat, kv, execution and delivery.

    ``store`` and ``kv_backend`` are the durable halves that outlive a
    crash; the four services are one incarnation's soft state. They are
    installed as ``env.heartbeat`` / ``.kv`` / ``.execution`` /
    ``.delivery`` — the surface :func:`repro.core.records.snapshot_processes`
    reads off either runtime — before any of them starts, because the
    callbacks handed in here reach them through ``env``.
    """
    env.heartbeat = heartbeat = HeartbeatService(
        env, interval=heartbeat_interval, timeout=failure_detection_s
    )
    ctx = DeliveryContext(
        env=env,
        heartbeat=heartbeat,
        plan=plan,
        store=store,
        processing=processing,
        deliver_local=deliver_local,
        on_epoch_gap=on_epoch_gap,
        actuate_local=actuate_local,
        poll_sensor=poll_sensor,
        device_info=device_info,
        active_replicas=active_replicas,
    )
    env.kv = kv = ReplicatedStore(env, heartbeat, kv_backend, sync_interval=kv_sync_interval)
    env.execution = execution = ExecutionService(
        env, heartbeat, plan, store, processing,
        kv=kv, active_replicas=active_replicas,
    )
    env.delivery = delivery = DeliveryService(
        ctx,
        delivery_override=delivery_override,
        gapless_options=gapless_options,
        poll_mode_override=poll_mode_override,
    )
    execution.bind_delivery(delivery)
    # Handlers must exist before the first message can arrive.
    heartbeat.start()
    kv.start()
    delivery.start()
    execution.start()
