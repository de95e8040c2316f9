"""Coordinated polling of poll-based sensors (Section 4.1, Fig. 8).

Each process hosting an *active* sensor node for a poll-based sensor runs a
:class:`PollCoordinator`. Within every application epoch of length ``e``:

- **coordinated** (Gapless default): active sensor node ``i`` of ``n``
  schedules its poll at offset ``i * e / n`` — no inter-process agreement
  needed, the slots come from the static deployment plan. A node cancels
  its scheduled poll the moment the epoch's event reaches it (its own poll
  response or ring forwarding), so in the failure-free case the sensor is
  polled once per epoch.
- **uncoordinated** (the Fig. 8 baseline): every node polls at a uniformly
  random offset, cancelling only if the event happened to arrive first.
- **single** (Gap default): only the chain-closest active sensor node
  polls, at the start of each epoch; when it crashes, the next node in the
  chain takes over after failure detection.

A poll that yields nothing (lost request/response, sensor busy-drop or
glitch) is retried within the slot up to ``policy.retries`` times. An epoch
ending with no event at all is surfaced to the application as an
:class:`~repro.core.delivery.EpochGap` — the paper's "notify the application
by throwing an exception".
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Callable

from repro.core.delivery import EpochGap, PollingPolicy, PollMode
from repro.core.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryContext

GAP_CHECK_GRACE_FRACTION = 0.3
"""How far into the next epoch we wait before declaring an epoch gap."""


class PollCoordinator:
    """Per-(sensor, process) polling schedule for one poll-based sensor."""

    def __init__(
        self,
        ctx: "DeliveryContext",
        sensor: str,
        policy: PollingPolicy,
        mode: PollMode,
        service_time: float,
        delivery,  # a Gap/Gapless/NaiveBroadcast delivery instance
        adapter_poll: Callable[[str, Callable[[Event], None]], None],
    ) -> None:
        self._ctx = ctx
        self.sensor = sensor
        self.policy = policy
        self.mode = mode
        self.service_time = service_time
        self._delivery = delivery
        self._adapter_poll = adapter_poll
        self._rng = ctx.env.rng(f"poll/{sensor}")

        hosts = ctx.plan.active_sensor_hosts(sensor)
        if ctx.env.name not in hosts:
            raise ValueError(
                f"{ctx.env.name!r} has no active sensor node for {sensor!r}"
            )
        self.slot_index = hosts.index(ctx.env.name)
        self.slot_count = len(hosts)

        self._epochs_with_event: set[int] = set()
        self._poll_handle = None
        self._retry_handle = None
        self._boundary_handle = None
        self._current_epoch = -1
        self.polls_issued = 0

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self._delivery.add_seen_listener(self._on_event_seen)
        e = self.policy.epoch_s
        now = self._ctx.env.now()
        epoch = math.floor(now / e)
        # One repeating timer drives all epoch boundaries (no per-epoch
        # timer allocation); polls and gap checks remain one-shots because
        # their offsets vary per epoch.
        self._boundary_handle = self._ctx.env.schedule_repeating(
            e, self._next_epoch,
            first_delay=max(0.0, (epoch + 1) * e - now),
        )
        self._begin_epoch(epoch)

    # -- epoch machinery ----------------------------------------------------------------

    def _next_epoch(self) -> None:
        self._begin_epoch(self._current_epoch + 1)

    def _begin_epoch(self, epoch: int) -> None:
        e = self.policy.epoch_s
        now = self._ctx.env.now()
        self._current_epoch = epoch
        next_boundary = (epoch + 1) * e
        gap_check_at = next_boundary + GAP_CHECK_GRACE_FRACTION * e
        self._ctx.env.defer(max(0.0, gap_check_at - now),
                            self._check_epoch_gap, epoch)

        offset = self._slot_offset()
        if offset is None:
            return
        poll_at = epoch * e + offset
        self._poll_handle = self._ctx.env.schedule(
            max(0.0, poll_at - now), self._poll, epoch, self._retries_allowed()
        )

    def _slot_offset(self) -> float | None:
        """Where in the epoch this node polls; None means it never does."""
        e = self.policy.epoch_s
        if self.mode is PollMode.COORDINATED:
            return self.slot_index * e / self.slot_count
        if self.mode is PollMode.UNCOORDINATED:
            return self._rng.uniform(0.0, e * 0.999)
        if self.mode is PollMode.SINGLE:
            owner = self._poll_owner()
            return 0.0 if owner == self._ctx.env.name else None
        raise AssertionError(f"unhandled poll mode {self.mode}")

    def _poll_owner(self) -> str | None:
        """SINGLE mode: the chain-closest live active sensor node."""
        view = self._ctx.heartbeat.view
        poll_owner_for = getattr(self._delivery, "forwarder_for", None)
        if poll_owner_for is not None:
            apps = sorted(
                app.name for app in self._ctx.plan.apps_consuming(self.sensor)
            )
            if apps:
                return poll_owner_for(apps[0], view)
        # Fallback for delivery modes without a chain: first live host.
        for host in self._ctx.plan.active_sensor_hosts(self.sensor):
            if host in view.members:
                return host
        return None

    def _retries_allowed(self) -> int:
        if self.mode is PollMode.UNCOORDINATED:
            return 0  # the baseline issues exactly one request per epoch
        return self.policy.retries

    # -- polling ------------------------------------------------------------------------

    def _poll(self, epoch: int, retries_left: int) -> None:
        if epoch in self._epochs_with_event or epoch != self._current_epoch:
            return
        self.polls_issued += 1
        self._ctx.env.trace("poll_issued", sensor=self.sensor, epoch=epoch,
                            mode=self.mode.value)
        self._adapter_poll(self.sensor, self._on_response)
        if retries_left > 0:
            retry_after = self.service_time * 1.3 + 0.1
            self._retry_handle = self._ctx.env.schedule(
                retry_after, self._poll, epoch, retries_left - 1
            )

    def _on_response(self, event: Event) -> None:
        epoch = math.floor(event.emitted_at / self.policy.epoch_s)
        tagged = dataclasses.replace(event, epoch=epoch)
        self._delivery.on_ingest(tagged)

    def _on_event_seen(self, event: Event) -> None:
        epoch = (
            event.epoch
            if event.epoch is not None
            else math.floor(event.emitted_at / self.policy.epoch_s)
        )
        self._epochs_with_event.add(epoch)
        if epoch == self._current_epoch:
            if self._poll_handle is not None:
                self._poll_handle.cancel()
                self._poll_handle = None
            if self._retry_handle is not None:
                self._retry_handle.cancel()
                self._retry_handle = None

    def _check_epoch_gap(self, epoch: int) -> None:
        if epoch in self._epochs_with_event:
            return
        self._ctx.env.trace("epoch_gap", sensor=self.sensor, epoch=epoch)
        self._ctx.on_epoch_gap(
            self.sensor,
            EpochGap(sensor=self.sensor, epoch=epoch, detected_at=self._ctx.env.now()),
        )
