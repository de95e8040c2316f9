"""Reliable broadcast (fallback) and the naive broadcast baseline.

Two distinct roles, both from Section 4.1:

- :class:`ReliableBroadcast` — the crash-recovery reliable broadcast
  (Boichat & Guerraoui style flood-and-echo) Rivulet "resorts back to" when
  the optimistic ring detects that some process missed an event. Every
  correct connected process delivers; the price is O(n^2) messages, which
  is why it is only the fallback.

- :class:`NaiveBroadcastDelivery` — the evaluation baseline of Fig. 5: every
  process that receives an event directly from the sensor broadcasts it to
  all other processes "unless it has previously received the event from
  another process". With m receiving processes this costs ~m*(n-1) messages
  per event versus the ring's n.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.events import Event
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryContext

RBCAST = "rbcast"
NBCAST = "nbcast"


class ReliableBroadcast:
    """Flood-and-echo reliable broadcast over the current local view.

    Safety does not depend on views being accurate: the echo step means
    that as long as a correct path of processes exists, everyone connected
    delivers, even if the originator crashes mid-broadcast.
    """

    def __init__(
        self,
        ctx: "DeliveryContext",
        on_deliver: Callable[[str, Event], None],
    ) -> None:
        self._ctx = ctx
        self._on_deliver = on_deliver
        self._seen: set[tuple[str, int]] = set()
        ctx.env.register_handler(RBCAST, self._on_message)

    def broadcast(self, sensor: str, event: Event) -> None:
        """Originate a broadcast (the originator has already delivered)."""
        key = (sensor, event.seq)
        if key in self._seen:
            return
        self._seen.add(key)
        self._ctx.env.trace("rbcast_origin", sensor=sensor, seq=event.seq)
        self._send_to_view(sensor, event, exclude=frozenset())

    def _on_message(self, message: Message) -> None:
        sensor = message["sensor"]
        event: Event = message["event"]
        key = (sensor, event.seq)
        if key in self._seen:
            return
        self._seen.add(key)
        self._on_deliver(sensor, event)
        # Echo: re-forward so the broadcast survives the originator's crash.
        self._send_to_view(sensor, event, exclude=frozenset({message.src}))

    def _send_to_view(self, sensor: str, event: Event, exclude: frozenset) -> None:
        me = self._ctx.env.name
        # Ring order, not ``members``: a frozenset of names iterates in an
        # order that depends on PYTHONHASHSEED, and so would the sends.
        for member in self._ctx.heartbeat.view.ring:
            if member == me or member in exclude:
                continue
            self._ctx.env.send(member, RBCAST, sensor=sensor, event=event)


class NaiveBroadcastDelivery:
    """Fig. 5 baseline: broadcast-on-first-receipt, no ring, no metadata."""

    guarantee_name = "naive-broadcast"

    def __init__(self, ctx: "DeliveryContext", sensor: str) -> None:
        self._ctx = ctx
        self.sensor = sensor
        self._seen: set[int] = set()
        self._seen_listeners: list[Callable[[Event], None]] = []

    def add_seen_listener(self, listener: Callable[[Event], None]) -> None:
        self._seen_listeners.append(listener)

    def start(self) -> None:
        """No periodic machinery; present for interface symmetry."""

    def on_ingest(self, event: Event) -> None:
        """Direct receipt from the sensor (radio multicast or poll)."""
        if event.seq in self._seen:
            # Already received from another process: suppress the broadcast.
            return
        self._mark_seen(event)
        self._deliver_local(event)
        me = self._ctx.env.name
        peers = [member for member in self._ctx.heartbeat.view.ring if member != me]
        self._ctx.env.multicast(peers, NBCAST, {"sensor": self.sensor, "event": event})

    def on_message(self, message: Message) -> None:
        event: Event = message["event"]
        if event.seq in self._seen:
            return
        self._mark_seen(event)
        self._deliver_local(event)

    def on_view_change(self, view, added, removed) -> None:
        """Best-effort protocol: view changes require no action."""

    def _mark_seen(self, event: Event) -> None:
        self._seen.add(event.seq)
        for listener in self._seen_listeners:
            listener(event)

    def _deliver_local(self, event: Event) -> None:
        self._ctx.env.trace_device("ingest", self.sensor, event.seq)
        self._ctx.env.defer(
            self._ctx.processing.local_dispatch,
            self._ctx.deliver_local, self.sensor, event, None,
        )
