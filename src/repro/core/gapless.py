"""The Gapless ring protocol (Section 4.1) — Rivulet's key mechanism.

Goal: "any event received from a sensor by any correct process will be
eventually delivered to, and processed by, the applications that are
interested in that event" — at n messages per event in the failure-free
case instead of the m*(n-1) a broadcast-based scheme costs.

Protocol, exactly as the paper states it:

- Messages carry ``(e : S : V)``: the event, the set ``S`` of processes
  that have seen it, and the set ``V`` of processes that are supposed to
  deliver it.
- On first receipt (from the sensor): deliver locally, journal the event,
  then send ``(e : {p_i} : v_i)`` to the ring successor per the local view.
- On first receipt (from a peer): deliver locally, journal, forward
  ``(e : S ∪ {p_i} : V ∪ v_i)`` to the successor.
- On a repeat receipt: if ``S != V`` **and** ``p_i ∈ S``, some process in
  somebody's view never saw the event although we already forwarded it —
  fall back to reliable broadcast. Otherwise ignore (normal termination).
- On a view change that yields a new successor: synchronize — query the
  successor's per-sensor seen-set summary and re-send whatever it lacks
  (the Bayou-style anti-entropy of the paper, made hole-proof by exchanging
  compact seq-range summaries instead of a single timestamp).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.broadcast import ReliableBroadcast
from repro.core.events import Event
from repro.membership.views import LocalView
from repro.net.message import Message
from repro.net.wire import ProcessIdSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryContext

GAPLESS_FWD = "gapless_fwd"
GAPLESS_SYNC_QUERY = "gapless_sync_query"
GAPLESS_SYNC_REPLY = "gapless_sync_reply"


class GaplessDelivery:
    """Per-sensor Gapless protocol instance on one process."""

    guarantee_name = "gapless"

    def __init__(
        self,
        ctx: "DeliveryContext",
        sensor: str,
        rb: ReliableBroadcast,
        *,
        fallback_enabled: bool = True,
        sync_enabled: bool = True,
    ) -> None:
        self._ctx = ctx
        self.sensor = sensor
        self._rb = rb
        self.fallback_enabled = fallback_enabled
        self.sync_enabled = sync_enabled
        self._log = ctx.store.log_for(sensor)
        self._broadcasted: set[int] = set()
        self._last_successor: str | None = None
        self._seen_listeners: list[Callable[[Event], None]] = []

    def add_seen_listener(self, listener: Callable[[Event], None]) -> None:
        """Called whenever a previously unseen event is recorded (poll
        coordinators use this to cancel redundant polls)."""
        self._seen_listeners.append(listener)

    def start(self) -> None:
        self._last_successor = self._ctx.heartbeat.view.ring_successor()
        # Boot-time anti-entropy: a process that crashed and recovered before
        # anyone suspected it sees no view change, so neither its stuck
        # journal entries nor the ring forwards it swallowed while down are
        # ever re-propagated. A non-empty journal at start means this is a
        # recovery boot — sync with every peer: the query carries our own
        # seen-ranges so each peer pushes back what we missed, and the reply
        # lets us push out what only we hold. First boot has an empty
        # journal, so the failure-free case costs no messages.
        if self.sync_enabled and len(self._log) > 0:
            me = self._ctx.env.name
            ranges = tuple(self._log.seen.ranges())
            for peer in self._ctx.heartbeat.view.ring:
                if peer == me:
                    continue
                self._ctx.env.trace("sync_query", sensor=self.sensor, peer=peer)
                self._ctx.env.send(
                    peer, GAPLESS_SYNC_QUERY, sensor=self.sensor, ranges=ranges,
                )

    # -- ingest from the sensor hardware -----------------------------------------

    def on_ingest(self, event: Event) -> None:
        if not self._record(event):
            return  # duplicate multicast receipt
        self._ctx.env.trace_device("ingest", self.sensor, event.seq)
        self._deliver_local(event)
        # The journal write happens off the local delivery path but before
        # the event enters the ring (see net.latency.ProcessingModel).
        self._ctx.env.defer(
            self._ctx.processing.gapless_ingest_log, self._forward_fresh, event
        )

    def _forward_fresh(self, event: Event) -> None:
        view = self._ctx.heartbeat.view
        successor = view.ring_successor()
        if successor is None:
            return
        self._send_forward(
            successor, event,
            seen=ProcessIdSet({self._ctx.env.name}),
            expected=ProcessIdSet(view.members),
        )

    # -- ring receipt -------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        event: Event = message["event"]
        seen: ProcessIdSet = message["S"]
        expected: ProcessIdSet = message["V"]
        me = self._ctx.env.name
        view = self._ctx.heartbeat.view

        if self._record(event):
            self._ctx.env.trace_device("relay_receive", self.sensor, event.seq)
            self._deliver_local(event)
            successor = view.ring_successor()
            if successor is not None:
                merged_seen = ProcessIdSet(seen | {me})
                merged_expected = ProcessIdSet(expected | view.members)
                self._ctx.env.defer(
                    self._ctx.processing.gapless_hop_processing,
                    self._send_forward, successor, event, merged_seen, merged_expected,
                )
            return

        # Seen before: the ring has closed (or a stray sync copy arrived).
        if seen != expected and me in seen:
            # We forwarded this event once already, yet someone expected to
            # deliver it never saw it: fall back to reliable broadcast.
            if self.fallback_enabled and event.seq not in self._broadcasted:
                self._broadcasted.add(event.seq)
                self._ctx.env.trace(
                    "gapless_fallback", sensor=self.sensor, seq=event.seq,
                    missing=sorted(set(expected) - set(seen)),
                )
                self._rb.broadcast(self.sensor, event)

    def on_broadcast_deliver(self, event: Event) -> None:
        """An event arriving through the reliable-broadcast fallback."""
        if not self._record(event):
            return
        self._ctx.env.trace("rbcast_receive", sensor=self.sensor, seq=event.seq)
        self._deliver_local(event)

    # -- successor synchronization (Bayou-style anti-entropy) -----------------------------

    def on_view_change(self, view: LocalView, added: frozenset, removed: frozenset) -> None:
        successor = view.ring_successor()
        if successor == self._last_successor:
            return
        self._last_successor = successor
        if successor is None or not self.sync_enabled:
            return
        self._ctx.env.trace("sync_query", sensor=self.sensor, peer=successor)
        self._ctx.env.send(successor, GAPLESS_SYNC_QUERY, sensor=self.sensor)

    def on_sync_query(self, message: Message) -> None:
        ranges = tuple(self._log.seen.ranges())
        self._ctx.env.send(
            message.src, GAPLESS_SYNC_REPLY, sensor=self.sensor, ranges=ranges,
        )
        # A query that carries the querier's own seen-ranges (recovery boot)
        # doubles as a pull: push back anything we hold that it lacks.
        querier_ranges = message.get("ranges")
        if querier_ranges is not None:
            self._send_missing(message.src, [tuple(r) for r in querier_ranges])

    def on_sync_reply(self, message: Message) -> None:
        self._send_missing(message.src, [tuple(r) for r in message["ranges"]])

    def _send_missing(self, peer: str, peer_ranges: list[tuple[int, int]]) -> None:
        missing = self._log.events_missing_from(peer_ranges)
        if not missing:
            return
        self._ctx.env.trace(
            "sync_send", sensor=self.sensor, peer=peer, count=len(missing),
        )
        view = self._ctx.heartbeat.view
        for event in sorted(missing, key=lambda e: e.seq):
            # Re-injected events take the normal ring path at the peer, so
            # they keep propagating to everyone who still lacks them.
            self._send_forward(
                peer, event,
                seen=ProcessIdSet({self._ctx.env.name}),
                expected=ProcessIdSet(view.members),
            )

    # -- helpers --------------------------------------------------------------------------

    def _record(self, event: Event) -> bool:
        if not self._log.add(event):
            return False
        for listener in self._seen_listeners:
            listener(event)
        return True

    def _deliver_local(self, event: Event) -> None:
        self._ctx.env.defer(
            self._ctx.processing.local_dispatch,
            self._ctx.deliver_local, self.sensor, event, None,
        )

    def _send_forward(
        self, dst: str, event: Event, seen: ProcessIdSet, expected: ProcessIdSet
    ) -> None:
        self._ctx.env.send(
            dst, GAPLESS_FWD, sensor=self.sensor, event=event, S=seen, V=expected,
        )
