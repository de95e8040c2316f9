"""The Gap chain protocol (Section 4.2) — best-effort, lowest overhead.

For each sensor, the sensor nodes across processes form one logical chain
anchored at the app-bearing process. Exactly one process — the active
sensor node *closest in the chain to the active logic node* — forwards
events; all other receiving processes discard theirs. On the failure of the
forwarder (or of the app-bearing process), the next process in line takes
over once its failure detector notices; events lost meanwhile are gone.
That is the deal: "delivery is not guaranteed in case of failures".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.events import Event
from repro.core.placement import active_process, active_replica_set, placement_chain
from repro.membership.views import LocalView
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryContext

GAP_FWD = "gap_fwd"


class GapDelivery:
    """Per-sensor Gap protocol instance on one process."""

    guarantee_name = "gap"

    def __init__(self, ctx: "DeliveryContext", sensor: str) -> None:
        self._ctx = ctx
        self.sensor = sensor
        self._seen_listeners: list[Callable[[Event], None]] = []
        # Per consuming app: the placement chain is static configuration.
        self._app_chains: dict[str, list[str]] = {
            app.name: placement_chain(app, ctx.plan)
            for app in ctx.plan.apps_consuming(sensor)
        }

    def add_seen_listener(self, listener: Callable[[Event], None]) -> None:
        self._seen_listeners.append(listener)

    def start(self) -> None:
        """Stateless protocol; nothing to initialize."""

    # -- chain roles ------------------------------------------------------------------

    def bearer_for(self, app_name: str, view: LocalView) -> str | None:
        """Where this process believes the app's primary logic node runs."""
        return active_process(self._app_chains[app_name], view.members)

    def bearers_for(self, app_name: str, view: LocalView) -> list[str]:
        """All active logic replicas (one unless active replication is on)."""
        return active_replica_set(
            self._app_chains[app_name], view.members, self._ctx.active_replicas
        )

    def forwarder_for(
        self, app_name: str, view: LocalView, bearer: str | None = None
    ) -> str | None:
        """The chain-closest live active sensor node for this app.

        Chain order: the app-bearing process first (zero network hops), then
        the remaining active sensor hosts in name order.
        """
        if bearer is None:
            bearer = self.bearer_for(app_name, view)
        if bearer is None:
            return None
        hosts = self._ctx.plan.active_sensor_hosts(self.sensor)
        ordered = ([bearer] if bearer in hosts else []) + [
            h for h in sorted(hosts) if h != bearer
        ]
        for host in ordered:
            if host in view.members:
                return host
        return None

    # -- event flow ------------------------------------------------------------------------

    def on_ingest(self, event: Event) -> None:
        """Direct receipt from the sensor at this process."""
        self._ctx.env.trace_device("ingest", self.sensor, event.seq)
        for listener in self._seen_listeners:
            listener(event)
        me = self._ctx.env.name
        view = self._ctx.heartbeat.view
        delivered_any = False
        for app_name in self._app_chains:
            for bearer in self.bearers_for(app_name, view):
                if self.forwarder_for(app_name, view, bearer) != me:
                    continue
                delivered_any = True
                if bearer == me:
                    self._deliver_local(event, app_name)
                else:
                    self._ctx.env.send(
                        bearer, GAP_FWD, sensor=self.sensor, event=event,
                        app=app_name,
                    )
        if not delivered_any:
            # "Other active sensor nodes that may have received the event
            # simply discard it."
            self._ctx.env.trace("gap_discard", sensor=self.sensor, seq=event.seq)

    def on_message(self, message: Message) -> None:
        event: Event = message["event"]
        self._ctx.env.trace_device("relay_receive", self.sensor, event.seq)
        self._deliver_local(event, message["app"])

    def on_view_change(self, view: LocalView, added: frozenset, removed: frozenset) -> None:
        """Roles are recomputed per event from the live view; nothing stored."""

    def _deliver_local(self, event: Event, app_name: str) -> None:
        self._ctx.env.defer(
            self._ctx.processing.local_dispatch,
            self._ctx.deliver_local, self.sensor, event, app_name,
        )
