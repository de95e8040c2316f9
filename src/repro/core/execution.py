"""Fault-tolerant execution of logic nodes (Section 5).

Every process instantiates a :class:`LogicRuntime` per deployed app. At any
time the runtime is *active* (hosting the app's live operator state) or a
*shadow* (a placeholder). Role transitions are driven by the local view
through :class:`~repro.core.election.AppElection`:

- **promotion**: operator state (windows, combiners, timers) is built fresh
  and — for Gapless sensors — the new active replays from the durable event
  log every event newer than the last watermark the old active advertised.
  This is the Fig. 7 "spike": the ~20 events emitted while the failure was
  being detected arrive at the application in one burst.
- **demotion**: operator state is torn down (applications are stateless —
  Section 3.2 — so nothing is migrated).

The active runtime piggybacks per-sensor processed watermarks on the
keep-alive messages, so shadows know where processing got to without any
additional message exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.delivery import EpochGap, GAPLESS, Delivery
from repro.core.election import AppElection
from repro.core.eventlog import EventStore
from repro.core.events import Command, Event
from repro.core.graph import App
from repro.core.intervals import IntervalSet
from repro.core.operators import Operator
from repro.core.placement import active_replica_set, placement_chain
from repro.core.plan import DeploymentPlan
from repro.core.repair import RepairSession
from repro.core.windows import TriggeredWindow, WindowInstance
from repro.membership.heartbeat import HeartbeatService
from repro.membership.views import LocalView
from repro.net.latency import ProcessingModel
from repro.sim.tracing import row_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery_service import DeliveryService
    from repro.core.env import RuntimeEnv

#: The once-per-event records' schemas (see RuntimeEnv.trace_row).
_LOGIC_DELIVERY = row_names("process", "app", "sensor", "seq", "emitted_at", "delay")
_COMMAND_ISSUED = row_names("process", "app", "actuator", "action", "seq")


class _OperatorContext:
    """The :class:`repro.core.operators.OperatorContext` implementation."""

    def __init__(self, runtime: "LogicRuntime", operator: Operator) -> None:
        self._runtime = runtime
        self.operator = operator
        self.process = runtime.env.name

    def now(self) -> float:
        return self._runtime.env.now()

    @property
    def state(self):
        """The home-wide replicated key-value store (Section 3.2's
        "existing distributed storage" for stateful apps). Reads are local;
        writes replicate to every process, so a logic node promoted after a
        crash sees what its predecessor persisted."""
        kv = self._runtime.service.kv
        if kv is None:
            raise RuntimeError("no replicated state store configured")
        return kv

    def emit(self, value: Any, size_bytes: int = 8) -> None:
        self._runtime.emit_derived(self.operator, value, size_bytes)

    def actuate(self, actuator: str, action: str, value: Any = None) -> None:
        self._runtime.actuate(self.operator, actuator, action, value)

    def alert(self, message: str, **fields: Any) -> None:
        self._runtime.env.trace(
            "alert", app=self._runtime.app.name, operator=self.operator.name,
            message=message, **fields,
        )


class LogicRuntime:
    """One app's logic node on one process (active or shadow)."""

    def __init__(self, service: "ExecutionService", app: App) -> None:
        self.service = service
        self.env = service.env
        self.app = app
        self.election = AppElection(
            self.env.name, placement_chain(app, service.plan)
        )
        self.active = False
        self._processed: dict[str, IntervalSet] = {}
        self._remote_processed: dict[str, IntervalSet] = {}
        requirements = app.sensor_requirements()
        # Sorted once: the gossiped dict's key order (rt frame bytes, journal
        # lines) must not depend on PYTHONHASHSEED.
        self._gapless_sensors = tuple(sorted(
            s for s, req in requirements.items() if req.delivery is GAPLESS
        ))
        # Fixed for this boot: the app's wiring is configuration, and a
        # recovered process gets a fresh runtime (so a fresh incarnation).
        self._actuators = frozenset(app.actuators)
        # ``issued_by`` must be unique per issuing runtime or command_ids
        # collide: a recovered process restarts _cmd_seq from 0, so commands
        # issued by incarnation k+1 would repeat incarnation k's ids. The
        # suffix marks re-incarnated issuers (absent before the first crash,
        # keeping the paper's plain "app@process" form in the common case).
        incarnation = getattr(self.env, "incarnation", 0)
        self._issuer = f"{app.name}@{self.env.name}" + (
            f"+{incarnation}" if incarnation else ""
        )
        # Per-activation state. ``_streams`` is what an event walks:
        # stream -> ((operator, staleness bound, window), ...) in
        # ``App.consumers_of`` order.
        self._streams: dict[
            str, tuple[tuple[Operator, float | None, WindowInstance], ...]
        ] = {}
        self._combiners: dict[str, Any] = {}
        self._grace_timers: dict[str, Any] = {}
        self._periodic_timers: list[Any] = []
        self._emit_seq: dict[str, int] = {}
        self._cmd_seq = 0
        self._repair: RepairSession | None = None

    # -- role management ---------------------------------------------------------

    def apply_view(self, view: LocalView) -> None:
        replicas = active_replica_set(
            self.election.chain, view.members, self.service.active_replicas
        )
        i_am_active = self.env.name in replicas
        if i_am_active and not self.active:
            self._promote()
        elif not i_am_active and self.active:
            self._demote(new_active=replicas[0] if replicas else None)

    def _promote(self) -> None:
        self.env.trace("promotion", app=self.app.name)
        self.active = True
        self.service.watermarks_changed()
        self._build_operator_state()
        self._replay_outstanding()

    def _demote(self, new_active: str | None) -> None:
        self.env.trace("demotion", app=self.app.name, new_active=new_active)
        self.active = False
        self.service.watermarks_changed()
        self._teardown_operator_state()

    def _replay_outstanding(self) -> None:
        """Deliver journaled Gapless events the old active never confirmed.

        "Confirmed" means the event's seq is covered by the processed
        *ranges* the old active gossiped (or our own). A scalar high-water
        mark is not enough: a partition can punch a hole below the maximum
        (the active processed seq 5 but never received 4), and replaying
        only ``seq > max`` would skip the hole forever.
        """
        pending: list[tuple[str, Event]] = []
        for sensor in self._gapless_sensors:
            log = self.service.store.log_for(sensor)
            remote = self._remote_processed.get(sensor, IntervalSet())
            own = self._processed.get(sensor)
            pending.extend(
                (sensor, e)
                for e in log.events_missing_from(remote.ranges())
                if own is None or e.seq not in own
            )
        pending.sort(key=lambda pair: (pair[1].emitted_at, pair[0], pair[1].seq))
        if pending:
            self.env.trace(
                "promotion_replay", app=self.app.name, count=len(pending)
            )
        for sensor, event in pending:
            self._process(sensor, event)

    # -- operator state ------------------------------------------------------------

    def _build_operator_state(self) -> None:
        # (operator, stream) -> (staleness bound, window), in creation order.
        windows: dict[tuple[str, str], tuple[float | None, WindowInstance]] = {}
        self._combiners = {}
        self._grace_timers = {}
        self._emit_seq = {}
        if self.app.repair is not None:
            # Fresh per promotion: repair state is as stateless across
            # failovers as the operator state it protects.
            self._repair = RepairSession(
                self.app.repair, self.app.name, self.env, self._repair_deliver
            )
        for op in self.app.topological_operators:
            combiner = op.combiner.clone()
            combiner.bind(op.name, op.input_streams)
            self._combiners[op.name] = combiner
            for binding in op.sensor_bindings:
                windows[op.name, binding.sensor] = (
                    binding.staleness_s,
                    self._make_window(op, binding.sensor, binding.window),
                )
            for upstream in op.upstream_bindings:
                stream = f"op:{upstream.operator.name}"
                windows[op.name, stream] = (
                    None, self._make_window(op, stream, upstream.window)
                )
        self._streams = {
            stream: tuple(
                (op, *windows[op.name, stream])
                for op in self.app.consumers_of(stream)
            )
            for stream in {stream for _op_name, stream in windows}
        }

    def _make_window(self, op: Operator, stream: str, spec) -> WindowInstance:
        instance = WindowInstance(
            stream=stream,
            spec=spec,
            on_fire=lambda snapshot, op=op: self._on_window_fired(op, snapshot),
        )
        interval = spec.trigger.interval
        if interval is not None:
            # One repeating timer per window, cancelled on demotion.
            self._periodic_timers.append(self.env.schedule_repeating(
                interval, lambda: instance.fire(self.env.now())
            ))
        return instance

    def _teardown_operator_state(self) -> None:
        if self._repair is not None:
            self._repair.close()
            self._repair = None
        for handle in self._periodic_timers:
            handle.cancel()
        self._periodic_timers = []
        for handle in self._grace_timers.values():
            handle.cancel()
        self._grace_timers = {}
        self._streams = {}
        self._combiners = {}

    # -- event flow ---------------------------------------------------------------------

    def on_event(self, sensor: str, event: Event) -> None:
        if not self.active:
            return  # shadows are placeholders; the event log is the buffer
        self._process(sensor, event)

    def _process(self, sensor: str, event: Event) -> None:
        processed = self._processed.setdefault(sensor, IntervalSet())
        if event.seq in processed:
            return
        processed.add(event.seq)
        self.service.watermarks_changed()
        now = self.env.now()
        self.env.trace_row("logic_delivery", _LOGIC_DELIVERY, (
            self.app.name, sensor, event.seq, event.emitted_at, now - event.emitted_at))
        if self._repair is not None:
            # Repair sits between platform delivery (traced above, so the
            # delivery-guarantee oracles are unaffected) and the app.
            event = self._repair.admit(sensor, event)
            if event is None:
                return
        self._feed_stream(sensor, event)

    def _repair_deliver(self, sensor: str, event: Event) -> None:
        """Late repair outcomes (retry escalation, echo synthesis)."""
        if self.active:
            self._feed_stream(sensor, event)

    def _feed_stream(self, stream: str, event: Event) -> None:
        now = self.env.now()
        for op, staleness_s, window in self._streams.get(stream, ()):
            if staleness_s is not None and now - event.emitted_at > staleness_s:
                self.env.trace(
                    "stale_dropped", app=self.app.name, operator=op.name,
                    sensor=stream, seq=event.seq,
                    staleness=now - event.emitted_at,
                )
                continue
            window.add(event, now)

    def _on_window_fired(self, op: Operator, snapshot: TriggeredWindow) -> None:
        if snapshot.empty and not isinstance(snapshot.events, tuple):
            return  # pragma: no cover - defensive
        combiner = self._combiners[op.name]
        combined = combiner.offer(snapshot)
        if combined is not None:
            self._cancel_grace(op)
            self._dispatch(op, combined)
        elif combiner.grace is not None and op.name not in self._grace_timers:
            self._grace_timers[op.name] = self.env.schedule(
                combiner.grace, self._flush_combiner, op
            )

    def _flush_combiner(self, op: Operator) -> None:
        self._grace_timers.pop(op.name, None)
        combiner = self._combiners.get(op.name)
        if combiner is None or not self.active:
            return
        combined = combiner.flush(self.env.now())
        if combined is not None:
            self._dispatch(op, combined)

    def _cancel_grace(self, op: Operator) -> None:
        handle = self._grace_timers.pop(op.name, None)
        if handle is not None:
            handle.cancel()

    def _dispatch(self, op: Operator, combined) -> None:
        ctx = _OperatorContext(self, op)
        try:
            op.handle_triggered_window(ctx, combined)
        except Exception as exc:  # noqa: BLE001 - one bad operator must not
            # take down the platform process hosting it.
            self.env.trace(
                "operator_error", app=self.app.name, operator=op.name,
                error=repr(exc),
            )

    # -- downstream effects ---------------------------------------------------------------

    def emit_derived(self, op: Operator, value: Any, size_bytes: int) -> None:
        stream = f"op:{op.name}"
        seq = self._emit_seq.get(stream, 0) + 1
        self._emit_seq[stream] = seq
        event = Event(
            sensor_id=stream, seq=seq, emitted_at=self.env.now(),
            value=value, size_bytes=size_bytes,
        )
        self._feed_stream(stream, event)

    def actuate(self, op: Operator, actuator: str, action: str, value: Any) -> None:
        if actuator not in self._actuators:
            raise KeyError(
                f"operator {op.name!r} actuated unbound actuator {actuator!r}"
            )
        self._cmd_seq += 1
        command = Command(
            actuator_id=actuator,
            seq=self._cmd_seq,
            issued_at=self.env.now(),
            action=action,
            value=value,
            issued_by=self._issuer,
        )
        self.env.trace_row("command_issued", _COMMAND_ISSUED, (
            self.app.name, actuator, action, self._cmd_seq))
        self.service.send_command(command, self.app)

    def on_epoch_gap(self, sensor: str, gap: EpochGap) -> None:
        if not self.active:
            return
        self.env.trace(
            "epoch_gap_delivered", app=self.app.name, sensor=sensor, epoch=gap.epoch,
        )
        for op, _staleness_s, _window in self._streams.get(sensor, ()):
            op.handle_epoch_gap(_OperatorContext(self, op), gap)

    # -- watermarks --------------------------------------------------------------------------

    def watermarks(self) -> dict[str, list[tuple[int, int]]]:
        """Per-sensor processed seq ranges (piggybacked on keep-alives)."""
        marks: dict[str, list[tuple[int, int]]] = {}
        for sensor in self._gapless_sensors:
            processed = self._processed.get(sensor)
            if processed is not None and len(processed) > 0:
                marks[sensor] = processed.ranges()
        return marks

    def note_watermark(self, sensor: str, ranges: list[tuple[int, int]]) -> None:
        remote = self._remote_processed.setdefault(sensor, IntervalSet())
        for lo, hi in ranges:
            remote.add_range(lo, hi)


class ExecutionService:
    """All logic runtimes of one process, plus watermark gossip."""

    # sensor -> ((app name, runtime), ...) in plan order. The deployment
    # plan never changes at runtime (Section 3.3), so it is built once per
    # boot (derived state: class-level so a restored graph without it
    # rebuilds on its first event).
    _routes: dict[str, list[tuple[str, LogicRuntime]]] | None = None
    route_builds = 0

    def __init__(
        self,
        env: "RuntimeEnv",
        heartbeat: HeartbeatService,
        plan: DeploymentPlan,
        store: EventStore,
        processing: ProcessingModel,
        kv=None,
        active_replicas: int = 1,
    ) -> None:
        if active_replicas < 1:
            raise ValueError(f"active_replicas must be >= 1, got {active_replicas}")
        self.env = env
        self.heartbeat = heartbeat
        self.plan = plan
        self.store = store
        self.processing = processing
        self.kv = kv
        self.active_replicas = active_replicas
        self.runtimes: dict[str, LogicRuntime] = {}
        self._delivery: "DeliveryService | None" = None
        # The keep-alive piggyback, built on change: watermarks_changed()
        # drops ``_gossip`` and the next tick builds a *new* dict (a sent one
        # is never edited — it may be in flight). ``_merged`` is each
        # sender's last merged payload; like the ``_remote_processed`` sets
        # it guards, it starts empty on recover().
        self._gossip: dict[str, dict[str, list[tuple[int, int]]]] | None = None
        self._merged: dict[str, Any] = {}
        self.watermark_builds = 0

    def bind_delivery(self, delivery: "DeliveryService") -> None:
        self._delivery = delivery

    def start(self) -> None:
        for app in self.plan.apps:
            self.runtimes[app.name] = LogicRuntime(self, app)
        self._build_routes()
        self.heartbeat.add_view_listener(self._on_view_change)
        if self.runtimes:
            # With no apps installed the provider could only ever return
            # an empty payload; not registering it keeps the keepalive
            # tick's provider loop empty (the app set is fixed at start).
            self.heartbeat.add_payload_provider("exec_wm", self._watermark_payload)
        self.heartbeat.add_payload_consumer("exec_wm", self._on_watermarks)
        initial_view = self.heartbeat.view
        for runtime in self.runtimes.values():
            runtime.apply_view(initial_view)

    # -- inbound from the delivery service --------------------------------------------

    def _build_routes(self) -> dict[str, list[tuple[str, LogicRuntime]]]:
        self.route_builds += 1
        self._routes = routes = {}
        for app in self.plan.apps:
            for sensor in app.sensors:
                routes.setdefault(sensor, []).append(
                    (app.name, self.runtimes[app.name])
                )
        return routes

    def on_event(self, sensor: str, event: Event, only_app: str | None = None) -> None:
        routes = self._routes
        if routes is None:
            routes = self._build_routes()
        for app_name, runtime in routes.get(sensor, ()):
            # Shadows are placeholders; the event log is the buffer.
            if runtime.active and (only_app is None or app_name == only_app):
                runtime.on_event(sensor, event)

    def on_epoch_gap(self, sensor: str, gap: EpochGap) -> None:
        routes = self._routes
        if routes is None:
            routes = self._build_routes()
        for _app_name, runtime in routes.get(sensor, ()):
            runtime.on_epoch_gap(sensor, gap)

    def send_command(self, command: Command, app: App) -> None:
        if self._delivery is None:
            raise RuntimeError("execution service not bound to a delivery service")
        guarantee: Delivery = app.actuator_delivery(command.actuator_id)
        self._delivery.send_command(command, app.name, guarantee)

    # -- membership ------------------------------------------------------------------------

    def _on_view_change(self, view: LocalView, added: frozenset, removed: frozenset) -> None:
        for runtime in self.runtimes.values():
            runtime.apply_view(view)

    def watermarks_changed(self) -> None:
        """A runtime processed an event or changed role: gossip a new payload."""
        self._gossip = None

    def _watermark_payload(self) -> dict[str, dict[str, list[tuple[int, int]]]]:
        payload = self._gossip
        if payload is None:
            self.watermark_builds += 1
            payload = {}
            for name, runtime in self.runtimes.items():
                if runtime.active:
                    marks = runtime.watermarks()
                    if marks:
                        payload[name] = marks
            self._gossip = payload
        return payload

    def _on_watermarks(
        self, sender: str, value: dict[str, dict[str, list[tuple[int, int]]]]
    ) -> None:
        # The merge is a monotone, idempotent union: a payload equal to the
        # last one merged from this sender cannot add anything. Equality, not
        # identity — the asyncio runtime decodes a fresh object per frame.
        if self._merged.get(sender) == value:
            return
        self._merged[sender] = value
        for app_name, marks in value.items():
            runtime = self.runtimes.get(app_name)
            if runtime is None:
                continue
            for sensor, ranges in marks.items():
                runtime.note_watermark(sensor, ranges)
