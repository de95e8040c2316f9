"""Spans recorded from outside the program, around calls into each layer.

This PR may not touch ``src/``, so every span is taken by a wrapper that
:func:`install` puts in place *before* any home or cluster is built:

- class-level wrappers on each layer's entry points (``Scheduler.run_until``,
  ``HomeNetwork.send``, ``Trace.record``, ``wire.encode_message`` ...);
- wrappers on the registration calls (``Scheduler.call_at/post_at/
  post_repeating/call_repeating`` and ``RuntimeEnv.register_handler/
  schedule/schedule_repeating`` in both runtimes) that wrap the *callback*,
  so its span is named for the module that owns it.

Two transport and one radio method are wrapped by their private names
(``HomeNetwork._deliver``, ``_deliver_quiescent``, ``RadioNetwork.
_deliver_event``): those layers inline ``Scheduler.post_at`` on their hot
lanes, so the posted callback never passes a registration call, and without
the wrapper a delivery would be billed to the scheduler.

Spans nest by a stack and all belong to one run. Self time is a span's
duration minus its child spans. Millions of calls cannot be kept one by
one: they are aggregated per (layer, function, parent layer) into count /
total / self, and the first :data:`RAW_SPAN_LIMIT` spans are kept raw.

Reading the numbers: a wrapper's own cost before its clock starts and after
it stops lands in the *parent's* self time, so a layer with many cheap
children (the scheduler) reads high by roughly ``span_overhead_ns`` per
child; records written by hand-inlined digest lanes never call
``Trace.record*`` and are billed to their caller (see
``sim.tracing.inline_share``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable

RAW_SPAN_LIMIT = 10_000

#: Module → layer. Protocol modules fold into the service that hosts them,
#: the same names in both runtimes since the core is shared.
_LAYER_OF_MODULE = {
    "repro.sim.scheduler": "sim.scheduler",
    "repro.sim.tracing": "sim.tracing",
    "repro.sim.chaos": "sim.chaos",
    "repro.sim.faults": "sim.chaos",
    "repro.sim.snapshot": "sim.snapshot",
    "repro.net.transport": "net.transport",
    "repro.net.radio": "net.radio",
    "repro.devices.sensor": "devices.sensor",
    "repro.devices.camera": "devices.sensor",
    "repro.devices.actuator": "devices.actuator",
    "repro.devices.adapters": "devices.actuator",
    "repro.membership.heartbeat": "membership.heartbeat",
    "repro.storage.kv": "storage.kv",
    "repro.core.delivery_service": "core.delivery",
    "repro.core.gap": "core.delivery",
    "repro.core.gapless": "core.delivery",
    "repro.core.broadcast": "core.delivery",
    "repro.core.polling": "core.delivery",
    "repro.core.sensorwatch": "core.delivery",
    "repro.core.execution": "core.execution",
    "repro.core.windows": "core.execution",
    "repro.core.repair": "core.execution",
    "repro.core.runtime": "core.runtime",
    "repro.core.env": "core.runtime",
    "repro.rt.node": "core.runtime",
    "repro.core.home": "core.home",
    "repro.core.fleet": "core.fleet",
    "repro.core.records": "core.records",
    "repro.core.invariants": "core.invariants",
    "repro.rt.wire": "rt.wire",
    "repro.rt.cluster": "rt.cluster",
}
WORKLOAD_LAYER = "workload"
ROOT_LAYER = "bench"


def layer_of_module(module: str | None) -> str:
    return _LAYER_OF_MODULE.get(module or "", WORKLOAD_LAYER)


class Tracer:
    """Span stack, aggregates and the first raw spans of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # A frame is [layer, child_ns, span_id].
        self.stack: list[list] = [[ROOT_LAYER, 0, 0]]
        # (layer, function, parent layer) -> [count, total_ns, self_ns]
        self.cells: dict[tuple[str, str, str], list] = {}
        self.raw: list[tuple] = []
        self.next_id = 1
        self.root_start_ns = 0
        self.root_total_ns = 0
        self.traces: list[Any] = []
        self.schedulers: list[Any] = []
        self._adopted: set[int] = set()
        self.multicast_hits = 0
        self.root_child_ns = 0
        self.frozen: dict[tuple[str, str, str], list] = {}
        self.frozen_raw: list[tuple] = []
        self.frozen_multicast_hits = 0
        self.counts: Counter = Counter()
        self.net_send_bytes = self.kept_events = self.scheduler_events = 0
        self._baseline: dict[int, tuple] = {}
        self._events_before = 0
        self._owners: dict[Any, tuple[str, str] | None] = {}

    # -- the hot path --------------------------------------------------------------

    def span(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped in a span of ``layer`` named ``name``."""
        stack = self.stack
        clock = time.perf_counter_ns
        close = self._close
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(parent, frame, name, start, clock() - start)

        spanned.__bench_span__ = True
        return spanned

    def _close(self, parent: list, frame: list, name: str, start: int, took: int) -> None:
        """Pop ``frame`` and fold the finished span into the aggregates."""
        self.stack.pop()
        parent[1] += took
        layer, child_ns, span_id = frame
        key = (layer, name, parent[0])
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = cell = [0, 0, 0]
        cell[0] += 1
        cell[1] += took
        cell[2] += took - child_ns
        if span_id <= RAW_SPAN_LIMIT:
            self.raw.append((span_id, parent[2], layer, name, start, start + took))

    def owner(self, callback: Callable) -> tuple[str, str] | None:
        """(layer, name) owning ``callback``; None if it is already spanned."""
        func = getattr(callback, "__func__", None)
        # Closures made by one ``def`` share a code object: key on it so a
        # lambda per message cannot grow the cache.
        key = func if func is not None else getattr(callback, "__code__", type(callback))
        try:
            return self._owners[key]
        except KeyError:
            pass
        if getattr(func if func is not None else callback, "__bench_span__", False):
            found = None
        elif func is not None:
            cls = type(callback.__self__)
            found = (layer_of_module(cls.__module__),
                     f"{cls.__name__}.{func.__name__}")
        elif hasattr(callback, "__code__"):
            found = (layer_of_module(callback.__module__), callback.__qualname__)
        else:
            cls = type(callback)
            found = (layer_of_module(cls.__module__), cls.__name__)
        self._owners[key] = found
        return found

    def owned(self, callback: Callable) -> Callable:
        """``callback`` in a span named for its owning module (closure form)."""
        found = self.owner(callback)
        if found is None:
            return callback
        return self.span(callback, *found)

    def adopt(self, trace: Any, scheduler: Any = None) -> None:
        """Remember a trace (and its scheduler) whose counts the run reports."""
        if id(trace) not in self._adopted:
            self._adopted.add(id(trace))
            self.traces.append(trace)
        if scheduler is not None and id(scheduler) not in self._adopted:
            self._adopted.add(id(scheduler))
            self.schedulers.append(scheduler)

    # -- run boundaries ------------------------------------------------------------

    def start(self) -> None:
        """Open the root span: forget every span recorded so far (set-up)."""
        for cell in self.cells.values():
            cell[0] = cell[1] = cell[2] = 0
        self.raw.clear()
        self.next_id = 1
        self.multicast_hits = 0
        self.stack[0][1] = 0
        self._baseline = {id(trace): self._snapshot(trace) for trace in self.traces}
        self._events_before = sum(s.processed_events for s in self.schedulers)
        self.root_start_ns = time.perf_counter_ns()

    def stop(self) -> None:
        """Close the root span and freeze the aggregates.

        Wrappers stay installed and keep writing to the live cells (the
        checks after the timed region run through them); reports read the
        frozen copy.
        """
        self.root_total_ns = time.perf_counter_ns() - self.root_start_ns
        self.root_child_ns = self.stack[0][1]
        self.frozen = {key: list(cell) for key, cell in self.cells.items() if cell[0]}
        self.frozen_raw = list(self.raw)
        self.frozen_multicast_hits = self.multicast_hits
        # Counts of the timed region only: traces that existed at start()
        # (an rt cluster and its warm-up) are differenced against it.
        self.counts = Counter()
        self.net_send_bytes = self.kept_events = 0
        for trace in self.traces:
            counts, sent, kept = self._snapshot(trace)
            before = self._baseline.get(id(trace))
            if before is not None:
                counts = counts - before[0]
                sent -= before[1]
                kept -= before[2]
            self.counts.update(counts)
            self.net_send_bytes += sent
            self.kept_events += kept
        self.scheduler_events = (
            sum(s.processed_events for s in self.schedulers) - self._events_before
        )

    @staticmethod
    def _snapshot(trace: Any) -> tuple[Counter, int, int]:
        return trace.counts, trace.bytes_of_kind("net_send"), len(trace.events)

    # -- reading -------------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, inclusive_s (outermost spans only)."""
        out: dict[str, dict[str, float]] = {}
        for (layer, _name, parent), (count, total, own) in self.frozen.items():
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            row["calls"] += count
            row["self_s"] += own / 1e9
            if parent != layer:
                row["inclusive_s"] += total / 1e9
        root_self = (self.root_total_ns - self.root_child_ns) / 1e9
        out[ROOT_LAYER] = {"calls": 1, "self_s": root_self,
                           "inclusive_s": self.root_total_ns / 1e9}
        return out

    def calls_of(self, layer: str, name: str) -> int:
        return sum(cell[0] for (lay, nam, _), cell in self.frozen.items()
                   if lay == layer and nam == name)

    def self_s_of(self, layer: str, *names: str) -> float:
        return sum(cell[2] for (lay, nam, _), cell in self.frozen.items()
                   if lay == layer and nam in names) / 1e9

    def count(self, *kinds: str) -> int:
        """Trace records of ``kinds`` written during the timed region."""
        return sum(self.counts[kind] for kind in kinds)

    def write(self, path, *, workload: str, extra: dict[str, Any]) -> None:
        """Write aggregates and the first raw spans as one JSON document."""
        document = {
            "run_id": self.run_id,
            "workload": workload,
            "root_total_ns": self.root_total_ns,
            "aggregates": [
                {"layer": layer, "function": name, "parent_layer": parent,
                 "count": count, "total_ns": total, "self_ns": own}
                for (layer, name, parent), (count, total, own)
                in sorted(self.frozen.items(), key=lambda kv: -kv[1][2])
            ],
            "raw_spans": [
                {"id": sid, "parent": pid, "layer": layer, "function": name,
                 "start_ns": start - self.root_start_ns,
                 "end_ns": end - self.root_start_ns}
                for sid, pid, layer, name, start, end in self.frozen_raw
            ],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
            fh.write("\n")


def span_overhead_ns(rounds: int = 50_000) -> float:
    """Cost of one empty span, for reading parents of many cheap children."""
    probe = Tracer("overhead")
    spanned = probe.span(lambda: None, "probe", "noop")
    bare = (lambda: None)
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(rounds):
        spanned()
    with_span = clock() - start
    start = clock()
    for _ in range(rounds):
        bare()
    return max(with_span - (clock() - start), 0) / rounds


# -- installation ------------------------------------------------------------------


def _wrap_methods(tracer: Tracer, cls: type, layer: str, names: tuple[str, ...]) -> None:
    for name in names:
        original = cls.__dict__[name]
        setattr(cls, name, tracer.span(original, layer, f"{cls.__name__}.{name}"))


def _wrap_callback_registration(tracer: Tracer, cls: type, name: str, position: int) -> None:
    """Make ``cls.name(.., callback, *args)`` schedule ``callback`` in a span.

    No closure per call: the registered callable is one shared trampoline
    taking the owner, the real callback and its arguments.
    """
    original = cls.__dict__[name]
    stack = tracer.stack
    clock = time.perf_counter_ns
    close = tracer._close

    def fire(owner: tuple[str, str], callback: Callable, args: tuple) -> None:
        parent = stack[-1]
        span_id = tracer.next_id
        tracer.next_id = span_id + 1
        frame = [owner[0], 0, span_id]
        stack.append(frame)
        start = clock()
        try:
            callback(*args)
        finally:
            close(parent, frame, owner[1], start, clock() - start)

    @functools.wraps(original)
    def register(self, *args, **kwargs):
        callback = args[position]
        owner = tracer.owner(callback)
        if owner is None:
            return original(self, *args, **kwargs)
        head = args[:position]
        return original(self, *head, fire, owner, callback, args[position + 1:], **kwargs)

    setattr(cls, name, register)


def _wrap_handler_registration(tracer: Tracer, cls: type) -> None:
    original = cls.__dict__["register_handler"]

    @functools.wraps(original)
    def register_handler(self, kind, fn):
        return original(self, kind, tracer.owned(fn))

    cls.register_handler = register_handler


def _capture(tracer: Tracer, cls: type, name: str, grab: Callable[[Any], None]) -> None:
    """Run ``grab(self)`` after ``cls.name`` (which may already be spanned)."""
    original = cls.__dict__[name]

    @functools.wraps(original)
    def captured(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        grab(self)
        return result

    setattr(cls, name, captured)


def install(tracer: Tracer) -> None:
    """Put every wrapper in place. Call once, before building anything."""
    from repro.core import delivery_service, execution, fleet, home, invariants
    from repro.core import records, runtime
    from repro.core import env as core_env
    from repro.devices import actuator, sensor
    from repro.eval import chaos as eval_chaos
    from repro.net import radio, transport
    from repro.rt import cluster as rt_cluster
    from repro.rt import node as rt_node
    from repro.rt import wire
    from repro.sim import chaos as sim_chaos
    from repro.sim import scheduler, tracing
    from repro.storage import kv

    sched = scheduler.Scheduler
    _wrap_methods(tracer, sched, "sim.scheduler", ("run_until",))
    # call_later funnels into call_at, so it needs no wrapper of its own.
    _wrap_callback_registration(tracer, sched, "call_at", 1)
    _wrap_callback_registration(tracer, sched, "post_at", 1)
    _wrap_callback_registration(tracer, sched, "post_repeating", 1)
    _wrap_callback_registration(tracer, sched, "call_repeating", 1)

    _wrap_methods(tracer, tracing.Trace, "sim.tracing",
                  ("record", "record_message", "record_device",
                   "_flush_hash", "digest", "seal"))
    _wrap_methods(tracer, tracing.MessageChannel, "sim.tracing", ("record",))

    net = transport.HomeNetwork
    _wrap_methods(tracer, net, "net.transport",
                  ("send", "_deliver", "_deliver_quiescent"))
    spanned_multicast = tracer.span(net.__dict__["send_multicast"], "net.transport",
                                    "HomeNetwork.send_multicast")

    @functools.wraps(spanned_multicast)
    def send_multicast(self, src, dsts, kind):
        handled = spanned_multicast(self, src, dsts, kind)
        if handled:
            tracer.multicast_hits += 1
        return handled

    net.send_multicast = send_multicast

    _wrap_methods(tracer, radio.RadioNetwork, "net.radio",
                  ("emit", "_deliver_event", "send_poll", "send_command"))
    _wrap_methods(tracer, sensor.PushSensor, "devices.sensor", ("emit",))
    _wrap_methods(tracer, sensor.PollSensor, "devices.sensor", ("receive_poll",))
    _wrap_methods(tracer, actuator.Actuator, "devices.actuator", ("handle_command",))
    _wrap_methods(tracer, kv.ReplicatedStore, "storage.kv", ("put", "get", "delete"))
    _wrap_methods(tracer, delivery_service.DeliveryService, "core.delivery",
                  ("on_ingest", "send_command"))
    _wrap_methods(tracer, execution.ExecutionService, "core.execution",
                  ("on_event", "on_epoch_gap", "send_command"))

    for env_cls in (runtime.RivuletProcess, rt_node.AsyncRivuletNode):
        _wrap_handler_registration(tracer, env_cls)
        _wrap_callback_registration(tracer, env_cls, "schedule", 1)
    _wrap_callback_registration(tracer, runtime.RivuletProcess, "schedule_repeating", 1)
    # The asyncio node inherits the chained default, which re-arms through
    # its (already wrapped) schedule(); wrap the callback it is handed.
    _wrap_callback_registration(tracer, core_env.RuntimeEnv, "schedule_repeating", 1)

    _wrap_methods(tracer, home.Home, "core.home",
                  ("__init__", "add_process", "add_sensor", "add_actuator",
                   "deploy", "start"))
    _capture(tracer, home.Home, "start", lambda h: tracer.adopt(h.trace, h.scheduler))
    _wrap_methods(tracer, fleet.Fleet, "core.fleet", ("add_home", "start"))
    # Looked up as a module attribute at call time by RunRecord.from_home
    # and LocalCluster.run_record alike.
    records.build_run_record = tracer.span(
        records.build_run_record, "core.records", "build_run_record"
    )
    spanned_check = tracer.span(invariants.check_all, "core.invariants", "check_all")
    invariants.check_all = eval_chaos.check_all = spanned_check
    _wrap_methods(tracer, sim_chaos.FaultScheduleGenerator, "sim.chaos", ("generate",))

    wire.encode_message = tracer.span(wire.encode_message, "rt.wire", "encode_message")
    wire.decode_body = tracer.span(wire.decode_body, "rt.wire", "decode_body")
    wire.frame_kind = tracer.span(wire.frame_kind, "rt.wire", "frame_kind")
    _wrap_methods(tracer, rt_cluster.LocalCluster, "rt.cluster", ("emit",))
    _capture(tracer, rt_cluster.LocalCluster, "__init__", lambda c: tracer.adopt(c.trace))
