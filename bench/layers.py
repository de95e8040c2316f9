"""Per-layer metric values of one ``--trace 1`` invocation.

Names, units and directions live in ``BENCHMARK.json`` (the single list);
this module computes a value for every name a workload can measure and the
runner reports 0 for layers the workload does not run (an rt layer on a
simulated workload, a simulator layer on an rt one).

Three sources, kept apart in the README's tables:

- *spans* of the traced pass (``calls`` / ``self_s`` / ``share`` and the
  inclusive ``*_s`` of build/check layers),
- *counts* the program itself keeps (trace kind counts, scheduler events,
  proxy stats) differenced over the timed region,
- *direct* timings the workload took around one public call, and the
  null-layer substitution for the proxy hop.
"""

from __future__ import annotations

from bench.harness import GcMonitor, Outcome, summarize
from bench.tracer import ROOT_LAYER, Tracer, span_overhead_ns

#: Layers that report ``calls`` / ``self_s`` / ``share``.
TRACED_LAYERS = (
    "sim.scheduler", "sim.tracing", "net.transport", "net.radio",
    "devices.sensor", "devices.actuator", "membership.heartbeat", "storage.kv",
    "core.delivery", "core.execution", "core.runtime", "core.home",
    "rt.wire", "rt.cluster", "workload",
)

_RECORD_FUNCTIONS = (
    "Trace.record", "Trace.record_message", "Trace.record_device",
    "MessageChannel.record",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    plain: Outcome, traced: Outcome, tracer: Tracer, gc_monitor: GcMonitor,
    calibration: float, direct: Outcome | None = None,
) -> dict[str, float]:
    layers = tracer.layers()
    wall = traced.region_wall_s
    values: dict[str, float] = dict(plain.layer)

    for layer in TRACED_LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = float(row["calls"])
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.share"] = _ratio(row["self_s"], wall)

    def inclusive(layer: str) -> float:
        return layers.get(layer, {}).get("inclusive_s", 0.0)

    for name, layer in (("core.home.build_s", "core.home"),
                        ("core.records.build_s", "core.records"),
                        ("core.invariants.check_s", "core.invariants"),
                        ("sim.chaos.plan_gen_s", "sim.chaos")):
        if inclusive(layer):
            values[name] = inclusive(layer)

    count = tracer.count
    calls = tracer.calls_of
    records = sum(tracer.counts.values())
    record_calls = sum(calls("sim.tracing", fn) for fn in _RECORD_FUNCTIONS)
    multicasts = calls("net.transport", "HomeNetwork.send_multicast")
    encoded = calls("rt.wire", "encode_message")
    decoded = calls("rt.wire", "decode_body")
    emits = calls("rt.cluster", "LocalCluster.emit")
    values.update({
        "sim.scheduler.events": float(tracer.scheduler_events),
        "sim.scheduler.ns_per_event": _ratio(
            values["sim.scheduler.self_s"] * 1e9, tracer.scheduler_events),
        "sim.tracing.records": float(records),
        "sim.tracing.inline_share": max(0.0, 1.0 - _ratio(record_calls, records)),
        "sim.tracing.kept_events": float(tracer.kept_events),
        "sim.tracing.digest_s": tracer.self_s_of(
            "sim.tracing", "Trace._flush_hash", "Trace.digest", "Trace.seal"),
        "net.transport.sends": float(calls("net.transport", "HomeNetwork.send")),
        "net.transport.multicasts": float(multicasts),
        "net.transport.multicast_hit_ratio": _ratio(
            tracer.frozen_multicast_hits, multicasts),
        "net.transport.messages": float(count("net_send")),
        "net.transport.bytes": float(tracer.net_send_bytes),
        "net.transport.drops": float(count("net_drop")),
        "net.radio.emits": float(count("radio_emit")),
        "net.radio.delivered": float(count("radio_delivered")),
        "net.radio.lost": float(count("radio_lost")),
        "net.radio.polls": float(count("poll_request")),
        "devices.sensor.emits": float(count("sensor_emit")),
        "devices.actuator.actuations": float(count("actuation")),
        "membership.heartbeat.ticks": float(
            calls("membership.heartbeat", "HeartbeatService._tick")),
        "membership.heartbeat.keepalives_in": float(
            calls("membership.heartbeat", "HeartbeatService._on_keepalive")),
        "membership.heartbeat.suspects": float(count("suspect")),
        "core.delivery.ingests": float(count("ingest")),
        "core.delivery.relays": float(count("relay_receive", "rbcast_receive")),
        "core.delivery.unrouted": float(count("ingest_unrouted")),
        "core.execution.logic_deliveries": float(count("logic_delivery")),
        "core.execution.commands": float(count("command_issued")),
        "rt.wire.frames_encoded": float(encoded),
        "rt.wire.frames_decoded": float(decoded),
        "rt.wire.encode_us": _ratio(
            tracer.self_s_of("rt.wire", "encode_message") * 1e6, encoded),
        "rt.wire.decode_us": _ratio(
            tracer.self_s_of("rt.wire", "decode_body") * 1e6, decoded),
        "rt.cluster.emit_us": _ratio(
            tracer.self_s_of("rt.cluster", "LocalCluster.emit") * 1e6, emits),
    })
    if direct is not None:
        # Null-layer substitution with the cluster's own switch: the same
        # closed loop without the proxy, difference per forwarded frame.
        values["rt.proxy.hop_us"] = _ratio(
            (summarize(plain).run_s - summarize(direct).run_s) * 1e6,
            plain.layer["rt.proxy.forwarded"])

    total_self = sum(row["self_s"] for row in layers.values())
    values.update({
        "trace.overhead_ratio": _ratio(traced.region_wall_s, plain.region_wall_s),
        "trace.closure_residual": _ratio(abs(total_self - wall), wall),
        "trace.untraced_share": _ratio(layers[ROOT_LAYER]["self_s"], wall),
        "trace.span_overhead_ns": span_overhead_ns(),
        "host.calibration_ns": calibration,
        "host.gc_collections": float(gc_monitor.collections),
        "host.gc_pause_s": gc_monitor.pause_s,
        "host.gc_pause_max_ms": gc_monitor.pause_max_s * 1e3,
        "run.failed_fraction": _ratio(plain.failed, plain.attempted),
    })
    return values
