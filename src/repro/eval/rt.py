"""Real-runtime evaluation: the ``rt`` experiment surface.

The simulator predicts; the rt harness verifies. A registered
:class:`~repro.core.scenario.Scenario` (:mod:`repro.apps.scenarios`)
builds as a simulated :class:`repro.core.home.Home`, as a real
:class:`repro.rt.cluster.LocalCluster` (in-process asyncio nodes) or as a
:class:`repro.rt.proc.ProcessHome` (one OS process per node, faults via
actual ``SIGKILL``); this module drives all three with the same scripted
workload and the scenario's one :class:`~repro.sim.faults.FaultPlan`.

Both runtimes produce the same runtime-agnostic
:class:`~repro.core.invariants.RunRecord`, so:

- every safety/liveness oracle in :func:`repro.core.invariants.check_all`
  runs unchanged against the real-socket run, and
- :mod:`repro.eval.metrics` reads delivery %, delay, and network overhead
  off both records, and the report cross-validates the rt measurements
  against the sim prediction within explicit tolerance bands.

``rivulet-experiment rt`` runs a scenario end to end and writes
``RT_report.json``; see ``docs/rt.md`` for the fault-model mapping and
the tolerance rationale.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import math
from typing import Any, NamedTuple

from repro.apps.scenarios import scenario_named
from repro.core.home import Script
from repro.core.invariants import RunRecord, Violation, check_all
from repro.core.scenario import Scenario
from repro.eval import metrics
from repro.eval.cases import run_case, toggle_script
from repro.eval.report import write_report
from repro.rt import wire
from repro.rt.cluster import LocalCluster, build_cluster
from repro.rt.faults import RtFaultDriver
from repro.rt.harness import RtHarness
from repro.rt.proc import ProcessHome
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource

#: Emissions stop at this fraction of the duration so in-flight events can
#: settle before the record is cut (mirrors chaos.EMISSION_STOP_FRACTION).
EMISSION_STOP_FRACTION = 0.85


# -- workload (shared by both runtimes) -------------------------------------------------

#: Mean inter-emission gap per push sensor, seconds of run time.
_EMIT_MEANS = {"m1": 0.35, "d1": 0.5}


def workload_schedule(
    scenario: Scenario, seed: int, duration: float
) -> list[tuple[float, str, Any]]:
    """Deterministic (time, sensor, value) script, identical on sim and rt."""
    script = toggle_script(
        RandomSource(seed).child("rt-workload"),
        {sensor: _EMIT_MEANS.get(sensor, 0.4) for sensor in scenario.push_sensors},
        0.8, duration * EMISSION_STOP_FRACTION,
    )
    return sorted(script, key=lambda item: item[0])


# -- runners ---------------------------------------------------------------------------


def run_sim_case(
    scenario: Scenario, *, seed: int, duration: float
) -> tuple[RunRecord, int]:
    """Run the scenario on the simulator; returns (record, events_emitted).

    The one place the two halves' fault scripts differ: the sim transport
    is the paper's reliable TCP, so a process -> process ``set_link_loss``
    has no sim analogue and is skipped here (docs/rt.md).
    """
    script = workload_schedule(scenario, seed, duration)
    plan = FaultPlan([
        action for action in scenario.faults(duration).actions
        if not (action.kind == "set_link_loss" and action.args[0] in scenario.processes)
    ])
    record, _ = run_case(
        scenario, seed=seed, plan=plan, script=script,
        # Settle tail: virtual time is free, give retransmissions room.
        until=duration + 3.0,
    )
    return record, len(script)


async def _drive(
    harness: RtHarness, scenario: Scenario, script: Script, duration: float
) -> None:
    """Play ``script`` and the scenario's fault plan, in wall time."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    driver = RtFaultDriver(harness)
    driver.schedule(scenario.faults(duration))
    for t, sensor, value in script:
        delay = t0 + t - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        harness.emit(sensor, value)
    remaining = (t0 + duration) - loop.time()
    if remaining > 0:
        await asyncio.sleep(remaining)
    driver.cancel()
    await driver.drain()
    if scenario.poll_sensors:
        # Poll epochs generate steady-state traffic that never quiesces;
        # a short fixed settle drains the in-flight push events instead.
        await asyncio.sleep(0.8)
    else:
        await harness.quiesce(idle_for=0.4, timeout=8.0)


class RtCase(NamedTuple):
    """One rt run, checked and measured before its harness stopped."""

    record: RunRecord
    emitted: int
    violations: list[Violation]
    metrics: dict[str, Any]
    diagnostics: dict[str, Any] | None  # in-process only: see node_diagnostics


def node_diagnostics(cluster: LocalCluster) -> dict[str, Any]:
    """Why a fast path was refused, per node of an in-process home: the
    declared-kind frames it wrote as shape 0, by ``kind/reason``
    (:attr:`repro.rt.wire.Names.fallbacks`), and each peer sender's
    :class:`~repro.rt.wire.SenderStats`; and the fault proxy's
    :class:`~repro.rt.proxy.PairStats` and sender stats per ``src->dst``
    pair (None without a proxy). Read before the nodes stop."""
    proxy = cluster.proxy
    senders = {} if proxy is None else proxy.sender_stats()
    return {
        "declared_kinds": [kind for kind, _row in wire.SHAPES],
        "nodes": {name: {
            "wire_fallbacks": {f"{kind}/{reason}": count for (kind, reason), count
                               in sorted(node.names.fallbacks.items())},
            "senders": {dst: dataclasses.asdict(stats)
                        for dst, stats in sorted(node.sender_stats().items())},
        } for name, node in sorted(cluster.nodes.items())},
        "proxy": None if proxy is None else {
            f"{src}->{dst}": {**dataclasses.asdict(stats),
                              "sender": dataclasses.asdict(senders[src, dst])}
            for (src, dst), stats in sorted(proxy.stats.items())},
    }


def run_rt_case(
    scenario: Scenario, *, seed: int, duration: float, mode: str = "subprocess",
) -> RtCase:
    """Run the scenario on a real runtime, then check and measure it.

    ``mode="subprocess"`` spawns one OS process per Rivulet node and
    injects crashes with real ``SIGKILL``; ``mode="in-process"`` runs
    asyncio nodes inside this interpreter (faster, used by tests). The
    oracles and metrics run inside ``async with``: an in-process record is
    a live view of the cluster's trace, which stopping nodes still write to.
    """
    if mode == "in-process":
        harness = build_cluster(scenario, seed=seed)
    elif mode == "subprocess":
        harness = ProcessHome(scenario, seed=seed)
    else:
        raise ValueError(f"unknown rt mode {mode!r} (in-process|subprocess)")

    script = workload_schedule(scenario, seed, duration)

    async def run() -> RtCase:
        async with harness:
            await _drive(harness, scenario, script, duration)
            record = harness.run_record()
            if inspect.isawaitable(record):  # a ProcessHome harvests its children
                record = await record
            return RtCase(record, len(script), check_all(record),
                          record_metrics(record, len(script)),
                          node_diagnostics(harness) if mode == "in-process" else None)

    return asyncio.run(run())


# -- metrics + cross-validation --------------------------------------------------------


def record_metrics(record: RunRecord, events_emitted: int) -> dict[str, Any]:
    """The comparable measurement vector off one RunRecord."""
    trace = record.trace
    deliveries = sum(1 for _ in trace.of_kind("logic_delivery"))
    return {
        "events_emitted": events_emitted,
        "delivered_fraction": metrics.delivered_fraction(trace, events_emitted),
        "mean_delay_ms": (
            metrics.mean_delay_ms(trace) if deliveries else math.nan
        ),
        "event_messages": metrics.event_messages_sent(trace),
        "event_bytes": metrics.event_bytes_sent(trace),
        "actuations": len(record.actuations),
        "logic_deliveries": deliveries,
    }


#: Cross-validation tolerance bands (documented in docs/rt.md).
DELIVERY_BAND = 0.10          # |rt − sim| delivered fraction
RT_DELAY_SLACK_MS = 250.0     # rt mean delay may exceed sim's by this much
MESSAGES_RATIO_BAND = (0.3, 3.0)  # rt/sim event-message ratio


def cross_validate(rt_m: dict[str, Any], sim_m: dict[str, Any]) -> list[dict[str, Any]]:
    """Compare rt measurements against the sim prediction, band by band."""
    checks: list[dict[str, Any]] = []

    delta = abs(rt_m["delivered_fraction"] - sim_m["delivered_fraction"])
    checks.append({
        "name": "delivered_fraction",
        "rt": rt_m["delivered_fraction"],
        "sim": sim_m["delivered_fraction"],
        "band": f"|rt - sim| <= {DELIVERY_BAND}",
        "ok": bool(delta <= DELIVERY_BAND),
    })

    # One-sided: promotion replay after a crash re-delivers old events with
    # large (and legitimate) delays in BOTH runtimes, so an absolute ceiling
    # would flag healthy failover. The rt stack itself must only add bounded
    # localhost overhead on top of the sim prediction.
    delay = rt_m["mean_delay_ms"]
    sim_delay = sim_m["mean_delay_ms"]
    checks.append({
        "name": "mean_delay_ms",
        "rt": delay,
        "sim": sim_delay,
        "band": f"rt <= sim + {RT_DELAY_SLACK_MS} ms",
        "ok": bool(
            not math.isnan(delay)
            and not math.isnan(sim_delay)
            and delay <= sim_delay + RT_DELAY_SLACK_MS
        ),
    })

    lo, hi = MESSAGES_RATIO_BAND
    sim_msgs = sim_m["event_messages"]
    ratio = rt_m["event_messages"] / sim_msgs if sim_msgs else math.nan
    checks.append({
        "name": "event_messages_ratio",
        "rt": rt_m["event_messages"],
        "sim": sim_msgs,
        "band": f"{lo} <= rt/sim <= {hi}",
        "ok": bool(not math.isnan(ratio) and lo <= ratio <= hi),
    })
    return checks


def _violations_summary(violations: list[Violation]) -> list[dict[str, str]]:
    return [
        {"oracle": v.oracle, "detail": v.message} for v in violations
    ]


def run_rt_report(
    *,
    scenario_name: str = "smoke3",
    seed: int = 42,
    duration: float = 6.0,
    mode: str = "subprocess",
    out_path: str | None = "RT_report.json",
) -> dict[str, Any]:
    """The full ``cli rt`` pipeline: rt run + sim prediction + bands."""
    scenario = scenario_named(scenario_name)

    rt = run_rt_case(scenario, seed=seed, duration=duration, mode=mode)

    sim_record, sim_emitted = run_sim_case(
        scenario, seed=seed, duration=duration,
    )
    sim_violations = check_all(sim_record)
    sim_m = record_metrics(sim_record, sim_emitted)

    checks = cross_validate(rt.metrics, sim_m)
    report = {
        "scenario": scenario_name,
        "mode": mode,
        "seed": seed,
        "duration_s": duration,
        "fault_plan": scenario.faults(duration).to_dicts(),
        "rt": {
            "metrics": rt.metrics,
            "violations": _violations_summary(rt.violations),
        },
        "sim": {
            "metrics": sim_m,
            "violations": _violations_summary(sim_violations),
        },
        "cross_validation": checks,
        # Read by people and CI, never by "ok".
        **({} if rt.diagnostics is None else {"diagnostics": rt.diagnostics}),
        "ok": bool(
            not rt.violations
            and not sim_violations
            and all(c["ok"] for c in checks)
        ),
    }
    write_report(report, out_path)
    return report


def render_rt_summary(report: dict[str, Any]) -> str:
    """Human-readable pass/fail table for the terminal."""
    lines = [
        f"rt scenario {report['scenario']!r} "
        f"({report['mode']}, seed={report['seed']}, "
        f"{report['duration_s']:g}s)",
        f"  rt  violations: {len(report['rt']['violations'])}",
        f"  sim violations: {len(report['sim']['violations'])}",
    ]
    for v in report["rt"]["violations"]:
        lines.append(f"    rt  VIOLATION {v['oracle']}: {v['detail']}")
    for v in report["sim"]["violations"]:
        lines.append(f"    sim VIOLATION {v['oracle']}: {v['detail']}")
    for check in report["cross_validation"]:
        status = "ok " if check["ok"] else "FAIL"

        def show(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        lines.append(
            f"  [{status}] {check['name']}: rt={show(check['rt'])} "
            f"sim={show(check['sim'])} ({check['band']})"
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)
