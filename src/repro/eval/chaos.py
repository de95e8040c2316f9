"""Chaos campaigns: randomized fault schedules checked by invariant oracles.

A campaign sweeps seeds x intensity profiles x delivery modes over one
standard chaos scenario (four processes, two restricted-reach push sensors,
a coordinated poll sensor, two actuators, two small apps). Each run:

1. samples a random-but-valid :class:`~repro.sim.faults.FaultPlan` from the
   seed (see :mod:`repro.sim.chaos`),
2. replays it against a fresh deterministic home while a scripted workload
   drives the sensors,
3. performs a guarded cleanup at 70% of the horizon (recover everything,
   heal, restore link losses) and lets the run quiesce,
4. checks every invariant oracle in :mod:`repro.core.invariants`,
5. on violation, shrinks the plan with delta debugging to a minimal
   reproducer.

Results go to ``CHAOS_report.json`` with a content digest, so determinism
is checkable by re-running with the same seeds and comparing digests. Any
recorded run is replayable by seed alone (:func:`replay_run`).

Command line::

    python -m repro.eval.cli chaos --seeds 20 --horizon 3600
    python -m repro.eval.cli chaos --seeds 20 --jobs 4        # multi-core fan-out
    python -m repro.eval.cli chaos --seeds 20 --no-cache      # force cold re-runs
    python -m repro.eval.cli chaos --replay gapless-mild-s3 --report CHAOS_report.json

Campaign cells are independent, so ``--jobs N`` fans them out over a
process pool (see :mod:`repro.eval.parallel`); results merge in task
order, keeping the report digest byte-identical to a sequential run.

The ``device`` intensity profile selects a second scenario
(:func:`run_device_campaign`): soft device faults — stuck, drifting,
flapping, ghosting, browned-out sensors — against four apps with opt-in
:class:`~repro.core.repair.RepairPolicy` configurations. Each cell runs
its plan twice, repair on and repair off, and the report's
``summary.outcome_deltas`` shows per-oracle how many outcome failures
(heating an empty home, missing an intrusion or a hazard) the repair
layer removed::

    python -m repro.eval.cli chaos --profile device --seeds 120
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.core.delivery import GAP, GAPLESS, PollMode, PollingPolicy
from repro.core.delivery_service import GaplessOptions
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.invariants import (
    ORACLE_TRACE_KINDS, GroundTruth, RunRecord, check_all,
    check_hvac_no_empty_heat, check_intrusion_alarm_latency,
    check_safety_no_missed_alert,
)
from repro.core.operators import Operator
from repro.core.repair import RepairPolicy
from repro.core.windows import CountWindow
from repro.eval.cache import RunCache
from repro.eval.parallel import SweepTask, run_sweep
from repro.eval.report import (
    report_digest, require_digest_version, write_report,
)
from repro.sim.tracing import DIGEST_VERSION
from repro.sim.chaos import (
    FaultDomain, FaultScheduleGenerator, PROFILES, shrink,
)
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource

#: Delivery modes the campaign sweeps for the push sensors.
MODES = ("gapless", "gap", "naive-broadcast")

#: Default intensity profiles for a campaign.
DEFAULT_INTENSITIES = ("mild", "severe")

#: Fractions of the horizon: guarded cleanup, last scripted emission.
CLEANUP_FRACTION = 0.7
EMISSION_STOP_FRACTION = 0.8

_PROCESSES = ("p0", "p1", "p2", "p3")
_PUSH_SENSORS = {"m1": ("p1", "p2"), "d1": ("p3",)}
_POLL_SENSOR = ("t1", ("p0", "p1"))
_LINKS = tuple(
    (sensor, process)
    for sensor, hosts in sorted(_PUSH_SENSORS.items())
    for process in hosts
)

#: Mean seconds between scripted emissions, per push sensor.
_EMIT_MEANS = {"m1": 20.0, "d1": 45.0}


def chaos_domain() -> FaultDomain:
    """The fault domain of the standard chaos scenario."""
    return FaultDomain(
        processes=_PROCESSES,
        sensors=tuple(sorted(_PUSH_SENSORS)) + (_POLL_SENSOR[0],),
        actuators=("a1", "a2"),
        links=_LINKS,
    )


def build_chaos_home(
    seed: int,
    mode: str,
    *,
    gapless_options: GaplessOptions | None = None,
) -> Home:
    """The standard chaos scenario home, not yet started.

    ``mode`` selects the delivery protocol of the push sensors; the poll
    sensor always runs Gapless with a coordinated polling policy so every
    campaign run exercises the poll-epoch machinery too.
    """
    if mode not in MODES:
        raise ValueError(f"unknown delivery mode {mode!r} (choose from {MODES})")
    push_delivery = GAP if mode == "gap" else GAPLESS
    override = (
        {name: "naive-broadcast" for name in _PUSH_SENSORS}
        if mode == "naive-broadcast" else {}
    )
    config = HomeConfig(
        seed=seed,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS),
        delivery_override=override,
        gapless_options=gapless_options or GaplessOptions(),
    )
    home = Home(config)
    for name in _PROCESSES:
        home.add_process(name, adapters=("ip", "zwave"))
    for name, hosts in sorted(_PUSH_SENSORS.items()):
        kind = "motion" if name.startswith("m") else "door"
        home.add_sensor(name, kind=kind, technology="ip", processes=list(hosts))
    poll_name, poll_hosts = _POLL_SENSOR
    home.add_sensor(poll_name, kind="temperature", technology="zwave",
                    processes=list(poll_hosts))
    home.add_actuator("a1", processes=["p0"])
    home.add_actuator("a2", processes=["p1"])

    def alarm_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "set", bool(events[-1].value))

    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    for name in sorted(_PUSH_SENSORS):
        alarm.add_sensor(name, push_delivery, CountWindow(1))
    alarm.add_actuator("a1", push_delivery)

    def climate_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("a2", "set", round(float(events[-1].value)))

    climate = Operator("ClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        poll_name, GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=30.0, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("a2", GAPLESS)

    home.deploy(App("alarm", alarm))
    home.deploy(App("climate", climate))
    return home


def _schedule_workload(home: Home, seed: int, horizon: float) -> None:
    """Pre-schedule scripted push-sensor emissions from a dedicated stream.

    The stream is independent of the fault plan, so the workload is
    identical whether a full plan or a shrunk reproducer is replayed.
    """
    source = RandomSource(seed).child("chaos-workload")
    stop = horizon * EMISSION_STOP_FRACTION
    for name in sorted(_PUSH_SENSORS):
        rng = source.child(name)
        sensor = home.sensor(name)
        t = 1.0
        toggle = True
        while True:
            t += rng.expovariate(1.0 / _EMIT_MEANS[name])
            if t >= stop:
                break
            home.scheduler.call_at(t, sensor.emit, toggle)
            toggle = not toggle


def _schedule_cleanup(home: Home, horizon: float) -> None:
    """Guarded repairs at 70% of the horizon so every run ends whole.

    The fault generator already pairs faults with repairs inside its
    window; this sweep only matters for shrunk sub-plans whose repair
    action was removed. Every repair checks state first, so it never
    raises ``FaultError`` whatever subset of the plan ran.
    """
    def cleanup() -> None:
        for name, process in sorted(home.processes.items()):
            if not process.alive:
                home.recover_process(name)
        home.heal_partition()
        for name in home.sensor_names:
            if home.sensor(name).failed:
                home.recover_sensor(name)
        for name in home.actuator_names:
            if home.actuator(name).failed:
                home.recover_actuator(name)
        for sensor, process in _LINKS:
            home.set_link_loss(sensor, process, 0.0)

    home.scheduler.call_at(horizon * CLEANUP_FRACTION, cleanup)


def run_chaos_case(
    seed: int,
    mode: str,
    horizon: float,
    plan: FaultPlan,
    *,
    gapless_options: GaplessOptions | None = None,
) -> tuple[list, Home]:
    """One run: apply ``plan``, drive the workload, check every oracle."""
    home = build_chaos_home(seed, mode, gapless_options=gapless_options)
    home.start()
    plan.apply(home)
    _schedule_cleanup(home, horizon)
    _schedule_workload(home, seed, horizon)
    home.run_until(horizon)
    record = RunRecord.from_home(
        home,
        fault_free=len(plan) == 0,
        lossless=not any(a.kind == "set_link_loss" for a in plan.actions),
    )
    return check_all(record), home


#: Dotted runner name the sweep executor resolves inside workers.
CELL_RUNNER = "repro.eval.chaos:run_campaign_cell"


def _case_spec(
    seed: int,
    mode: str,
    intensity: str,
    horizon: float,
    gapless_options: GaplessOptions | None,
    max_shrink_evals: int,
) -> dict[str, Any]:
    """The JSON-pure, picklable spec of one campaign cell."""
    return {
        "seed": seed,
        "mode": mode,
        "intensity": intensity,
        "horizon": horizon,
        "gapless_options": (
            dataclasses.asdict(gapless_options)
            if gapless_options is not None else None
        ),
        "max_shrink_evals": max_shrink_evals,
    }


def run_campaign_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """One campaign cell, rebuilt entirely from its spec.

    Regenerates the fault plan from the seed, runs the case, and (on
    violation) shrinks to a minimal reproducer — all inside the worker,
    so shrinking parallelizes with the rest of the sweep. The returned
    entry is a pure function of the spec, which is what makes ``--jobs N``
    merges and cache replays byte-identical to sequential runs.
    """
    seed = spec["seed"]
    mode = spec["mode"]
    intensity = spec["intensity"]
    horizon = spec["horizon"]
    options_dict = spec.get("gapless_options")
    gapless_options = (
        GaplessOptions(**options_dict) if options_dict is not None else None
    )
    generator = FaultScheduleGenerator(chaos_domain(), PROFILES[intensity], horizon)
    plan = generator.generate(seed)
    violations, _ = run_chaos_case(
        seed, mode, horizon, plan, gapless_options=gapless_options,
    )
    entry: dict[str, Any] = {
        "run_id": f"{mode}-{intensity}-s{seed}",
        "seed": seed,
        "mode": mode,
        "intensity": intensity,
        "fault_actions": len(plan),
        "verdict": "fail" if violations else "pass",
        "violations": [str(v) for v in violations],
    }
    if violations:
        def is_failing(candidate: FaultPlan) -> bool:
            candidate_violations, _ = run_chaos_case(
                seed, mode, horizon, candidate,
                gapless_options=gapless_options,
            )
            return bool(candidate_violations)

        reproducer = shrink(
            plan, is_failing, max_evals=spec["max_shrink_evals"]
        )
        entry["reproducer"] = reproducer.to_dicts()
        entry["reproducer_actions"] = len(reproducer)
    return entry


def campaign_tasks(
    seeds: list[int],
    horizon: float,
    *,
    intensities: tuple[str, ...] = DEFAULT_INTENSITIES,
    modes: tuple[str, ...] = MODES,
    gapless_options: GaplessOptions | None = None,
    max_shrink_evals: int = 64,
) -> list[SweepTask]:
    """The campaign's cell list, in the canonical (mode, intensity, seed) order."""
    tasks: list[SweepTask] = []
    for mode in modes:
        for intensity in intensities:
            for seed in seeds:
                tasks.append(SweepTask(
                    index=len(tasks),
                    task_id=f"{mode}-{intensity}-s{seed}",
                    runner=CELL_RUNNER,
                    spec=_case_spec(seed, mode, intensity, horizon,
                                    gapless_options, max_shrink_evals),
                ))
    return tasks


def run_campaign(
    seeds: list[int],
    horizon: float = 3600.0,
    *,
    intensities: tuple[str, ...] = DEFAULT_INTENSITIES,
    modes: tuple[str, ...] = MODES,
    gapless_options: GaplessOptions | None = None,
    out_path: str | None = "CHAOS_report.json",
    max_shrink_evals: int = 64,
    progress: bool = False,
    jobs: int | None = 1,
    cache: RunCache | None = None,
) -> dict[str, Any]:
    """Sweep seeds x intensities x modes; write ``CHAOS_report.json``.

    ``jobs`` fans the cells out over a process pool (``None`` = all
    cores); results are merged in task order so the report digest is
    independent of ``jobs``. ``cache`` replays unchanged cells from the
    content-addressed run cache instead of recomputing them.
    """
    tasks = campaign_tasks(
        seeds, horizon, intensities=intensities, modes=modes,
        gapless_options=gapless_options, max_shrink_evals=max_shrink_evals,
    )
    return _campaign_report(
        tasks, horizon, seeds, intensities, modes, out_path=out_path,
        progress=progress, jobs=jobs, cache=cache,
    )


def _campaign_report(
    tasks: list[SweepTask],
    horizon: float,
    seeds: list[int],
    intensities: tuple[str, ...],
    modes: tuple[str, ...],
    *,
    out_path: str | None,
    progress: bool,
    jobs: int | None,
    cache: RunCache | None,
    summarize: Callable[[list[dict[str, Any]]], dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Run the cells; assemble, digest and write the campaign report.

    The tail both campaigns share: a cell that raised becomes an
    ``"error"`` run (counted as a failure), and ``summarize`` adds
    campaign-specific aggregates over the runs to ``summary``.
    """

    def report_progress(done: int, total: int, result) -> None:  # pragma: no cover
        if result.ok:
            tag = "cached" if result.cached else f"{result.seconds:.1f}s"
            print(f"  [{done}/{total}] {result.task.task_id}: "
                  f"{result.value['verdict']} "
                  f"({result.value['fault_actions']} fault actions, {tag})")
        else:
            print(f"  [{done}/{total}] {result.task.task_id}: ERROR")

    results = run_sweep(
        tasks, jobs=jobs, cache=cache,
        progress=report_progress if progress else None,
    )
    runs: list[dict[str, Any]] = []
    for result in results:
        if result.ok:
            runs.append(result.value)
        else:
            spec = result.task.spec
            runs.append({
                "run_id": result.task.task_id,
                "seed": spec["seed"],
                "mode": spec["mode"],
                "intensity": spec["intensity"],
                "fault_actions": 0,
                "verdict": "error",
                "violations": [],
                "error": result.error,
            })

    summary: dict[str, Any] = {
        "total": len(runs),
        "failures": sum(1 for r in runs if r["verdict"] != "pass"),
    }
    if summarize is not None:
        summary.update(summarize(runs))
    report: dict[str, Any] = {
        "digest_version": DIGEST_VERSION,
        "campaign": {
            "horizon": horizon,
            "seeds": list(seeds),
            "intensities": list(intensities),
            "modes": list(modes),
        },
        "runs": runs,
        "summary": summary,
    }
    report["digest"] = report_digest(report)
    write_report(report, out_path)
    return report


def replay_run(
    report: dict[str, Any], run_id: str, *,
    gapless_options: GaplessOptions | None = None,
) -> dict[str, Any]:
    """Re-execute one recorded run (its reproducer if present, else the
    regenerated full plan) and return the fresh verdict.

    Refuses reports recorded under a different trace-digest version: the
    replayed verdict would be compared against artifacts whose digests
    can never match this build's, so the mismatch would be format noise,
    not a determinism signal.
    """
    require_digest_version(report, source=f"chaos report (run {run_id!r})")
    matches = [r for r in report["runs"] if r["run_id"] == run_id]
    if not matches:
        known = ", ".join(r["run_id"] for r in report["runs"][:10])
        raise KeyError(f"no run {run_id!r} in report (e.g. {known})")
    entry = matches[0]
    horizon = report["campaign"]["horizon"]
    is_device = entry["mode"] == "device"
    if "reproducer" in entry:
        plan = FaultPlan.from_dicts(entry["reproducer"])
        source = "reproducer"
    else:
        generator = FaultScheduleGenerator(
            device_domain() if is_device else chaos_domain(),
            PROFILES[entry["intensity"]], horizon,
        )
        plan = generator.generate(entry["seed"])
        source = "regenerated plan"
    if is_device:
        # Device cells replay with repair on — the same criterion their
        # shrinker used, so a stored reproducer keeps failing on replay.
        protocol, outcome, _ = run_device_case(
            entry["seed"], horizon, plan, True
        )
        violations: list = list(protocol)
        violations.extend(
            f"[{name}] {count} outcome violation(s) with repair on"
            for name, count in sorted(outcome.items()) if count
        )
    else:
        violations, _ = run_chaos_case(
            entry["seed"], entry["mode"], horizon, plan,
            gapless_options=gapless_options,
        )
    return {
        "run_id": run_id,
        "source": source,
        "fault_actions": len(plan),
        "verdict": "fail" if violations else "pass",
        "violations": [str(v) for v in violations],
        "recorded_verdict": entry["verdict"],
    }


def render_campaign_summary(report: dict[str, Any]) -> str:
    """A terminal-friendly summary of a campaign report, either scenario."""
    summary = report["summary"]
    campaign = report["campaign"]
    deltas = summary.get("outcome_deltas")
    if deltas is None:
        lines = [
            "chaos campaign",
            f"  runs      : {summary['total']} "
            f"({len(campaign['seeds'])} seeds x {len(campaign['intensities'])} "
            f"intensities x {len(campaign['modes'])} modes)",
        ]
    else:
        lines = [
            "device-fault campaign (repair on vs. off)",
            f"  runs      : {summary['total']} seeds",
        ]
    lines.append(f"  horizon   : {campaign['horizon']:.0f} s")
    lines.append(f"  failures  : {summary['failures']}")
    for name, delta in sorted((deltas or {}).items()):
        lines.append(
            f"  {name}: {delta['repair_off']} violation(s) unrepaired "
            f"-> {delta['repair_on']} repaired"
        )
    lines.append(f"  digest    : {report['digest']}")
    for run in report["runs"]:
        if run["verdict"] == "fail":
            shrunk = run.get("reproducer_actions")
            note = f", reproducer has {shrunk} action(s)" if shrunk else ""
            lines.append(f"  FAIL {run['run_id']}: "
                         f"{len(run['violations'])} violation(s){note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Device-fault scenario: soft faults vs. app-level repair policies.
# ---------------------------------------------------------------------------

_DEVICE_PROCESSES = ("hub", "tv", "fridge")
#: Push sensors come in correlated primary/backup pairs per room function.
_DEVICE_PUSH = {
    "m1": "motion", "m2": "motion",
    "d1": "door", "d2": "door",
    "s1": "smoke", "s2": "smoke",
}
_DEVICE_POLL = "t1"
_DEVICE_LINKS = tuple(
    (sensor, process)
    for sensor in sorted(_DEVICE_PUSH)
    for process in _DEVICE_PROCESSES
)

#: Scripted-workload cadence. Primaries lead their backups by < 1 s, so
#: a healthy primary is never "silent" relative to its backup's readings
#: (the repair layer's echo-synthesis lead allowance is 2 s).
_WARMUP_S = 120.0
_OCCUPIED_S = 540.0
_OCCUPANCY_CYCLE_S = 1080.0
_MOTION_PERIOD_S = 45.0
_SMOKE_PERIOD_S = 60.0
_DEVICE_OFFSETS = {
    "m1": 0.4, "m2": 1.1, "d1": 0.0, "d2": 0.6, "s1": 0.3, "s2": 0.9,
}

#: The outcome oracles the device campaign reports repair deltas for.
OUTCOME_ORACLES = (
    ("hvac_no_empty_heat", check_hvac_no_empty_heat),
    ("intrusion_alarm_latency", check_intrusion_alarm_latency(60.0)),
    ("safety_no_missed_alert", check_safety_no_missed_alert),
)


def device_domain() -> FaultDomain:
    """The fault domain of the device-fault scenario.

    Only the *primaries* (and the lone temperature sensor) take soft
    faults: with one backup per primary there is no quorum, so a stuck
    backup polluting substitution for its healthy primary models exactly
    the correlated-failure class the generator's ``correlated`` groups
    exclude. Hard sensor/actuator outages stay out of the domain — no
    app-level policy can repair a device the platform itself declared
    dead, and the ``device`` profile is about the faults apps *can* fix.
    """
    return FaultDomain(
        processes=_DEVICE_PROCESSES,
        links=_DEVICE_LINKS,
        binary_sensors=("d1", "m1", "s1"),
        numeric_sensors=(_DEVICE_POLL,),
        battery_sensors=("d1", "m1", "s1", _DEVICE_POLL),
        correlated=(("d1", "d2"), ("m1", "m2"), ("s1", "s2")),
    )


def device_repair_policies() -> dict[str, RepairPolicy]:
    """The per-app repair configurations of the device scenario."""
    return {
        # Substitute the backup motion sensor when m1 sticks; hold the
        # last good occupancy over a retry-free glitch; quarantine (and
        # alert the resident) after a sustained disagreement.
        "hvac": RepairPolicy(
            correlations={"m1": ("m2",)}, stuck_after=3, quarantine_after=8,
            hold_last_known_good=True, echo_timeout_s=10.0,
        ),
        # Entry bursts are short: a tight echo timeout lets d2 speak for
        # a flapped/browned-out d1 well inside the latency budget.
        "intrusion": RepairPolicy(
            correlations={"d1": ("d2",)}, stuck_after=3, echo_timeout_s=5.0,
        ),
        "safety": RepairPolicy(
            correlations={"s1": ("s2",)}, stuck_after=3, echo_timeout_s=5.0,
        ),
        # The temperature sensor has no backup: bound it, retry briefly,
        # then hold the last in-range reading.
        "climate": RepairPolicy(
            valid_range={_DEVICE_POLL: (10.0, 35.0)}, retry_timeout_s=20.0,
            hold_last_known_good=True,
        ),
    }


def build_device_home(
    seed: int, repair: bool, *, trace_digest: bool = False
) -> Home:
    """The device-fault scenario home, not yet started.

    ``repair`` toggles the apps' :class:`RepairPolicy` opt-ins — the
    only difference between the two runs of a campaign cell.
    """
    policies = device_repair_policies()

    def policy(app: str) -> RepairPolicy | None:
        return policies[app] if repair else None

    config = HomeConfig(
        seed=seed,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS),
        trace_digest=trace_digest,
    )
    home = Home(config)
    for name in _DEVICE_PROCESSES:
        home.add_process(name, adapters=("ip", "zwave"))
    for name, kind in sorted(_DEVICE_PUSH.items()):
        home.add_sensor(name, kind=kind, technology="ip",
                        processes=list(_DEVICE_PROCESSES))
    home.add_sensor(_DEVICE_POLL, kind="temperature", technology="zwave",
                    processes=list(_DEVICE_PROCESSES))
    home.add_actuator("thermostat", processes=["hub"])
    home.add_actuator("siren", processes=["tv"])
    home.add_actuator("vent", processes=["fridge"])

    def hvac_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "m1"]
        if events:
            occupied = bool(events[-1].value)
            ctx.actuate("thermostat", "set_point", 21.5 if occupied else 16.0)

    hvac = Operator("HvacLogic", on_window=hvac_logic)
    for name in ("m1", "m2"):
        hvac.add_sensor(name, GAPLESS, CountWindow(1))
    hvac.add_actuator("thermostat", GAPLESS)

    def intrusion_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "d1"]
        if events and events[-1].value:
            ctx.actuate("siren", "sound", True)

    intrusion = Operator("IntrusionLogic", on_window=intrusion_logic)
    for name in ("d1", "d2"):
        intrusion.add_sensor(name, GAPLESS, CountWindow(1))
    intrusion.add_actuator("siren", GAPLESS)

    def safety_logic(ctx, combined) -> None:
        events = [e for e in combined.all_events() if e.sensor_id == "s1"]
        if events and events[-1].value:
            ctx.alert("hazard detected")

    safety = Operator("SafetyLogic", on_window=safety_logic)
    for name in ("s1", "s2"):
        safety.add_sensor(name, GAPLESS, CountWindow(1))

    def climate_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("vent", "set", round(float(events[-1].value), 1))

    climate = Operator("DeviceClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        _DEVICE_POLL, GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=60.0, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("vent", GAPLESS)

    home.deploy(App("hvac", hvac, repair=policy("hvac")))
    home.deploy(App("intrusion", intrusion, repair=policy("intrusion")))
    home.deploy(App("safety", safety, repair=policy("safety")))
    home.deploy(App("climate", climate, repair=policy("climate")))
    return home


def _schedule_device_workload(
    home: Home, seed: int, horizon: float
) -> GroundTruth:
    """Script the device scenario's day and return its ground truth.

    Occupancy alternates in fixed blocks; motion sensors report presence
    on a fixed cadence, door sensors burst on every entry and exit,
    smoke sensors heartbeat "clear" and burst on the (seed-drawn)
    hazards. Everything except the hazard times is deterministic, and
    the hazard stream is independent of the fault plan — so a shrunk
    reproducer replays against the identical workload.
    """
    stop = horizon * EMISSION_STOP_FRACTION
    sched = home.scheduler

    occupied: list[tuple[float, float]] = []
    start = _WARMUP_S
    while start + _OCCUPIED_S <= stop:
        occupied.append((start, start + _OCCUPIED_S))
        start += _OCCUPANCY_CYCLE_S
    entries = tuple(s for s, _ in occupied)

    def is_occupied(t: float) -> bool:
        return any(s <= t < e for s, e in occupied)

    for name in ("m1", "m2"):
        sensor = home.sensor(name)
        t = _MOTION_PERIOD_S + _DEVICE_OFFSETS[name]
        while t < stop:
            sched.call_at(t, sensor.emit, is_occupied(t))
            t += _MOTION_PERIOD_S

    def door_burst(at: float) -> None:
        for name in ("d1", "d2"):
            sensor = home.sensor(name)
            off = _DEVICE_OFFSETS[name]
            for i in range(3):
                sched.call_at(at + off + 1.2 * i, sensor.emit, True)
            for i in range(2):
                sched.call_at(at + off + 9.0 + 1.2 * i, sensor.emit, False)

    for entry_at in entries:
        door_burst(entry_at)
    for _, exit_at in occupied:
        door_burst(exit_at)

    for name in ("s1", "s2"):
        sensor = home.sensor(name)
        t = _SMOKE_PERIOD_S + _DEVICE_OFFSETS[name]
        while t < stop:
            sched.call_at(t, sensor.emit, False)
            t += _SMOKE_PERIOD_S

    rng = RandomSource(seed).child("device-workload").child("hazards")
    hazards: list[float] = []
    attempts = 0
    while len(hazards) < 2 and attempts < 64:
        attempts += 1
        h = round(rng.uniform(horizon * 0.15, horizon * 0.6), 1)
        if all(abs(h - other) >= 120.0 for other in hazards):
            hazards.append(h)
    hazards.sort()
    for h in hazards:
        for name in ("s1", "s2"):
            sensor = home.sensor(name)
            off = _DEVICE_OFFSETS[name]
            for i in range(3):
                sched.call_at(h + off + 1.0 * i, sensor.emit, True)
            sched.call_at(h + off + 40.0, sensor.emit, False)

    return GroundTruth(
        occupied=tuple(occupied),
        entries=entries,
        hazards=tuple(hazards),
        horizon=horizon,
    )


def _schedule_device_cleanup(home: Home, horizon: float) -> None:
    """Guarded repairs at 70% of the horizon, soft faults included."""
    def cleanup() -> None:
        for name, process in sorted(home.processes.items()):
            if not process.alive:
                home.recover_process(name)
        home.heal_partition()
        for name in home.sensor_names:
            sensor = home.sensor(name)
            if sensor.failed:
                home.recover_sensor(name)
            if sensor.stuck:
                home.unstick_sensor(name)
            if sensor.drifting:
                home.stop_drift(name)
            if home.is_flapping(name):
                home.stop_flap(name)
            if home.is_ghosting(name):
                home.stop_ghost(name)
            if sensor.battery.weak or sensor.battery.depleted:
                home.replace_battery(name)
        for name in home.actuator_names:
            if home.actuator(name).failed:
                home.recover_actuator(name)
        for sensor_name, process in _DEVICE_LINKS:
            home.set_link_loss(sensor_name, process, 0.0)

    home.scheduler.call_at(horizon * CLEANUP_FRACTION, cleanup)


def run_device_case(
    seed: int, horizon: float, plan: FaultPlan, repair: bool
) -> tuple[list, dict[str, int], Home]:
    """One device-scenario run: protocol violations, outcome counts, home."""
    home = build_device_home(seed, repair)
    home.start()
    plan.apply(home)
    _schedule_device_cleanup(home, horizon)
    truth = _schedule_device_workload(home, seed, horizon)
    home.run_until(horizon)
    record = RunRecord.from_home(
        home,
        fault_free=len(plan) == 0,
        lossless=not any(a.kind == "set_link_loss" for a in plan.actions),
        ground_truth=truth,
    )
    outcome = {
        name: len(oracle(record)) for name, oracle in OUTCOME_ORACLES
    }
    return check_all(record), outcome, home


#: Dotted runner name of one device-campaign cell.
DEVICE_CELL_RUNNER = "repro.eval.chaos:run_device_cell"


def run_device_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """One device-campaign cell: the same plan with repair on and off.

    The verdict judges the repaired run (plus the protocol oracles of
    both runs — repair must never break platform guarantees); the
    unrepaired run's outcome counts exist to measure what the repair
    layer bought.
    """
    seed = spec["seed"]
    horizon = spec["horizon"]
    generator = FaultScheduleGenerator(
        device_domain(), PROFILES["device"], horizon
    )
    plan = generator.generate(seed)
    on_protocol, on_outcome, home = run_device_case(seed, horizon, plan, True)
    off_protocol, off_outcome, _ = run_device_case(seed, horizon, plan, False)

    decisions: dict[str, int] = {}
    for rec in home.trace.iter_kind("repair"):
        key = rec.fields["decision"]
        decisions[key] = decisions.get(key, 0) + 1

    violations = [str(v) for v in on_protocol]
    violations.extend(
        f"[{name}] {count} outcome violation(s) with repair on"
        for name, count in sorted(on_outcome.items()) if count
    )
    violations.extend(str(v) for v in off_protocol)
    entry: dict[str, Any] = {
        "run_id": f"device-s{seed}",
        "seed": seed,
        "mode": "device",
        "intensity": "device",
        "fault_actions": len(plan),
        "verdict": "fail" if violations else "pass",
        "violations": violations,
        "repair": {
            "on": {"protocol": len(on_protocol), "outcome": on_outcome},
            "off": {"protocol": len(off_protocol), "outcome": off_outcome},
        },
        "repair_decisions": dict(sorted(decisions.items())),
    }
    if violations:
        def is_failing(candidate: FaultPlan) -> bool:
            protocol, outcome, _ = run_device_case(
                seed, horizon, candidate, True
            )
            return bool(protocol) or any(outcome.values())

        reproducer = shrink(plan, is_failing, max_evals=spec["max_shrink_evals"])
        entry["reproducer"] = reproducer.to_dicts()
        entry["reproducer_actions"] = len(reproducer)
    return entry


def device_campaign_tasks(
    seeds: list[int], horizon: float, *, max_shrink_evals: int = 64
) -> list[SweepTask]:
    """The device campaign's cell list, one cell per seed."""
    return [
        SweepTask(
            index=i,
            task_id=f"device-s{seed}",
            runner=DEVICE_CELL_RUNNER,
            spec={
                "seed": seed,
                "mode": "device",
                "intensity": "device",
                "horizon": horizon,
                "max_shrink_evals": max_shrink_evals,
            },
        )
        for i, seed in enumerate(seeds)
    ]


def run_device_campaign(
    seeds: list[int],
    horizon: float = 3600.0,
    *,
    out_path: str | None = "CHAOS_report.json",
    max_shrink_evals: int = 64,
    progress: bool = False,
    jobs: int | None = 1,
    cache: RunCache | None = None,
) -> dict[str, Any]:
    """Sweep seeds over the device-fault scenario; write the report.

    ``summary.outcome_deltas`` aggregates, per outcome oracle, how many
    violations the campaign saw with repair on vs. repair off.
    """
    tasks = device_campaign_tasks(
        seeds, horizon, max_shrink_evals=max_shrink_evals
    )
    return _campaign_report(
        tasks, horizon, seeds, ("device",), ("device",), out_path=out_path,
        progress=progress, jobs=jobs, cache=cache, summarize=_outcome_deltas,
    )


def _outcome_deltas(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Per outcome oracle, violations seen with repair on vs. repair off."""
    deltas: dict[str, dict[str, int]] = {
        name: {"repair_on": 0, "repair_off": 0} for name, _ in OUTCOME_ORACLES
    }
    for run in runs:
        repair = run.get("repair")
        if not repair:
            continue
        for name in deltas:
            deltas[name]["repair_on"] += repair["on"]["outcome"].get(name, 0)
            deltas[name]["repair_off"] += repair["off"]["outcome"].get(name, 0)
    return {"outcome_deltas": deltas}
