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
recorded run is replayable by seed alone (:func:`replay_run`, the
``replay`` subcommand).

Command line::

    python -m repro.eval.cli chaos --seeds 20 --horizon 3600
    python -m repro.eval.cli chaos --seeds 20 --jobs 4        # multi-core fan-out
    python -m repro.eval.cli chaos --seeds 20 --no-cache      # force cold re-runs
    python -m repro.eval.cli replay gapless-mild-s3 --report CHAOS_report.json

Campaign cells are independent, so ``--jobs N`` fans them out over a
process pool (see :mod:`repro.eval.parallel`); results merge in task
order, keeping the report digest byte-identical to a sequential run.

The device campaign is one more *mode* of the same campaign, not a second
runner: ``run_campaign(seeds, horizon, modes=("device",),
intensities=("device",))`` selects a second scenario — soft device faults
(stuck, drifting, flapping, ghosting, browned-out sensors) against four
apps with opt-in :class:`~repro.core.repair.RepairPolicy` configurations.
Each cell runs its plan twice, repair on and repair off, and the report's
``summary.outcome_deltas`` shows per-oracle how many outcome failures
(heating an empty home, missing an intrusion or a hazard) the repair
layer removed. ``device`` is both the mode and the profile of its cells,
so it combines with no other mode or intensity (:func:`campaign_tasks`
refuses the mix, ``--profile device --modes ...`` exits 2)::

    python -m repro.eval.cli chaos --profile device --seeds 120
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.apps.scenarios import MODES, chaos_scenario, device_scenario
from repro.core.delivery_service import GaplessOptions
from repro.core.home import Home
from repro.core.invariants import (
    ORACLE_TRACE_KINDS, GroundTruth, check_all,
    check_hvac_no_empty_heat, check_intrusion_alarm_latency,
    check_safety_no_missed_alert,
)
from repro.eval.cache import RunCache
from repro.eval.cases import run_case, toggle_script
from repro.eval.parallel import SweepResult, SweepTask, sweep_report
from repro.eval.report import require_digest_version
from repro.sim.tracing import DIGEST_VERSION
from repro.sim.chaos import (
    FaultDomain, FaultScheduleGenerator, PROFILES, shrink,
)
from repro.sim.faults import FaultPlan
from repro.sim.random import RandomSource

#: Default intensity profiles for a campaign.
DEFAULT_INTENSITIES = ("mild", "severe")

#: Fractions of the horizon: guarded cleanup, last scripted emission.
CLEANUP_FRACTION = 0.7
EMISSION_STOP_FRACTION = 0.8

#: Mean seconds between scripted emissions, per push sensor in script order.
_EMIT_MEANS = {"d1": 45.0, "m1": 20.0}


def chaos_domain() -> FaultDomain:
    """The fault domain of the standard chaos scenario."""
    home = chaos_scenario("gapless")
    return FaultDomain(
        processes=home.processes,
        sensors=tuple(home.push_sensors) + tuple(home.poll_sensors),
        actuators=tuple(home.actuators),
        links=home.push_links,
    )


def _generated_plan(mode: str, intensity: str, horizon: float, seed: int) -> FaultPlan:
    """The plan a campaign cell draws: a pure function of its arguments."""
    domain = device_domain() if mode == "device" else chaos_domain()
    return FaultScheduleGenerator(domain, PROFILES[intensity], horizon).generate(seed)


def chaos_workload(seed: int, horizon: float) -> list[tuple[float, str, bool]]:
    """Scripted push-sensor emissions from a dedicated stream.

    The stream is independent of the fault plan, so the workload is
    identical whether a full plan or a shrunk reproducer is replayed.
    """
    return list(toggle_script(
        RandomSource(seed).child("chaos-workload"), _EMIT_MEANS,
        1.0, horizon * EMISSION_STOP_FRACTION,
    ))


def run_chaos_case(
    seed: int,
    mode: str,
    horizon: float,
    plan: FaultPlan,
    *,
    gapless_options: GaplessOptions | None = None,
) -> tuple[list, Home]:
    """One run: apply ``plan``, play the workload, check every oracle."""
    record, home = run_case(
        chaos_scenario(mode), seed=seed, plan=plan,
        script=chaos_workload(seed, horizon),
        until=horizon, cleanup_at=horizon * CLEANUP_FRACTION,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS),
        gapless_options=gapless_options or GaplessOptions(),
    )
    return check_all(record), home


def _run_id(mode: str, intensity: str, seed: int) -> str:
    """A cell's id; ``device`` is both the mode and the profile of its cells."""
    return f"device-s{seed}" if mode == "device" else f"{mode}-{intensity}-s{seed}"


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


def _cell_entry(
    spec: dict[str, Any],
    plan: FaultPlan,
    violations: list[str],
    is_failing: Callable[[FaultPlan], bool],
    **measured: Any,
) -> dict[str, Any]:
    """The report entry of one cell; a failing cell carries its plan
    shrunk to a minimal reproducer."""
    entry = {
        "run_id": _run_id(spec["mode"], spec["intensity"], spec["seed"]),
        "seed": spec["seed"],
        "mode": spec["mode"],
        "intensity": spec["intensity"],
        "fault_actions": len(plan),
        "verdict": "fail" if violations else "pass",
        "violations": violations,
        **measured,
    }
    if violations:
        reproducer = shrink(plan, is_failing, max_evals=spec["max_shrink_evals"])
        entry["reproducer"] = reproducer.to_dicts()
        entry["reproducer_actions"] = len(reproducer)
    return entry


def run_campaign_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """One campaign cell, rebuilt entirely from its spec.

    Regenerates the fault plan from the seed, runs the case, and (on
    violation) shrinks to a minimal reproducer — all inside the worker,
    so shrinking parallelizes with the rest of the sweep. The returned
    entry is a pure function of the spec, which is what makes ``--jobs N``
    merges and cache replays byte-identical to sequential runs.
    """
    if spec["mode"] == "device":
        return _device_cell_entry(spec)
    seed = spec["seed"]
    mode = spec["mode"]
    horizon = spec["horizon"]
    options_dict = spec.get("gapless_options")
    gapless_options = (
        GaplessOptions(**options_dict) if options_dict is not None else None
    )

    def violations_of(candidate: FaultPlan) -> list:
        return run_chaos_case(
            seed, mode, horizon, candidate, gapless_options=gapless_options,
        )[0]

    plan = _generated_plan(mode, spec["intensity"], horizon, seed)
    return _cell_entry(
        spec, plan, [str(v) for v in violations_of(plan)],
        lambda candidate: bool(violations_of(candidate)),
    )


def campaign_tasks(
    seeds: list[int],
    horizon: float,
    *,
    intensities: tuple[str, ...] = DEFAULT_INTENSITIES,
    modes: tuple[str, ...] = MODES,
    gapless_options: GaplessOptions | None = None,
    max_shrink_evals: int = 64,
) -> list[SweepTask]:
    """The campaign's cell list, in the canonical (mode, intensity, seed) order.

    ``device`` names a scenario and the one profile its cells draw from,
    so a device cell's id carries no intensity: mixed with anything else,
    cells would collide on ``device-sN`` and ignore their intensity. Its
    cells run the device scenario's own delivery, so they would ignore
    ``gapless_options`` too.
    """
    asked = (tuple(modes), tuple(intensities))
    if "device" in asked[0] + asked[1] and asked != (("device",), ("device",)):
        raise ValueError(
            "the device campaign is modes=('device',) with "
            "intensities=('device',) and combines with no other mode or "
            f"intensity, got modes={asked[0]!r} intensities={asked[1]!r}"
        )
    if "device" in asked[0] and gapless_options is not None:
        raise ValueError(
            "the device campaign takes no gapless_options: its cells would "
            f"run without them, got {gapless_options!r}"
        )
    return [
        SweepTask(
            _run_id(mode, intensity, seed), run_campaign_cell,
            _case_spec(seed, mode, intensity, horizon,
                       gapless_options, max_shrink_evals),
        )
        for mode in modes for intensity in intensities for seed in seeds
    ]


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
    content-addressed run cache instead of recomputing them. A cell that
    raised becomes an ``"error"`` run, counted as a failure; the device
    campaign (``"device" in modes``) adds ``summary.outcome_deltas``.
    """
    tasks = campaign_tasks(
        seeds, horizon, intensities=intensities, modes=modes,
        gapless_options=gapless_options, max_shrink_evals=max_shrink_evals,
    )

    def assemble(results: list[SweepResult]) -> dict[str, Any]:
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
        if "device" in modes:
            summary["outcome_deltas"] = _outcome_deltas(runs)
        return {
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

    return sweep_report(
        tasks, assemble, jobs=jobs, cache=cache, out_path=out_path,
        progress=progress,
    )


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
    seed, mode = entry["seed"], entry["mode"]
    if "reproducer" in entry:
        plan = FaultPlan.from_dicts(entry["reproducer"])
        source = "reproducer"
    else:
        plan = _generated_plan(mode, entry["intensity"], horizon, seed)
        source = "regenerated plan"
    if mode == "device":
        # Device cells replay with repair on — the same criterion their
        # shrinker used, so a stored reproducer keeps failing on replay.
        protocol, outcome, _ = run_device_case(seed, horizon, plan, True)
        violations = _repaired_violations(protocol, outcome)
    else:
        violations, _ = run_chaos_case(
            seed, mode, horizon, plan, gapless_options=gapless_options,
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
    home = device_scenario(True)
    return FaultDomain(
        processes=home.processes,
        links=home.push_links,
        binary_sensors=("d1", "m1", "s1"),
        numeric_sensors=("t1",),
        battery_sensors=("d1", "m1", "s1", "t1"),
        correlated=(("d1", "d2"), ("m1", "m2"), ("s1", "s2")),
    )


def device_workload(
    seed: int, horizon: float
) -> tuple[list[tuple[float, str, bool]], GroundTruth]:
    """The device scenario's scripted day and its ground truth.

    Occupancy alternates in fixed blocks; motion sensors report presence
    on a fixed cadence, door sensors burst on every entry and exit,
    smoke sensors heartbeat "clear" and burst on the (seed-drawn)
    hazards. Everything except the hazard times is deterministic, and
    the hazard stream is independent of the fault plan — so a shrunk
    reproducer replays against the identical workload.
    """
    stop = horizon * EMISSION_STOP_FRACTION
    script: list[tuple[float, str, bool]] = []

    occupied: list[tuple[float, float]] = []
    start = _WARMUP_S
    while start + _OCCUPIED_S <= stop:
        occupied.append((start, start + _OCCUPIED_S))
        start += _OCCUPANCY_CYCLE_S
    entries = tuple(s for s, _ in occupied)

    def is_occupied(t: float) -> bool:
        return any(s <= t < e for s, e in occupied)

    def periodic(name: str, period: float, value: Callable[[float], bool]) -> None:
        t = period + _DEVICE_OFFSETS[name]
        while t < stop:
            script.append((t, name, value(t)))
            t += period

    for name in ("m1", "m2"):
        periodic(name, _MOTION_PERIOD_S, is_occupied)
    for at in entries + tuple(e for _, e in occupied):  # every entry, then exit
        for name in ("d1", "d2"):
            t0 = at + _DEVICE_OFFSETS[name]
            script.extend((t0 + 1.2 * i, name, True) for i in range(3))
            script.extend((t0 + 9.0 + 1.2 * i, name, False) for i in range(2))
    for name in ("s1", "s2"):
        periodic(name, _SMOKE_PERIOD_S, lambda t: False)

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
            t0 = h + _DEVICE_OFFSETS[name]
            script.extend((t0 + 1.0 * i, name, True) for i in range(3))
            script.append((t0 + 40.0, name, False))

    return script, GroundTruth(
        occupied=tuple(occupied),
        entries=entries,
        hazards=tuple(hazards),
        horizon=horizon,
    )


def run_device_case(
    seed: int, horizon: float, plan: FaultPlan, repair: bool
) -> tuple[list, dict[str, int], Home]:
    """One device-scenario run: protocol violations, outcome counts, home."""
    script, truth = device_workload(seed, horizon)
    record, home = run_case(
        device_scenario(repair), seed=seed, plan=plan, script=script,
        until=horizon, cleanup_at=horizon * CLEANUP_FRACTION,
        keep_trace_kinds=set(ORACLE_TRACE_KINDS),
    )
    record.ground_truth = truth
    outcome = {
        name: len(oracle(record)) for name, oracle in OUTCOME_ORACLES
    }
    return check_all(record), outcome, home


def _repaired_violations(protocol: list, outcome: dict[str, int]) -> list[str]:
    """What a repair-on run is failed for: protocol, then outcome oracles."""
    return [str(v) for v in protocol] + [
        f"[{name}] {count} outcome violation(s) with repair on"
        for name, count in sorted(outcome.items()) if count
    ]


def _device_cell_entry(spec: dict[str, Any]) -> dict[str, Any]:
    """A device-campaign cell: the same plan with repair on and off.

    The verdict judges the repaired run (plus the protocol oracles of
    both runs — repair must never break platform guarantees); the
    unrepaired run's outcome counts exist to measure what the repair
    layer bought.
    """
    seed = spec["seed"]
    horizon = spec["horizon"]
    plan = _generated_plan("device", "device", horizon, seed)
    on_protocol, on_outcome, home = run_device_case(seed, horizon, plan, True)
    off_protocol, off_outcome, _ = run_device_case(seed, horizon, plan, False)

    decisions: dict[str, int] = {}
    for rec in home.trace.iter_kind("repair"):
        key = rec.fields["decision"]
        decisions[key] = decisions.get(key, 0) + 1

    def is_failing(candidate: FaultPlan) -> bool:
        protocol, outcome, _ = run_device_case(seed, horizon, candidate, True)
        return bool(protocol) or any(outcome.values())

    return _cell_entry(
        spec, plan,
        _repaired_violations(on_protocol, on_outcome)
        + [str(v) for v in off_protocol],
        is_failing,
        repair={
            "on": {"protocol": len(on_protocol), "outcome": on_outcome},
            "off": {"protocol": len(off_protocol), "outcome": off_outcome},
        },
        repair_decisions=dict(sorted(decisions.items())),
    )


def _outcome_deltas(runs: list[dict[str, Any]]) -> dict[str, dict[str, int]]:
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
    return deltas
