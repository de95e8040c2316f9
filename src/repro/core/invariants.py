"""Protocol invariant oracles for chaos campaigns.

Each oracle is a pure function over a :class:`RunRecord` — the trace plus
the end state of a finished run — returning a list of :class:`Violation`.
The oracles encode each delivery mode's *actual* guarantee rather than a
generic assertion:

- **at-least-once delivery** — Gapless (Section 4.1): every event that was
  ingested by any process must eventually be processed by every interested
  application. Gap and naive-broadcast are best-effort, so for them the
  check only applies to fault-free, loss-free runs (where nothing can
  legitimately be dropped).
- **no duplicate actuation** — the same ``command_id`` must not be applied
  by a device more than once, except when the delivery service deliberately
  re-routed the command around a suspected bearer (each re-route can yield
  at most one extra application). Distinct commands with equal payloads are
  *not* duplicates: concurrent actives during a partition issue distinct
  ``command_id``s by design (Section 5's idempotent-actuator argument).
- **no delivery to crashed processes** — a crashed process performs no
  protocol steps: no record attributed to it may fall strictly inside one
  of its down intervals.
- **membership convergence** — after every partition heals and the run
  quiesces, each live process's view must contain exactly the live
  processes.
- **poll epoch monotonicity** — per (process, sensor), issued poll epochs
  never decrease, and an epoch gap is reported at most once per epoch.
- **delivered events exist** — sanity: nothing may be delivered to an
  application that no sensor ever emitted.

The oracles only see trace kinds listed in :data:`ORACLE_TRACE_KINDS`, so
campaign runs can use ``keep_trace_kinds`` to bound memory, and every rt
harness keeps exactly that set (the other kinds are counted, not stored).
:func:`check_all` refuses a trace that counted a record of one of those
kinds without keeping it, rather than report a blinded run as clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.tracing import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.home import Home

#: Trace kinds the oracles read. A campaign home may restrict its trace to
#: this set (plus whatever else it wants) without blinding any checker; an
#: rt harness's trace keeps this set and nothing else.
ORACLE_TRACE_KINDS: frozenset[str] = frozenset({
    "sensor_emit", "poll_served",
    "ingest", "relay_receive", "rbcast_receive",
    "logic_delivery",
    "crash", "recover",
    "poll_issued", "epoch_gap",
    "command_issued", "command_rerouted", "actuation",
    "partition", "partition_healed",
    "promotion", "demotion", "promotion_replay",
    "alert", "repair",
})

#: Record kinds that represent protocol activity attributed to a process
#: (``fields["process"]``); none may occur while that process is down.
_PROCESS_ACTIVITY_KINDS = (
    "ingest", "relay_receive", "rbcast_receive", "logic_delivery",
    "poll_issued", "command_issued",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to debug the run."""

    oracle: str
    message: str
    at: float | None = None
    context: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        when = f" @t={self.at:.3f}" if self.at is not None else ""
        return f"[{self.oracle}]{when} {self.message}"


@dataclass(frozen=True)
class GroundTruth:
    """The workload's own timeline, for outcome oracles.

    A scripted workload *knows* when the home was occupied, when someone
    came through the door, and when a hazard started — independent of
    what the (possibly faulty) sensors reported. The outcome oracles
    compare the apps' actuations and alerts against this timeline.
    """

    occupied: tuple[tuple[float, float], ...] = ()
    """Half-open ``[start, end)`` intervals during which the home was
    occupied; everything outside them is ground-truth empty."""

    entries: tuple[float, ...] = ()
    """Times at which someone actually entered through the door."""

    hazards: tuple[float, ...] = ()
    """Times at which a real hazard (smoke, leak, ...) started."""

    horizon: float = 0.0
    """End of the scripted timeline (the run duration): state-based
    oracles audit the trailing empty stretch up to this time."""


@dataclass
class RunRecord:
    """Everything the oracles need from one finished run.

    Built from a live :class:`~repro.core.home.Home` via :meth:`from_home`,
    or by hand in property tests that exercise the oracles on synthetic
    violating traces.
    """

    trace: Trace
    alive: dict[str, bool]
    """End-state liveness per process."""

    views: dict[str, frozenset[str]]
    """End-state membership view members, per *live* process."""

    sensor_modes: dict[str, str]
    """Sensor -> guarantee name ("gap" | "gapless" | "naive-broadcast")."""

    consumers: dict[str, tuple[str, ...]]
    """Sensor -> names of the apps consuming it."""

    actuations: list[tuple[str, tuple, float]] = field(default_factory=list)
    """Applied commands: (actuator, command_id, time), in application order."""

    applied_actions: list[tuple[str, str, Any, float]] = field(default_factory=list)
    """Applied commands with payloads: (actuator, action, value, time), in
    application order — what the outcome oracles reconstruct device state
    from."""

    ground_truth: "GroundTruth | None" = None
    """The workload's occupancy/entry/hazard timeline, when it has one.
    Outcome oracles pass vacuously without it."""

    fault_free: bool = False
    """True when no fault of any kind was injected during the run."""

    lossless: bool = True
    """True when every sensor-process link ran at zero loss throughout."""

    @classmethod
    def from_home(
        cls,
        home: "Home",
        *,
        fault_free: bool = False,
        lossless: bool = True,
        ground_truth: "GroundTruth | None" = None,
    ) -> "RunRecord":
        # Deferred: records.py imports RunRecord from this module.
        from repro.core.records import build_run_record

        actuations: list[tuple[str, tuple, float]] = []
        applied_actions: list[tuple[str, str, Any, float]] = []
        for name in home.actuator_names:
            for rec in home.actuator(name).history:
                if rec.applied:
                    actuations.append((name, rec.command.command_id, rec.time))
                    applied_actions.append(
                        (name, rec.command.action, rec.command.value, rec.time)
                    )
        return build_run_record(
            home.trace,
            processes=home.processes,
            apps=home.apps,
            actuations=actuations,
            applied_actions=applied_actions,
            ground_truth=ground_truth,
            fault_free=fault_free,
            lossless=lossless,
        )


# -- individual oracles ------------------------------------------------------------


def check_delivery_guarantee(record: RunRecord) -> list[Violation]:
    """Every ingested event reaches every interested app, per mode.

    Gapless: unconditional — the journal survives crashes and anti-entropy
    re-propagates, so once *any* process ingested an event it must be
    processed (the run is expected to end healed and quiescent).
    Gap / naive-broadcast: best-effort; only enforceable when the run was
    fault-free and loss-free.
    """
    violations: list[Violation] = []
    delivered: dict[tuple[str, str], set[int]] = {}
    for entry in record.trace.iter_kind("logic_delivery"):
        key = (entry["app"], entry["sensor"])
        delivered.setdefault(key, set()).add(entry["seq"])

    must_check_best_effort = record.fault_free and record.lossless
    for entry in record.trace.iter_kind("ingest"):
        sensor = entry["sensor"]
        mode = record.sensor_modes.get(sensor, "gapless")
        if mode != "gapless" and not must_check_best_effort:
            continue
        for app in record.consumers.get(sensor, ()):
            if entry["seq"] not in delivered.get((app, sensor), set()):
                violations.append(Violation(
                    oracle="delivery_guarantee",
                    message=(
                        f"event {sensor}#{entry['seq']} was ingested "
                        f"(mode={mode}) but never processed by app {app!r}"
                    ),
                    at=entry.time,
                    context={"sensor": sensor, "seq": entry["seq"],
                             "app": app, "mode": mode},
                ))
    return violations


def check_delivered_events_exist(record: RunRecord) -> list[Violation]:
    """No app may process an event its sensor never emitted."""
    emitted: dict[str, set[int]] = {}
    for kind in ("sensor_emit", "poll_served"):
        for entry in record.trace.iter_kind(kind):
            emitted.setdefault(entry["sensor"], set()).add(entry["seq"])
    violations: list[Violation] = []
    for entry in record.trace.iter_kind("logic_delivery"):
        sensor = entry["sensor"]
        if sensor.startswith("op:"):
            continue  # derived streams are emitted by operators, not sensors
        if entry["seq"] not in emitted.get(sensor, set()):
            violations.append(Violation(
                oracle="delivered_events_exist",
                message=(
                    f"app {entry['app']!r} processed {sensor}#{entry['seq']} "
                    "which was never emitted"
                ),
                at=entry.time,
                context={"sensor": sensor, "seq": entry["seq"]},
            ))
    return violations


def check_no_duplicate_actuation(record: RunRecord) -> list[Violation]:
    """A command_id is applied once; re-routes excuse at most one extra."""
    reroutes: dict[str, int] = {}
    for entry in record.trace.iter_kind("command_rerouted"):
        actuator = entry["actuator"]
        reroutes[actuator] = reroutes.get(actuator, 0) + 1

    applications: dict[tuple, int] = {}
    for _, command_id, _ in record.actuations:
        applications[command_id] = applications.get(command_id, 0) + 1

    violations: list[Violation] = []
    excess_per_actuator: dict[str, int] = {}
    for command_id, count in applications.items():
        if count > 1:
            actuator = command_id[0]
            excess_per_actuator[actuator] = (
                excess_per_actuator.get(actuator, 0) + count - 1
            )
    for actuator, excess in sorted(excess_per_actuator.items()):
        allowed = reroutes.get(actuator, 0)
        if excess > allowed:
            violations.append(Violation(
                oracle="no_duplicate_actuation",
                message=(
                    f"actuator {actuator!r} applied {excess} duplicate "
                    f"command(s) but only {allowed} re-route(s) occurred"
                ),
                context={"actuator": actuator, "excess": excess,
                         "reroutes": allowed},
            ))
    return violations


def _down_intervals(record: RunRecord) -> dict[str, list[tuple[float, float]]]:
    intervals: dict[str, list[tuple[float, float]]] = {}
    open_since: dict[str, float] = {}
    for entry in record.trace.events:
        if entry.kind == "crash":
            open_since[entry["process"]] = entry.time
        elif entry.kind == "recover":
            start = open_since.pop(entry["process"], None)
            if start is not None:
                intervals.setdefault(entry["process"], []).append(
                    (start, entry.time)
                )
    for process, start in open_since.items():
        intervals.setdefault(process, []).append((start, float("inf")))
    return intervals


def check_no_delivery_to_crashed(record: RunRecord) -> list[Violation]:
    """No protocol activity may be attributed to a down process.

    Strict interiors only: activity *at* the crash or recovery instant is
    legitimate (the crash handler itself, boot-time replay).
    """
    intervals = _down_intervals(record)
    if not intervals:
        return []
    violations: list[Violation] = []
    for kind in _PROCESS_ACTIVITY_KINDS:
        for entry in record.trace.iter_kind(kind):
            process = entry.get("process")
            if process is None:
                continue
            for start, end in intervals.get(process, ()):
                if start < entry.time < end:
                    violations.append(Violation(
                        oracle="no_delivery_to_crashed",
                        message=(
                            f"{kind} attributed to {process!r} at "
                            f"t={entry.time:.3f} inside its down interval "
                            f"({start:.3f}, {end:.3f})"
                        ),
                        at=entry.time,
                        context={"kind": kind, "process": process},
                    ))
                    break
    return violations


def check_views_converge(record: RunRecord) -> list[Violation]:
    """End-state: every live process sees exactly the live processes."""
    live = frozenset(name for name, ok in record.alive.items() if ok)
    violations: list[Violation] = []
    for process in sorted(live):
        view = record.views.get(process)
        if view is None:
            violations.append(Violation(
                oracle="views_converge",
                message=f"live process {process!r} reported no view",
                context={"process": process},
            ))
        elif view != live:
            violations.append(Violation(
                oracle="views_converge",
                message=(
                    f"process {process!r} view {sorted(view)} != live set "
                    f"{sorted(live)} after heal"
                ),
                context={"process": process, "view": sorted(view),
                         "live": sorted(live)},
            ))
    return violations


def check_poll_epochs_monotonic(record: RunRecord) -> list[Violation]:
    """Per (process, sensor): poll epochs never regress; gaps are unique."""
    violations: list[Violation] = []
    last_epoch: dict[tuple[str, str], int] = {}
    for entry in record.trace.iter_kind("poll_issued"):
        key = (entry.get("process", "?"), entry["sensor"])
        previous = last_epoch.get(key)
        epoch = entry["epoch"]
        if previous is not None and epoch < previous:
            violations.append(Violation(
                oracle="poll_epochs_monotonic",
                message=(
                    f"poll epoch regressed on {key[1]}@{key[0]}: "
                    f"{previous} -> {epoch}"
                ),
                at=entry.time,
                context={"process": key[0], "sensor": key[1],
                         "previous": previous, "epoch": epoch},
            ))
        last_epoch[key] = epoch

    seen_gaps: set[tuple[str, str, int]] = set()
    for entry in record.trace.iter_kind("epoch_gap"):
        key = (entry.get("process", "?"), entry["sensor"], entry["epoch"])
        if key in seen_gaps:
            violations.append(Violation(
                oracle="poll_epochs_monotonic",
                message=(
                    f"epoch gap for {key[1]}@{key[0]} epoch {key[2]} "
                    "reported twice"
                ),
                at=entry.time,
                context={"process": key[0], "sensor": key[1],
                         "epoch": key[2]},
            ))
        seen_gaps.add(key)
    return violations


# -- outcome oracles (app-level ground truth) ---------------------------------------
#
# Unlike the protocol oracles above — which hold for *any* run — these
# compare app behaviour against the workload's GroundTruth timeline, so
# they only fire on runs whose RunRecord carries one. They are not part
# of ALL_ORACLES: device faults can legitimately break app outcomes when
# no repair policy is in place; campaigns report them separately as
# repair-on vs repair-off deltas.


def _empty_intervals(
    truth: GroundTruth, horizon: float
) -> list[tuple[float, float]]:
    """Complement of the occupied intervals over [0, horizon)."""
    empty: list[tuple[float, float]] = []
    cursor = 0.0
    for start, end in sorted(truth.occupied):
        if start > cursor:
            empty.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < horizon:
        empty.append((cursor, horizon))
    return empty


def check_hvac_no_empty_heat(
    record: RunRecord,
    *,
    thermostat: str = "thermostat",
    occupied_value: Any = 21.5,
    grace_s: float = 300.0,
) -> list[Violation]:
    """The thermostat must not hold the occupied set-point through a
    ground-truth empty stretch.

    State-based with a grace period, not per-command: a bounded detection
    lag after the home empties (sensor cadence x stuck-detection window)
    is expected even with repair on; heating an empty home for longer
    than ``grace_s`` is the outcome failure.
    """
    truth = record.ground_truth
    if truth is None:
        return []
    # Reconstruct the set-point step function from applied commands.
    steps = [
        (time, value)
        for name, action, value, time in record.applied_actions
        if name == thermostat and action == "set_point"
    ]
    if not steps:
        return []
    horizon = max(
        truth.horizon,
        steps[-1][0],
        max((end for _, end in truth.occupied), default=0.0),
    )
    violations: list[Violation] = []
    for empty_start, empty_end in _empty_intervals(truth, horizon):
        # Walk the step function across this empty interval and accumulate
        # the longest stretch held at the occupied set-point.
        state: Any = None
        state_since = 0.0
        worst_start: float | None = None
        worst_len = 0.0

        def account(until: float) -> None:
            nonlocal worst_start, worst_len
            if state == occupied_value:
                start = max(state_since, empty_start)
                end = min(until, empty_end)
                if end - start > worst_len:
                    worst_len = end - start
                    worst_start = start

        for time, value in steps:
            if time >= empty_end:
                break
            if value == state:
                continue  # re-asserting the same set-point extends the stretch
            account(time)
            state = value
            state_since = time
        account(empty_end)
        if worst_len > grace_s and worst_start is not None:
            violations.append(Violation(
                oracle="hvac_no_empty_heat",
                message=(
                    f"thermostat {thermostat!r} held the occupied set-point "
                    f"{occupied_value!r} for {worst_len:.0f}s inside the "
                    f"empty interval ({empty_start:.0f}, {empty_end:.0f})"
                ),
                at=worst_start,
                context={"thermostat": thermostat, "held_s": worst_len,
                         "empty_start": empty_start, "empty_end": empty_end},
            ))
    return violations


def check_intrusion_alarm_latency(
    n_s: float = 60.0, *, siren: str = "siren", action: str = "sound"
):
    """Factory: every ground-truth entry must sound the siren within ``n_s``."""

    def oracle(record: RunRecord) -> list[Violation]:
        truth = record.ground_truth
        if truth is None:
            return []
        sounded = sorted(
            time
            for name, act, value, time in record.applied_actions
            if name == siren and act == action and value
        )
        violations: list[Violation] = []
        for entry in truth.entries:
            if not any(entry <= t <= entry + n_s for t in sounded):
                violations.append(Violation(
                    oracle="intrusion_alarm_latency",
                    message=(
                        f"entry at t={entry:.1f} raised no {siren!r} "
                        f"{action!r} within {n_s:.0f}s"
                    ),
                    at=entry,
                    context={"entry": entry, "window_s": n_s},
                ))
        return violations

    oracle.__name__ = f"check_intrusion_alarm_latency_{n_s:g}s"
    return oracle


def check_safety_no_missed_alert(
    record: RunRecord, *, app: str = "safety", window_s: float = 60.0
) -> list[Violation]:
    """Every ground-truth hazard must raise an app alert within the window."""
    truth = record.ground_truth
    if truth is None:
        return []
    alerts = sorted(
        entry.time
        for entry in record.trace.iter_kind("alert")
        if entry.get("app") == app
    )
    violations: list[Violation] = []
    for hazard in truth.hazards:
        if not any(hazard <= t <= hazard + window_s for t in alerts):
            violations.append(Violation(
                oracle="safety_no_missed_alert",
                message=(
                    f"hazard at t={hazard:.1f} raised no {app!r} alert "
                    f"within {window_s:.0f}s"
                ),
                at=hazard,
                context={"hazard": hazard, "window_s": window_s},
            ))
    return violations


#: All oracles, in reporting order.
ALL_ORACLES = (
    check_delivery_guarantee,
    check_delivered_events_exist,
    check_no_duplicate_actuation,
    check_no_delivery_to_crashed,
    check_views_converge,
    check_poll_epochs_monotonic,
)


def check_all(record: RunRecord) -> list[Violation]:
    """Run every oracle; the run passes iff the result is empty.

    Raises ValueError if the trace dropped records of a kind the oracles
    read: a checker scanning a kind that was not kept would see nothing
    and pass.
    """
    for kind in sorted(ORACLE_TRACE_KINDS):
        record.trace.all_of_kind(kind)
    violations: list[Violation] = []
    for oracle in ALL_ORACLES:
        violations.extend(oracle(record))
    return violations


# -- fleet isolation ----------------------------------------------------------------

#: Trace kinds whose records carry src/dst process pairs; in a fleet, both
#: ends must belong to the home whose trace recorded them.
_PAIRED_NET_KINDS = ("net_send", "net_deliver", "net_drop")


def check_fleet_isolation(fleet: Any) -> list[Violation]:
    """No tenant of a fleet may show another tenant's state or events.

    Homes in a fleet share only the scheduler; their transports, radios,
    traces and RNG roots are private. This oracle audits that structure
    per home:

    - the transport endpoint table holds exactly the home's own processes;
    - every radio link connects one of the home's devices to one of the
      home's processes;
    - trace ``net_send``/``net_deliver``/``net_drop`` src/dst pairs name
      only the home's processes;
    - process-attributed trace records (``ingest``, ``logic_delivery``,
      ...) name only the home's processes, and ``ingest`` records name
      only the home's sensors.

    Accepts anything with ``home_ids`` and ``home()`` — a
    :class:`~repro.core.fleet.Fleet` or a bare
    :class:`~repro.sim.context.SimContext` registry wrapper.
    """
    violations: list[Violation] = []
    for home_id in fleet.home_ids:
        home = fleet.home(home_id)
        processes = set(home.process_names)
        devices = set(home.sensor_names) | set(home.actuator_names)

        foreign = set(home.network.endpoints) - processes
        for name in sorted(foreign):
            violations.append(Violation(
                oracle="fleet_isolation",
                message=(
                    f"home {home_id!r} transport registers endpoint "
                    f"{name!r} which is not one of its processes"
                ),
                context={"home_id": home_id, "endpoint": name},
            ))

        for device, process in home.radio.link_keys():
            if device not in devices or process not in processes:
                violations.append(Violation(
                    oracle="fleet_isolation",
                    message=(
                        f"home {home_id!r} has a radio link "
                        f"{device!r} -> {process!r} naming a foreign "
                        "device or process"
                    ),
                    context={"home_id": home_id, "device": device,
                             "process": process},
                ))

        for kind in _PAIRED_NET_KINDS:
            for (src, dst), count in sorted(home.trace.pair_counts(kind).items()):
                if src not in processes or dst not in processes:
                    violations.append(Violation(
                        oracle="fleet_isolation",
                        message=(
                            f"home {home_id!r} trace has {count} {kind} "
                            f"record(s) for foreign pair {src!r} -> {dst!r}"
                        ),
                        context={"home_id": home_id, "kind": kind,
                                 "src": src, "dst": dst},
                    ))

        for kind in _PROCESS_ACTIVITY_KINDS:
            for entry in home.trace.iter_kind(kind):
                process = entry.get("process")
                if process is not None and process not in processes:
                    violations.append(Violation(
                        oracle="fleet_isolation",
                        message=(
                            f"home {home_id!r} trace attributes a {kind} "
                            f"record to foreign process {process!r}"
                        ),
                        at=entry.time,
                        context={"home_id": home_id, "kind": kind,
                                 "process": process},
                    ))
        for entry in home.trace.iter_kind("ingest"):
            sensor = entry.get("sensor")
            if sensor is not None and sensor not in devices:
                violations.append(Violation(
                    oracle="fleet_isolation",
                    message=(
                        f"home {home_id!r} ingested an event from foreign "
                        f"sensor {sensor!r}"
                    ),
                    at=entry.time,
                    context={"home_id": home_id, "sensor": sensor},
                ))
    return violations
