"""Fleet evaluation: shard a fleet of homes across cores, merge exactly.

Homes in a fleet never interact — they share only the scheduler — so a
fleet of N homes can be *sharded*: any partition of the ``home_id`` set
into cells, each cell simulated in its own worker process, reproduces the
monolithic run home-for-home. Every per-home quantity derives from
``(fleet seed, home_id)`` alone (see :func:`repro.eval.workloads.fleet_deployment`),
so a home's trace digest is the same whether it ran alongside all of its
siblings, a shard's worth of them, or none.

:func:`run_fleet_sweep` exploits that through the tail every sweep
shares (:func:`repro.eval.parallel.sweep_report`): one :class:`SweepTask`
per shard, results merged by ``home_id`` (never by completion order), and
a report digest over per-home content only — byte-identical for every
``--jobs`` and ``--shards`` choice. The merged ``fleet_digest`` equals
``Fleet.digest()`` of a monolithic in-process run, which the integration
tests pin.

:func:`run_fleet_checkpointed` is that monolithic run, day by day with
atomic snapshots (and resumable from one). It folds its homes through
the same :func:`fleet_report`, so its report — digest included — equals
the sharded sweep's for the same homes, days and seed.
"""

from __future__ import annotations

from typing import Any

from repro.core.fleet import Fleet, combine_digests
from repro.eval.cache import RunCache
from repro.eval.parallel import SweepResult, SweepTask, sweep_report
from repro.eval.report import report_digest, write_report
from repro.eval.workloads import DAY_S, fleet_deployment, fleet_home_ids
from repro.sim.tracing import DIGEST_VERSION


def run_fleet_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """Simulate one shard of a fleet; returns per-home results (JSON-pure).

    ``spec``: ``{"seed": int, "days": float, "home_ids": [str, ...]}``.
    The cell builds a fleet containing exactly its shard's homes — with
    per-home seeds derived from the *fleet* seed, independent of which
    shard a home landed in — runs it to the end of the workload horizon,
    and reports each home's trace digest and counters.
    """
    days = float(spec["days"])
    fleet, _workloads = fleet_deployment(
        home_ids=list(spec["home_ids"]), seed=int(spec["seed"]), days=days,
    )
    fleet.run_until(days * DAY_S)
    return home_rows(fleet)


def home_rows(fleet: Fleet) -> dict[str, dict[str, Any]]:
    """Each home's row of ``fleet.metrics()`` plus its trace digest."""
    metrics = fleet.metrics()["homes"]
    return {
        home_id: dict(metrics[home_id], digest=fleet.home(home_id).trace.digest())
        for home_id in fleet.home_ids
    }


def fleet_report(
    homes: dict[str, dict[str, Any]], errors: list[dict[str, str]], *,
    n_homes: int, days: float, seed: int,
) -> dict[str, Any]:
    """The one fleet report body: per-home rows merged by ``home_id``, summed.

    Both fleet paths fold through here — the sharded sweep and the
    checkpointed run — so the same homes, days and seed give the same
    report, hence the same digest, whichever path ran them.
    """
    homes = {home_id: homes[home_id] for home_id in sorted(homes)}
    summary_keys = ("events_emitted", "radio_delivered", "net_messages",
                    "net_bytes", "logic_deliveries")
    summary: dict[str, Any] = {
        key: sum(per_home[key] for per_home in homes.values())
        for key in summary_keys
    }
    summary["homes"] = len(homes)
    summary["errors"] = len(errors)
    summary["fleet_digest"] = combine_digests(
        {home_id: per_home["digest"] for home_id, per_home in homes.items()}
    )
    return {
        "digest_version": DIGEST_VERSION,
        "fleet": {"n_homes": n_homes, "days": days, "seed": seed},
        "homes": homes,
        "summary": summary,
        "errors": errors,
    }


def fleet_tasks(
    home_ids: list[str], *, seed: int, days: float, shards: int,
) -> list[SweepTask]:
    """Partition ``home_ids`` into ``shards`` contiguous, balanced cells."""
    if shards < 1:
        raise ValueError(f"need a positive shard count, got {shards}")
    shards = min(shards, len(home_ids))
    base, extra = divmod(len(home_ids), shards)
    tasks: list[SweepTask] = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunk = home_ids[cursor:cursor + size]
        cursor += size
        tasks.append(SweepTask(
            f"fleet-cell{index}", run_fleet_cell,
            {"seed": seed, "days": days, "home_ids": chunk},
        ))
    return tasks


def run_fleet_sweep(
    n_homes: int,
    days: float,
    *,
    seed: int = 42,
    jobs: int | None = 1,
    shards: int | None = None,
    cache: RunCache | None = None,
    out_path: str | None = None,
    progress: bool = False,
) -> dict[str, Any]:
    """Run a fleet of ``n_homes`` Fig. 1 homes for ``days``, sharded.

    ``shards`` defaults to one home per cell (maximum parallelism and
    cache granularity); the report — and therefore its digest — depends
    only on per-home content, so any ``(jobs, shards)`` choice yields a
    byte-identical report. Wall-clock timings are deliberately excluded.
    """
    if n_homes < 1:
        raise ValueError(f"need a positive home count, got {n_homes}")
    home_ids = fleet_home_ids(n_homes)
    shard_count = shards if shards is not None else n_homes
    tasks = fleet_tasks(home_ids, seed=seed, days=days, shards=shard_count)

    def assemble(results: list[SweepResult]) -> dict[str, Any]:
        homes: dict[str, dict[str, Any]] = {}
        errors: list[dict[str, str]] = []
        for result in results:
            if result.ok:
                homes.update(result.value)
            else:
                errors.append({"task_id": result.task.task_id,
                               "error": result.error or ""})
        return fleet_report(homes, errors, n_homes=n_homes, days=days, seed=seed)

    return sweep_report(
        tasks, assemble, jobs=jobs, cache=cache, out_path=out_path,
        progress=progress,
    )


def run_fleet_checkpointed(
    n_homes: int, days: float, *, seed: int = 42, every: int | None = None,
    snapshot: str = "FLEET_snapshot.pkl", resume: str | None = None,
    out_path: str | None = None, progress: bool = False,
) -> dict[str, Any]:
    """Run one in-process fleet day by day; snapshot it every ``every`` days.

    Snapshots go atomically to ``snapshot`` every ``every`` days and at
    the end. ``resume`` continues the fleet of a snapshot (its homes and
    seed; ``n_homes`` and ``seed`` are not read) and refuses one taken for
    another ``days`` (:class:`~repro.sim.snapshot.SnapshotError`). The
    report is :func:`fleet_report`'s, equal to :func:`run_fleet_sweep`'s
    for the same homes, days and seed, resumed or not.
    """
    total_days = int(days)
    if resume:
        fleet = Fleet.restore(resume, horizon_days=total_days)
        done_days = int(round(fleet.now / DAY_S))
        if progress:
            print(f"resumed {len(fleet)} homes at day {done_days} from {resume}")
    else:
        fleet, _workloads = fleet_deployment(homes=n_homes, seed=seed, days=days)
        done_days = 0
    for day in range(done_days + 1, total_days + 1):
        fleet.run_until(day * DAY_S)
        line = f"day {day}/{total_days}"
        if every and (day % every == 0 or day == total_days):
            line += f": checkpoint -> {fleet.checkpoint(snapshot, horizon_days=total_days)}"
        if progress:
            print(line)
    report = fleet_report(
        home_rows(fleet), [], n_homes=len(fleet), days=float(days), seed=fleet.seed,
    )
    report["digest"] = report_digest(report)
    write_report(report, out_path)
    return report


def render_fleet_summary(report: dict[str, Any]) -> str:
    """A terminal-friendly summary of either fleet path's report."""
    fleet = report["fleet"]
    summary = report["summary"]
    lines = [
        f"fleet: {summary['homes']} homes x {fleet['days']:g} day(s), "
        f"seed {fleet['seed']}",
        f"  events emitted  : {summary['events_emitted']:>12,}",
        f"  radio delivered : {summary['radio_delivered']:>12,}",
        f"  net messages    : {summary['net_messages']:>12,} "
        f"({summary['net_bytes']:,} bytes)",
        f"  fleet digest    : {summary['fleet_digest']}",
        f"  report digest   : {report['digest']}",
    ]
    if summary["errors"]:
        lines.append(f"  ERRORS          : {summary['errors']} shard(s) failed")
    return "\n".join(lines)
