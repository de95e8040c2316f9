"""One entry point per table/figure of the paper's evaluation (Section 8).

Every function returns an :class:`ExperimentTable` whose rows mirror the
paper's chart series. Durations default to short runs that preserve every
qualitative shape; pass ``duration=200.0`` (the paper's run length) and
more seeds for publication-grade numbers.

The per-experiment index lives in DESIGN.md; paper-vs-measured comparisons
in EXPERIMENTS.md.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.catalog import TABLE1, run_catalog_app
from repro.core.delivery import GAP, GAPLESS, PollingPolicy, PollMode
from repro.core.events import Event
from repro.core.graph import App
from repro.core.home import Home
from repro.core.operators import Operator
from repro.core.windows import TimeWindow
from repro.devices.catalog import SENSOR_CATALOG
from repro.eval import metrics
from repro.eval.report import render_table
from repro.eval.workloads import home_deployment, single_sensor_home
from repro.net.message import Message
from repro.net.wire import wire_size

PAPER_EVENT_SIZES: tuple[int, ...] = (4, 8, 1024, 20_480)
"""Table 3's spectrum: 4 B, 8 B, 1 KB (microphone), 20 KB (camera)."""


@dataclass
class ExperimentTable:
    """A regenerated table/figure: columns, rows, notes, rendering."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            f"{self.experiment}: {self.title}", self.columns, self.rows, self.notes
        )

    def column(self, name: str) -> list[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def lookup(self, **matches: Any) -> list[list[Any]]:
        indexes = {self.columns.index(k): v for k, v in matches.items()}
        return [
            row
            for row in self.rows
            if all(row[i] == v for i, v in indexes.items())
        ]

    def cell(self, value_column: str, **matches: Any) -> Any:
        rows = self.lookup(**matches)
        if len(rows) != 1:
            raise KeyError(f"{len(rows)} rows match {matches} in {self.experiment}")
        return rows[0][self.columns.index(value_column)]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-pure snapshot (lists only, no tuples) for sweep reports."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentTable":
        return cls(
            experiment=data["experiment"],
            title=data["title"],
            columns=list(data["columns"]),
            rows=[list(row) for row in data["rows"]],
            notes=list(data["notes"]),
        )


# -- Fig. 1: reception skew in a 15-day home deployment ---------------------------------------


def fig1_deployment_skew(*, seed: int = 42, days: float = 15.0) -> ExperimentTable:
    """Events received per (sensor, process): 6 Z-Wave sensors, 3 processes."""
    home, workload = home_deployment(seed=seed, days=days)
    counter = metrics.ReceptionCounter(home.trace)
    scheduled = workload.schedule()
    home.run_until(days * 86_400.0 + 60.0)

    table = ExperimentTable(
        experiment="fig1",
        title=f"Events received per process ({days:g}-day deployment)",
        columns=["sensor", "emitted", "hub", "tv", "fridge", "max_skew"],
        notes=[
            f"{scheduled} sensor emissions scheduled",
            "door1 sits behind a concrete wall relative to the hub "
            "(paper: 2357-event skew on Door 1)",
        ],
    )
    matrix = counter.matrix()
    for sensor in ("door1", "door2", "motion1", "motion2", "motion3", "motion4"):
        received = matrix.get(sensor, {})
        counts = [received.get(p, 0) for p in ("hub", "tv", "fridge")]
        table.rows.append(
            [sensor, counter.emitted[sensor], *counts, max(counts) - min(counts)]
        )
    return table


# -- Table 1: the application catalog, run end to end ---------------------------------------------


def table1_app_catalog(*, seed: int = 42, duration: float = 45.0) -> ExperimentTable:
    """Run all 13 Table 1 apps; report their delivery type and liveness."""
    table = ExperimentTable(
        experiment="table1",
        title="Application catalog (each app run end-to-end)",
        columns=["application", "category", "delivery", "deliveries",
                 "alerts", "actuations", "errors"],
    )
    for spec in TABLE1:
        home = run_catalog_app(spec, seed=seed, duration=duration)
        table.rows.append([
            spec.application,
            spec.category,
            spec.delivery.value,
            home.trace.count("logic_delivery"),
            home.trace.count("alert"),
            home.trace.count("actuation"),
            home.trace.count("operator_error"),
        ])
    return table


# -- Table 3: sensor classification --------------------------------------------------------------


def table3_sensor_classes() -> ExperimentTable:
    """The off-the-shelf sensor catalog with measured wire sizes."""
    table = ExperimentTable(
        experiment="table3",
        title="Off-the-shelf sensor classification",
        columns=["kind", "class", "mode", "technology", "event_bytes",
                 "wire_bytes_per_hop"],
        notes=["wire bytes = one gap_fwd message carrying one event"],
    )
    for kind in sorted(SENSOR_CATALOG):
        spec = SENSOR_CATALOG[kind]
        event = Event(sensor_id=kind, seq=1, emitted_at=0.0, value=0,
                      size_bytes=spec.event_size)
        message = Message(kind="gap_fwd", src="a", dst="b",
                          payload={"sensor": kind, "event": event, "app": "x"})
        table.rows.append([
            kind, spec.size_class, spec.mode, spec.technology,
            spec.event_size, wire_size(message),
        ])
    return table


# -- Fig. 4: delivery delay ----------------------------------------------------------------------


def _periodic_run(
    rate: float, until: float, *, crash_at: float | None = None, **deployment: Any
) -> tuple[Home, Any]:
    """A :func:`single_sensor_home` that settles for a second, then emits
    at ``rate`` until ``until`` (``p0`` crashing at ``crash_at``, if set)."""
    home, sensor = single_sensor_home(**deployment)
    home.run_until(1.0)
    sensor.start_periodic(rate)
    if crash_at is not None:
        home.scheduler.call_at(crash_at, home.crash_process, "p0")
    home.run_until(until)
    return home, sensor


def _fig4_delay(
    experiment: str, title: str, note: str, receiver: str, *,
    seeds: tuple[int, ...], duration: float, rate: float,
    sizes: tuple[int, ...], process_counts: tuple[int, ...],
) -> ExperimentTable:
    """Delay vs #processes with ``receiver`` the one process hearing the sensor."""
    table = ExperimentTable(
        experiment=experiment,
        title=title,
        columns=["guarantee", "event_bytes", "processes", "delay_ms"],
        notes=[note],
    )
    for guarantee in (GAP, GAPLESS):
        for size in sizes:
            for n in process_counts:
                # No name holds a finished home while the next one is built.
                delays = [
                    metrics.mean_delay_ms(_periodic_run(
                        rate, 1.0 + duration, n_processes=n, receiving=[receiver],
                        guarantee=guarantee, event_size=size, seed=seed,
                        keep_trace_kinds={"logic_delivery"},
                    )[0].trace)
                    for seed in seeds
                ]
                table.rows.append(
                    [guarantee.value, size, n, metrics.mean(delays)]
                )
    return table


def fig4a_delay_farthest(
    *, seeds: tuple[int, ...] = (42,), duration: float = 60.0,
    rate: float = 10.0, sizes: tuple[int, ...] = PAPER_EVENT_SIZES,
    process_counts: tuple[int, ...] = (2, 3, 4, 5),
) -> ExperimentTable:
    """Delay vs #processes, receiver farthest from the app-bearing process."""
    return _fig4_delay(
        "fig4a", "Delay (ms), event-receiving process farthest from app",
        "farthest = ring distance n-1 (receiver p1, app on p0)", "p1",
        seeds=seeds, duration=duration, rate=rate, sizes=sizes,
        process_counts=process_counts,
    )


def fig4b_delay_local(
    *, seeds: tuple[int, ...] = (42,), duration: float = 60.0,
    rate: float = 10.0, sizes: tuple[int, ...] = (4, 8),
    process_counts: tuple[int, ...] = (2, 3, 4, 5),
) -> ExperimentTable:
    """Delay when the app-bearing process receives events directly."""
    return _fig4_delay(
        "fig4b", "Delay (ms), app-bearing process receives directly",
        "paper: approximately 1-2 ms for small events", "p0",
        seeds=seeds, duration=duration, rate=rate, sizes=sizes,
        process_counts=process_counts,
    )


# -- Fig. 5: network overhead ----------------------------------------------------------------------


def _overhead_run(
    *, mode: str, m: int, size: int, seed: int, duration: float, rate: float,
) -> float:
    home, sensor = _periodic_run(
        rate, 1.0 + duration, n_processes=5, receiving=m,
        guarantee=GAP if mode == "gap" else GAPLESS,
        delivery_mode=mode, event_size=size, seed=seed,
        keep_trace_kinds=set(),  # bytes/event reads the trace's tallies
    )
    return metrics.bytes_per_event(home.trace, sensor.events_emitted)


def fig5_network_overhead(
    *, seeds: tuple[int, ...] = (42,), duration: float = 30.0,
    rate: float = 10.0, sizes: tuple[int, ...] = PAPER_EVENT_SIZES,
    receiving_counts: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> ExperimentTable:
    """Bytes/event for Gapless and naive broadcast, normalized to Gap.

    Five processes total; the Gap baseline is its one-forwarding-message
    configuration (one receiving process farthest from the app)."""
    table = ExperimentTable(
        experiment="fig5",
        title="Network overhead normalized against Gap (5 processes)",
        columns=["protocol", "event_bytes", "receiving", "bytes_per_event",
                 "normalized_vs_gap"],
        notes=["gap baseline = 1 receiving process (one forward per event)"],
    )
    for size in sizes:
        gap_baseline = metrics.mean(
            _overhead_run(mode="gap", m=1, size=size, seed=seed,
                          duration=duration, rate=rate)
            for seed in seeds
        )
        table.rows.append(["gap", size, 1, gap_baseline, 1.0])
        for mode in ("gapless", "naive-broadcast"):
            for m in receiving_counts:
                value = metrics.mean(
                    _overhead_run(mode=mode, m=m, size=size, seed=seed,
                                  duration=duration, rate=rate)
                    for seed in seeds
                )
                table.rows.append(
                    [mode, size, m, value, value / gap_baseline]
                )
    return table


# -- Fig. 6: sensor-process link loss --------------------------------------------------------------


def fig6_link_loss(
    *, seeds: tuple[int, ...] = (42, 43),
    duration: float = 120.0, rate: float = 10.0,
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.25, 0.50),
    receiving_counts: tuple[int, ...] = (1, 2, 4, 5),
) -> ExperimentTable:
    """% of emitted events delivered vs link loss and #receiving processes."""
    table = ExperimentTable(
        experiment="fig6",
        title="Events delivered (%) under sensor-process link loss (4 B, 10 ev/s)",
        columns=["guarantee", "receiving", "loss_rate", "delivered_pct"],
        notes=["receiving processes placed farthest from the app-bearing one"],
    )
    for guarantee in (GAP, GAPLESS):
        for m in receiving_counts:
            for loss in loss_rates:
                fractions = []
                for seed in seeds:
                    home, sensor = _periodic_run(
                        rate, 1.0 + duration, n_processes=5, receiving=m,
                        guarantee=guarantee, loss_rate=loss, seed=seed,
                        keep_trace_kinds={"logic_delivery"},
                    )
                    fractions.append(
                        metrics.delivered_fraction(
                            home.trace, sensor.events_emitted
                        )
                    )
                table.rows.append(
                    [guarantee.value, m, loss, metrics.mean(fractions) * 100.0]
                )
    return table


# -- Fig. 7: process failure -----------------------------------------------------------------------


def fig7_process_failure(
    *, seed: int = 42, crash_at: float = 24.0, duration: float = 48.0,
    rate: float = 10.0,
) -> ExperimentTable:
    """Events received by the app per second; app-bearing process crashes.

    All five processes receive directly (the paper's setting); failure
    detection threshold is 2 s, so Gap loses ~20 events and Gapless
    redelivers them in a burst right after the promotion.
    """
    table = ExperimentTable(
        experiment="fig7",
        title=f"Events received per second (crash at t={crash_at:g}s)",
        columns=["guarantee", "second", "events"],
        notes=["Gapless shows a catch-up spike after promotion; Gap a hole"],
    )
    summary: dict[str, dict[str, float]] = {}
    for guarantee in (GAP, GAPLESS):
        home, sensor = _periodic_run(
            rate, duration, crash_at=crash_at,
            n_processes=5, receiving=5, guarantee=guarantee, seed=seed,
            keep_trace_kinds={"logic_delivery"},
        )
        for second, count in metrics.deliveries_per_bucket(home.trace):
            table.rows.append([guarantee.value, second, count])
        summary[guarantee.value] = {
            "delivered": metrics.delivered_fraction(
                home.trace, sensor.events_emitted
            ) * 100.0,
            "emitted": sensor.events_emitted,
        }
    for name, stats in summary.items():
        table.notes.append(
            f"{name}: {stats['delivered']:.1f}% of {stats['emitted']:.0f} "
            "emitted events delivered"
        )
    return table


# -- Fig. 8: coordinated polling -------------------------------------------------------------------


FIG8_SENSORS: tuple[tuple[str, str, float], ...] = (
    # (name, catalog kind, app epoch seconds) — Section 8.5's four sensors.
    ("temp", "temperature", 1.8),
    ("lum", "luminance", 1.8),
    ("hum", "humidity", 12.0),
    ("uv", "uv", 15.0),
)


def fig8_coordinated_polling(
    *, seeds: tuple[int, ...] = (42, 43, 44), duration: float = 200.0,
    poll_failure_rate: float = 0.02,
) -> ExperimentTable:
    """Poll requests per epoch, normalized to the optimal one-per-epoch."""
    table = ExperimentTable(
        experiment="fig8",
        title="Normalized polling overhead (3 processes, 4 Z-Wave sensors)",
        columns=["sensor", "mode", "polls_per_epoch", "epoch_gaps"],
        notes=[
            "optimal = 1.0 poll/epoch",
            "paper: coordinated 1.04-1.13x, uncoordinated 1.5-2.5x",
        ],
    )

    def run(mode: PollMode, seed: int) -> tuple[dict[str, float], int]:
        operator = Operator("Monitor", on_window=lambda ctx, c: None)
        for name, kind, epoch in FIG8_SENSORS:
            operator.add_sensor(
                name, GAPLESS, TimeWindow(epoch),
                polling=PollingPolicy(epoch_s=epoch, mode=mode),
            )
        operator.add_actuator("a1", GAPLESS)
        app = App("poll-study", operator)
        home = Home(seed=seed, keep_trace_kinds={"poll_request"})
        for process in ("p0", "p1", "p2"):
            home.add_process(process)
        for name, kind, _epoch in FIG8_SENSORS:
            home.add_sensor(name, kind=kind, failure_rate=poll_failure_rate)
        home.add_actuator("a1", processes=["p0"])
        home.deploy(app)
        home.run_until(duration)
        ratios = {
            name: metrics.normalized_poll_overhead(home.trace, name, epoch, duration)
            for name, _kind, epoch in FIG8_SENSORS
        }
        return ratios, home.trace.count("epoch_gap")

    for mode in (PollMode.COORDINATED, PollMode.UNCOORDINATED, PollMode.SINGLE):
        per_sensor: dict[str, list[float]] = {name: [] for name, _, _ in FIG8_SENSORS}
        gaps_total = 0
        for seed in seeds:
            ratios, gaps = run(mode, seed)
            gaps_total += gaps
            for name, ratio in ratios.items():
                per_sensor[name].append(ratio)
        for name, _kind, _epoch in FIG8_SENSORS:
            table.rows.append(
                [name, mode.value, metrics.mean(per_sensor[name]),
                 gaps_total // len(seeds)]
            )
    return table


# -- registry --------------------------------------------------------------------------------------


EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "fig1": fig1_deployment_skew,
    "table1": table1_app_catalog,
    "table3": table3_sensor_classes,
    "fig4a": fig4a_delay_farthest,
    "fig4b": fig4b_delay_local,
    "fig5": fig5_network_overhead,
    "fig6": fig6_link_loss,
    "fig7": fig7_process_failure,
    "fig8": fig8_coordinated_polling,
}


# -- the sweep: one cell per call of a figure function -------------------------------------------

def sweep_cells(
    names: list[str],
    *,
    seeds: tuple[int, ...] | None = None,
    duration: float | None = None,
    days: float | None = None,
) -> list[dict[str, Any]]:
    """Expand experiments into independent cell specs, one per figure call.

    An experiment that averages over a ``seeds`` tuple is one cell
    carrying the whole tuple, so its table is the averaged one;
    single-``seed`` experiments get one cell per requested seed; seedless
    ones (table3) are a single cell. ``None`` leaves a figure its own
    default. Each spec is JSON-pure and fully describes its cell, so cells
    fan out to workers and content-address into the run cache.
    """
    cells: list[dict[str, Any]] = []
    for name in names:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}")
        parameters = inspect.signature(EXPERIMENTS[name]).parameters
        base: dict[str, Any] = {}
        if duration is not None and "duration" in parameters:
            base["duration"] = duration
        if days is not None and "days" in parameters:
            base["days"] = days
        if "seed" in parameters:
            seeded = [(f"{name}-s{seed}", {"seed": seed})
                      for seed in seeds or (parameters["seed"].default,)]
        elif "seeds" in parameters:
            seeded = [(name, {"seeds": list(seeds or parameters["seeds"].default)})]
        else:
            seeded = [(name, {})]
        cells.extend(
            {"cell_id": cell_id, "experiment": name, "kwargs": {**base, **seed_kwargs}}
            for cell_id, seed_kwargs in seeded
        )
    return cells


def run_experiment_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """Execute one cell spec; the result is a pure function of the spec."""
    kwargs = dict(spec["kwargs"])
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(kwargs["seeds"])
    table = EXPERIMENTS[spec["experiment"]](**kwargs)
    return {
        "cell_id": spec["cell_id"],
        "experiment": spec["experiment"],
        "kwargs": spec["kwargs"],
        "table": table.to_dict(),
    }


def run_experiment_sweep(
    names: list[str],
    *,
    jobs: int | None = 1,
    cache: Any = None,
    seeds: tuple[int, ...] | None = None,
    duration: float | None = None,
    days: float | None = None,
    out_path: str | None = None,
    progress: bool = False,
) -> dict[str, Any]:
    """Run experiments as a sweep of :func:`sweep_cells` with a digested report.

    This is the one path every ``rivulet-experiment`` figure takes. The
    report's ``digest`` (see :func:`repro.eval.report.report_digest`) is
    independent of ``jobs`` and of cache hits: cells merge in task order
    and each cell is a pure function of its spec.
    """
    from repro.eval.parallel import SweepTask, sweep_report

    specs = sweep_cells(names, seeds=seeds, duration=duration, days=days)
    tasks = [
        SweepTask(spec["cell_id"], run_experiment_cell, spec) for spec in specs
    ]

    def assemble(results: list) -> dict[str, Any]:
        cells: list[dict[str, Any]] = []
        errors = 0
        for result in results:
            if result.ok:
                cells.append(result.value)
            else:
                errors += 1
                cells.append({
                    "cell_id": result.task.task_id,
                    "experiment": result.task.spec["experiment"],
                    "kwargs": result.task.spec["kwargs"],
                    "error": result.error,
                })
        return {
            "sweep": {
                "experiments": list(names),
                "seeds": list(seeds) if seeds is not None else None,
                "duration": duration,
                "days": days,
            },
            "cells": cells,
            "summary": {"total": len(cells), "errors": errors},
        }

    return sweep_report(
        tasks, assemble, jobs=jobs, cache=cache, out_path=out_path,
        progress=progress,
    )
