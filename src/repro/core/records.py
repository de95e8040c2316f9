"""Runtime-agnostic :class:`~repro.core.invariants.RunRecord` production.

Historically a ``RunRecord`` could only be built from a simulated
:class:`~repro.core.home.Home` (``RunRecord.from_home``), which welded the
oracle and metric pipelines to ``repro.sim``. This module extracts the
construction into pieces that work for *any* runtime that runs the sans-IO
protocol core — the discrete-event simulator and the asyncio TCP runtime
(``repro.rt``) alike:

- :func:`snapshot_processes` reads end-state liveness, membership views and
  per-sensor delivery modes off any mapping of process-like objects. Both
  :class:`~repro.core.runtime.RivuletProcess` and
  :class:`~repro.rt.node.AsyncRivuletNode` expose the same structural
  surface (``alive``, ``heartbeat.view.members``,
  ``delivery.instances[...].guarantee_name``), because they host the same
  service objects.
- :func:`build_run_record` assembles the final record from either source.

Both runtimes stamp run-relative time when they record: a simulated home
starts at t=0, and every rt harness subtracts its start instant from
``loop.time()`` (see :class:`~repro.rt.harness.RtHarness`). So the record
wraps the trace it is given, as is: nothing is rebased or re-recorded.
``RunRecord.from_home`` delegates here; an rt cluster calls
:func:`build_run_record` directly over its live trace (see
``LocalCluster.run_record``).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.invariants import GroundTruth, RunRecord
from repro.sim.tracing import Trace

__all__ = ["snapshot_processes", "app_consumers", "build_run_record"]


def snapshot_processes(
    processes: Mapping[str, Any],
) -> tuple[dict[str, bool], dict[str, frozenset[str]], dict[str, str]]:
    """End-state ``(alive, views, sensor_modes)`` for any process mapping.

    Works for any object exposing the protocol-core surface: ``alive``,
    an optional ``heartbeat`` service (``.view.members``), and an optional
    ``delivery`` service (``.instances`` → objects with
    ``guarantee_name``). Dead processes contribute liveness only — a
    crashed node has no authoritative view or mode table.
    """
    alive: dict[str, bool] = {}
    views: dict[str, frozenset[str]] = {}
    sensor_modes: dict[str, str] = {}
    for name, process in processes.items():
        alive[name] = bool(process.alive)
        if not process.alive:
            continue
        heartbeat = getattr(process, "heartbeat", None)
        if heartbeat is not None:
            views[name] = frozenset(heartbeat.view.members)
        delivery = getattr(process, "delivery", None)
        if delivery is not None:
            for sensor, instance in delivery.instances.items():
                sensor_modes.setdefault(sensor, instance.guarantee_name)
    return alive, views, sensor_modes


def app_consumers(apps: Iterable[Any]) -> dict[str, tuple[str, ...]]:
    """Sensor -> names of the apps consuming it, in deployment order."""
    consumers: dict[str, tuple[str, ...]] = {}
    for app in apps:
        for sensor in app.sensor_requirements():
            consumers[sensor] = consumers.get(sensor, ()) + (app.name,)
    return consumers


def build_run_record(
    trace: Trace,
    *,
    processes: Mapping[str, Any] | None = None,
    apps: Iterable[Any] = (),
    alive: Mapping[str, bool] | None = None,
    views: Mapping[str, frozenset[str]] | None = None,
    sensor_modes: Mapping[str, str] | None = None,
    consumers: Mapping[str, tuple[str, ...]] | None = None,
    actuations: Sequence[tuple[str, tuple, float]] = (),
    applied_actions: Sequence[tuple[str, str, Any, float]] = (),
    ground_truth: GroundTruth | None = None,
    fault_free: bool = False,
    lossless: bool = True,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from any runtime's observations.

    Callers either pass ``processes`` (live objects, snapshotted via
    :func:`snapshot_processes`) or pre-extracted ``alive``/``views``/
    ``sensor_modes`` mappings — a subprocess harness only has the latter,
    harvested from each child's exit report. Explicit mappings override the
    snapshot. ``consumers`` defaults to :func:`app_consumers` over ``apps``.
    ``trace`` and every timestamp must already be run-relative.
    """
    snap_alive: dict[str, bool] = {}
    snap_views: dict[str, frozenset[str]] = {}
    snap_modes: dict[str, str] = {}
    if processes is not None:
        snap_alive, snap_views, snap_modes = snapshot_processes(processes)
    if alive is not None:
        snap_alive.update(alive)
    if views is not None:
        snap_views.update({name: frozenset(members) for name, members in views.items()})
    if sensor_modes is not None:
        for sensor, mode in sensor_modes.items():
            snap_modes.setdefault(sensor, mode)
    if consumers is None:
        consumers = app_consumers(apps)

    return RunRecord(
        trace=trace,
        alive=snap_alive,
        views=snap_views,
        sensor_modes=snap_modes,
        consumers=dict(consumers),
        actuations=sorted(actuations, key=lambda item: item[2]),
        applied_actions=sorted(applied_actions, key=lambda item: item[3]),
        ground_truth=ground_truth,
        fault_free=fault_free,
        lossless=lossless,
    )
