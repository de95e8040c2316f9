"""Multi-core sweep executor with deterministic merge, and the one sweep tail.

Experiment tables, chaos campaigns and fleet shards are sweeps over
independent cells — one ``(experiment, config, mode, seed)`` simulation
each. Every cell is a pure, deterministic function of its JSON-pure
:class:`SweepTask` spec, so the executor can fan cells out across a
process pool and still produce **byte-identical reports**: results are
merged in task *order*, never in completion order, and each worker
rebuilds its entire simulation (home, RNG streams, scheduler) from the
task seed, sharing no state with its siblings.

Key properties:

- ``jobs=1`` runs every cell inline — no pool, no pickling — and is the
  reference ordering that ``jobs=N`` must (and does) reproduce.
- A :class:`~repro.eval.cache.RunCache` short-circuits cells whose
  ``(source tree, spec)`` content address is already stored; only misses
  are submitted to the pool, and fresh results are stored as they arrive,
  so an interrupted sweep resumes from its completed cells.
- A cell that raises inside a worker becomes a per-cell
  :attr:`SweepResult.error` — the pool keeps draining the other cells. A
  hard worker death (the pool itself breaks) falls back to running the
  unfinished cells inline.
- Platforms without working process pools (no ``fork``/semaphores) get a
  warning and a sequential run, not a crash.
- :attr:`SweepResult.seconds` is the cell's own run time, measured
  around the runner call on whichever side ran it — never the time a
  cell spent waiting for a free worker.

A task carries its runner as the module-level function itself: it
pickles by reference (module + qualified name) under ``fork`` and
``spawn`` alike, and the cache key is the same ``"module:qualname"``
string, derived from the function.

:func:`sweep_report` is the tail every sweep shares: cells in, digested
report out — :func:`run_sweep` with the one progress printer, the
sweep's own ``assemble`` fold of the task-ordered results into its
report body, then the content digest and the report file.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.eval.cache import RunCache
from repro.eval.report import report_digest, write_report

__all__ = [
    "SweepTask",
    "SweepResult",
    "resolve_jobs",
    "run_sweep",
    "sweep_report",
]


@dataclass(frozen=True)
class SweepTask:
    """One picklable sweep cell: a module-level runner plus its JSON-pure spec."""

    task_id: str
    runner: Callable[[dict[str, Any]], Any]
    spec: dict[str, Any]


@dataclass
class SweepResult:
    """The outcome of one cell, in task order."""

    task: SweepTask
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request to a positive worker count.

    ``None`` means "all available cores" (respecting CPU affinity where
    the platform exposes it). Zero or negative values are rejected — the
    caller asked for an impossible pool, which is a usage error, not a
    fallback case.
    """
    if jobs is None:
        import os

        try:
            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"--jobs wants a positive worker count, got {jobs}")
    return int(jobs)


def _execute_cell(
    runner: Callable[[dict[str, Any]], Any], spec: dict[str, Any],
) -> tuple[Any, str | None, float]:
    """Run one cell and time it; never raise. Returns ``(value, error, seconds)``.

    This is the function workers execute, so Python-level exceptions come
    back as data instead of poisoning the pool, and ``seconds`` is the
    cell's own time on whichever side of the pool ran it.
    """
    started = time.perf_counter()
    try:
        value, error = runner(spec), None
    except BaseException:  # noqa: BLE001 - the whole point is to contain it
        value, error = None, traceback.format_exc(limit=8)
    return value, error, time.perf_counter() - started


def _make_executor(jobs: int):
    """A process-pool executor, preferring the ``fork`` start method."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


ProgressFn = Callable[[int, int, SweepResult], None]


def run_sweep(
    tasks: list[SweepTask],
    *,
    jobs: int | None = 1,
    cache: RunCache | None = None,
    progress: ProgressFn | None = None,
) -> list[SweepResult]:
    """Execute every task; return results in **task order**.

    ``jobs`` is resolved via :func:`resolve_jobs` (``None`` = all cores).
    With a cache, cells whose content address is stored replay instantly
    and only misses hit the pool.
    """
    workers = resolve_jobs(jobs)
    results: dict[int, SweepResult] = {}  # task position -> result
    keys = [] if cache is None else [
        cache.key_for(f"{t.runner.__module__}:{t.runner.__qualname__}", t.spec)
        for t in tasks
    ]

    def finish(position: int, result: SweepResult) -> None:
        results[position] = result
        if cache is not None and result.ok and not result.cached:
            cache.put(keys[position], result.value, spec=result.task.spec)
        if progress is not None:
            progress(len(results), len(tasks), result)

    for position, key in enumerate(keys):
        hit = cache.get(key)
        if hit is not None:
            finish(position, SweepResult(tasks[position], value=hit, cached=True))
    pending = [p for p in range(len(tasks)) if p not in results]

    if workers > 1 and len(pending) > 1:
        try:
            executor = _make_executor(min(workers, len(pending)))
        except (ImportError, NotImplementedError, OSError, PermissionError) as exc:
            print(
                f"warning: process pools unavailable ({exc}); "
                "running the sweep sequentially",
                file=sys.stderr,
            )
        else:
            from concurrent.futures import as_completed

            with executor:
                futures = {
                    executor.submit(_execute_cell, tasks[p].runner, tasks[p].spec): p
                    for p in pending
                }
                for future in as_completed(futures):
                    position = futures[future]
                    try:
                        outcome = future.result()
                    except Exception:  # noqa: BLE001 - pool died under this future
                        break
                    finish(position, SweepResult(tasks[position], *outcome))
            pending = [p for p in pending if p not in results]
            if pending:
                print(
                    f"warning: worker pool died; re-running {len(pending)} "
                    "unfinished cell(s) sequentially",
                    file=sys.stderr,
                )

    for position in pending:
        task = tasks[position]
        finish(position, SweepResult(task, *_execute_cell(task.runner, task.spec)))
    return [results[p] for p in range(len(tasks))]


def _print_progress(done: int, total: int, result: SweepResult) -> None:
    """The one per-cell progress line of every sweep."""
    if result.cached:
        status = "cached"
    else:
        status = f"ok ({result.seconds:.1f}s)" if result.ok else "ERROR"
    print(f"  [{done}/{total}] {result.task.task_id}: {status}")


def sweep_report(
    tasks: list[SweepTask],
    assemble: Callable[[list[SweepResult]], dict[str, Any]],
    *,
    jobs: int | None,
    cache: RunCache | None,
    out_path: str | None,
    progress: bool,
) -> dict[str, Any]:
    """The tail every sweep shares: run the cells, digest and write the report.

    ``assemble`` is the sweep's own fold of the task-ordered results into
    its report body (its entries, its error entry, its summary); the
    content digest covers that body and is independent of ``jobs`` and of
    cache hits.
    """
    results = run_sweep(
        tasks, jobs=jobs, cache=cache,
        progress=_print_progress if progress else None,
    )
    report = assemble(results)
    report["digest"] = report_digest(report)
    write_report(report, out_path)
    return report
