"""Multi-core sweep executor with deterministic merge.

Experiment tables and chaos campaigns are sweeps over independent cells —
one ``(experiment, config, mode, seed)`` simulation each. Every cell is a
pure, deterministic function of its picklable :class:`SweepTask` spec, so
the executor can fan cells out across a process pool and still produce
**byte-identical reports**: results are merged by task *index*, never by
completion order, and each worker rebuilds its entire simulation (home,
RNG streams, scheduler) from the task seed, sharing no state with its
siblings.

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

Runners are referenced by dotted name (``"repro.eval.chaos:run_campaign_cell"``)
so a task pickles as plain data regardless of the start method.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.eval.cache import RunCache

__all__ = [
    "SweepTask",
    "SweepResult",
    "resolve_jobs",
    "resolve_runner",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepTask:
    """One picklable sweep cell: a runner name plus its JSON-pure spec."""

    index: int
    task_id: str
    runner: str  # dotted "package.module:function" path to a module-level callable
    spec: dict[str, Any] = field(default_factory=dict)

    def canonical_spec(self) -> str:
        return json.dumps(self.spec, sort_keys=True, separators=(",", ":"))


@dataclass
class SweepResult:
    """The outcome of one cell, in task order."""

    task: SweepTask
    value: Any = None
    error: str | None = None
    cached: bool = False
    seconds: float = 0.0

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
        try:
            import os

            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            import os

            return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"--jobs wants a positive worker count, got {jobs}")
    return int(jobs)


def resolve_runner(dotted: str) -> Callable[[dict[str, Any]], Any]:
    """Import ``"package.module:function"`` and return the callable."""
    module_name, _, attr = dotted.partition(":")
    if not module_name or not attr:
        raise ValueError(f"runner must look like 'pkg.mod:fn', got {dotted!r}")
    module = importlib.import_module(module_name)
    runner = getattr(module, attr)
    if not callable(runner):
        raise TypeError(f"runner {dotted!r} resolved to non-callable {runner!r}")
    return runner


def _execute_cell(runner: str, spec: dict[str, Any]) -> tuple[bool, Any]:
    """Run one cell; never raise. Returns ``(ok, result_or_error_text)``.

    This is the function workers execute, so Python-level exceptions come
    back as data instead of poisoning the pool.
    """
    try:
        return True, resolve_runner(runner)(spec)
    except BaseException:  # noqa: BLE001 - the whole point is to contain it
        return False, traceback.format_exc(limit=8)


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


def _finish(
    result: SweepResult,
    cache: RunCache | None,
    keys: dict[int, str],
    done_counter: list[int],
    total: int,
    progress: ProgressFn | None,
) -> None:
    if cache is not None and result.ok and not result.cached:
        cache.put(keys[result.task.index], result.value, spec=result.task.spec)
    done_counter[0] += 1
    if progress is not None:
        progress(done_counter[0], total, result)


def _run_inline(
    tasks: list[SweepTask],
    results: dict[int, SweepResult],
    cache: RunCache | None,
    keys: dict[int, str],
    done_counter: list[int],
    total: int,
    progress: ProgressFn | None,
) -> None:
    for task in tasks:
        t0 = time.perf_counter()
        ok, payload = _execute_cell(task.runner, task.spec)
        result = SweepResult(
            task=task,
            value=payload if ok else None,
            error=None if ok else payload,
            seconds=time.perf_counter() - t0,
        )
        results[task.index] = result
        _finish(result, cache, keys, done_counter, total, progress)


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
    total = len(tasks)
    results: dict[int, SweepResult] = {}
    keys: dict[int, str] = {}
    done_counter = [0]

    pending: list[SweepTask] = []
    for task in tasks:
        if cache is not None:
            key = cache.key_for(task.runner, task.spec)
            keys[task.index] = key
            hit = cache.get(key)
            if hit is not None:
                result = SweepResult(task=task, value=hit, cached=True)
                results[task.index] = result
                _finish(result, cache, keys, done_counter, total, progress)
                continue
        pending.append(task)

    if not pending:
        return [results[t.index] for t in tasks]

    if workers == 1 or len(pending) == 1:
        _run_inline(pending, results, cache, keys, done_counter, total, progress)
        return [results[t.index] for t in tasks]

    try:
        executor = _make_executor(min(workers, len(pending)))
    except (ImportError, NotImplementedError, OSError, PermissionError) as exc:
        print(
            f"warning: process pools unavailable ({exc}); "
            "running the sweep sequentially",
            file=sys.stderr,
        )
        _run_inline(pending, results, cache, keys, done_counter, total, progress)
        return [results[t.index] for t in tasks]

    unfinished: dict[Any, SweepTask] = {}
    started = time.perf_counter()
    broken = False
    with executor:
        for task in pending:
            future = executor.submit(_execute_cell, task.runner, task.spec)
            unfinished[future] = task
        from concurrent.futures import as_completed

        for future in as_completed(list(unfinished)):
            task = unfinished.pop(future)
            try:
                ok, payload = future.result()
            except BaseException:  # pool died under this future
                broken = True
                unfinished[future] = task  # rerun it inline below
                break
            result = SweepResult(
                task=task,
                value=payload if ok else None,
                error=None if ok else payload,
                seconds=time.perf_counter() - started,
            )
            results[task.index] = result
            _finish(result, cache, keys, done_counter, total, progress)

    if broken or unfinished:
        leftovers = sorted(unfinished.values(), key=lambda t: t.index)
        print(
            f"warning: worker pool died; re-running {len(leftovers)} "
            "unfinished cell(s) sequentially",
            file=sys.stderr,
        )
        _run_inline(leftovers, results, cache, keys, done_counter, total, progress)

    return [results[t.index] for t in tasks]
