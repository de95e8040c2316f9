"""Unit tests for the parallel sweep executor and the shared sweep tail."""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.eval.cache import RunCache
from repro.eval.parallel import (
    SweepTask,
    resolve_jobs,
    run_sweep,
    sweep_report,
)


def echo_cell(spec):
    return {"value": spec["value"] * 2}


def slow_echo_cell(spec):
    time.sleep(spec.get("sleep", 0.0))
    return {"value": spec["value"] * 2}


def failing_cell(spec):
    if spec["value"] == 2:
        raise ValueError("cell 2 always explodes")
    return {"value": spec["value"]}


def pool_killer_cell(spec):
    # Dies hard, but only inside a pool worker: the inline re-run succeeds.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return {"value": spec["value"] * 2}


def _tasks(runner, specs):
    return [SweepTask(f"t{i}", runner, spec) for i, spec in enumerate(specs)]


def test_sweep_task_is_id_runner_spec():
    fields = [f.name for f in dataclasses.fields(SweepTask)]
    assert fields == ["task_id", "runner", "spec"]


# -- jobs resolution ----------------------------------------------------------


def test_resolve_jobs_defaults_to_available_cores():
    assert resolve_jobs(None) >= 1


@pytest.mark.parametrize("jobs", [0, -1, -8])
def test_resolve_jobs_rejects_nonpositive(jobs):
    with pytest.raises(ValueError, match="positive worker count"):
        resolve_jobs(jobs)


# -- ordered merge ------------------------------------------------------------


def test_sequential_results_arrive_in_task_order():
    results = run_sweep(_tasks(echo_cell, [{"value": v} for v in (5, 1, 3)]))
    assert [r.value["value"] for r in results] == [10, 2, 6]
    assert all(r.ok and not r.cached for r in results)


def test_pool_merge_is_by_index_not_completion_order():
    # The first task sleeps longest, so with 2 workers it finishes last;
    # the merged order must still be task order.
    specs = [{"value": v, "sleep": s}
             for v, s in ((9, 0.3), (7, 0.0), (5, 0.0), (3, 0.0))]
    results = run_sweep(_tasks(slow_echo_cell, specs), jobs=2)
    assert [r.value["value"] for r in results] == [18, 14, 10, 6]


def test_worker_exception_is_a_per_cell_error():
    results = run_sweep(
        _tasks(failing_cell, [{"value": v} for v in (1, 2, 3)]), jobs=2,
    )
    assert [r.ok for r in results] == [True, False, True]
    assert "cell 2 always explodes" in results[1].error
    assert results[1].value is None
    assert results[0].value == {"value": 1}


def test_seconds_is_the_cells_own_time_not_its_wait_for_a_worker():
    # Two workers are busy for 0.3 s; the third cell waits for one of them
    # and then runs instantly. The wait must not be billed to it.
    specs = [{"value": 1, "sleep": 0.3}, {"value": 2, "sleep": 0.3},
             {"value": 3, "sleep": 0.0}]
    results = run_sweep(_tasks(slow_echo_cell, specs), jobs=2)
    assert [r.value["value"] for r in results] == [2, 4, 6]
    assert results[0].seconds >= 0.3
    assert results[2].seconds < 0.2


# -- graceful fallback --------------------------------------------------------


def test_pool_unavailable_falls_back_to_sequential(monkeypatch, capsys):
    import repro.eval.parallel as parallel

    def broken_executor(jobs):
        raise OSError("no semaphores on this platform")

    monkeypatch.setattr(parallel, "_make_executor", broken_executor)
    results = run_sweep(
        _tasks(echo_cell, [{"value": v} for v in (1, 2)]), jobs=4,
    )
    assert [r.value["value"] for r in results] == [2, 4]
    assert "process pools unavailable" in capsys.readouterr().err


def test_pool_death_reruns_unfinished_cells_inline(capsys):
    results = run_sweep(
        _tasks(pool_killer_cell, [{"value": v} for v in (1, 2, 3, 4)]), jobs=2,
    )
    assert [r.ok for r in results] == [True] * 4
    assert [r.value["value"] for r in results] == [2, 4, 6, 8]
    assert [r.task.task_id for r in results] == ["t0", "t1", "t2", "t3"]
    assert "worker pool died" in capsys.readouterr().err


# -- cache integration --------------------------------------------------------


def test_cache_short_circuits_hits_and_stores_misses(tmp_path):
    cache = RunCache(tmp_path, tree_digest="t1")
    tasks = _tasks(echo_cell, [{"value": 1}, {"value": 2}])
    first = run_sweep(tasks, cache=cache)
    assert [r.cached for r in first] == [False, False]
    second = run_sweep(tasks, cache=cache)
    assert [r.cached for r in second] == [True, True]
    assert [r.value for r in first] == [r.value for r in second]
    assert cache.stats() == {"hits": 2, "misses": 2}


def test_cache_does_not_store_errors(tmp_path):
    cache = RunCache(tmp_path, tree_digest="t1")
    tasks = _tasks(failing_cell, [{"value": 2}])
    assert not run_sweep(tasks, cache=cache)[0].ok
    assert not run_sweep(tasks, cache=cache)[0].cached


def test_progress_counts_every_cell(tmp_path):
    cache = RunCache(tmp_path, tree_digest="t1")
    tasks = _tasks(echo_cell, [{"value": v} for v in (1, 2, 3)])
    run_sweep(tasks, cache=cache)
    seen = []
    run_sweep(
        tasks, cache=cache,
        progress=lambda done, total, result: seen.append((done, total)),
    )
    assert seen == [(1, 3), (2, 3), (3, 3)]


# -- the shared tail ----------------------------------------------------------


def test_sweep_report_assembles_digests_and_writes(tmp_path):
    from repro.eval.report import report_digest

    out = tmp_path / "report.json"
    report = sweep_report(
        _tasks(failing_cell, [{"value": v} for v in (1, 2)]),
        lambda results: {"cells": [r.value if r.ok else "error" for r in results]},
        jobs=1, cache=None, out_path=str(out), progress=False,
    )
    assert report["cells"] == [{"value": 1}, "error"]
    assert report["digest"] == report_digest({"cells": report["cells"]})
    assert json.loads(out.read_text()) == report


def test_progress_prints_one_line_per_cell_in_one_format(tmp_path, capsys):
    cache = RunCache(tmp_path, tree_digest="t1")
    run_sweep(_tasks(failing_cell, [{"value": 1}]), cache=cache)
    capsys.readouterr()
    sweep_report(  # t0 replays from the cache, t1 raises, t2 runs fresh
        _tasks(failing_cell, [{"value": v} for v in (1, 2, 3)]),
        lambda results: {}, jobs=1, cache=cache, out_path=None, progress=True,
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "  [1/3] t0: cached"
    assert lines[1] == "  [2/3] t1: ERROR"
    assert lines[2].startswith("  [3/3] t2: ok (") and lines[2].endswith("s)")
    assert len(lines) == 3
