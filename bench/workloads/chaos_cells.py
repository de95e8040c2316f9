"""``chaos_cells``: one seed's chaos campaign cells, one after another.

3 delivery modes x {mild, severe} over 40 simulated minutes each. The same
layers as ``fleet_quiet`` used the other way: 0.5 s heartbeats, kept oracle
kinds, payload-bearing keep-alives on per-message ``send``, crashes,
partitions and recoveries, then the record build and every oracle. A lane
that pays on the quiet fleet and costs on the faulted path shows here, and
the oracle verdicts are the correctness check.

Cells come from ``campaign_tasks`` and run through ``run_campaign_cell``
(what ``run_campaign(jobs=1, cache=None)`` does, minus the sweep executor)
so each cell is a slice; the fault plan is generated inside the cell from
the seed, as in a campaign.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from repro.eval.chaos import campaign_tasks, run_campaign_cell
from repro.eval.report import report_digest

from bench.harness import Laps, Outcome, Sizing, Slice, same_outputs

HORIZON_S = 2_400.0
QUICK_HORIZON_S = 400.0


def measure(
    seed: int, sizing: Sizing, *, probes: bool = False, fault: bool = False,
    scratch_dir: Any = None, tracer: Any = None,
) -> Outcome:
    horizon = QUICK_HORIZON_S if sizing.quick else HORIZON_S
    setup_samples: list[float] = []
    slices: list[Slice] = []
    errors: list[str] = []
    exact: dict[str, Any] = {}
    attempted = failed = 0
    for repetition in range(sizing.repetitions):
        start = time.perf_counter()
        tasks = campaign_tasks([seed], horizon)
        setup_samples.append(time.perf_counter() - start)
        gc.collect()
        runs: list[dict[str, Any]] = []
        with Laps(tracer) as laps:
            for task in tasks:
                try:
                    entry = run_campaign_cell(task.spec)
                except Exception as exc:  # noqa: BLE001 - a raising cell is a failed op
                    entry = {"verdict": "error", "violations": [repr(exc)],
                             "fault_actions": 0}
                runs.append(entry)
                laps.mark(task.task_id, 1)
        slices.extend(laps.slices)

        attempted += len(tasks)
        for task, entry in zip(tasks, runs):
            if entry["verdict"] != "pass":
                failed += 1
                errors.append(f"cell {task.task_id}: {entry['violations'][:1]}")
        outputs = {
            "campaign_digest": report_digest({"runs": runs}),
            "fault_actions": sum(entry["fault_actions"] for entry in runs),
        }
        exact = same_outputs(exact, outputs, repetition, errors)

    return Outcome(
        repetitions=sizing.repetitions,
        setup_samples=setup_samples,
        slices=slices,
        attempted=attempted,
        failed=failed,
        region_wall_s=laps.wall_s,
        exact=exact,
        layer={"sim.chaos.fault_actions": float(exact["fault_actions"])},
        errors=errors,
    )
