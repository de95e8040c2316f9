"""``paper_protocols``: regenerate Fig. 4a, Fig. 5 and Fig. 8.

88 figure rows from ~80 short homes: 2-5 processes, Gap / Gapless /
naive broadcast, 4 B-20 KB events at 10 ev/s, coordinated polling. It is
what a reader regenerating sections 8.2-8.5 waits for. The event path
(``core.delivery_service``, ``core.execution``, ring forwarding, kept-event
traces, ``eval.metrics`` reads after the writes) dominates, home
construction is inside the timed region, and the quiescent fast lanes are
refused (payload-bearing messages, kept records).

The figures are generated cell by cell through their public keyword
arguments (one (size, n) of Fig. 4a, one size of Fig. 5, all of Fig. 8);
rows are independent given the seed, so the tables equal the whole-figure
calls, and each cell is a slice. Homes run for half the experiments'
default simulated durations, so that a repetition takes what the other
workloads' do; that roughly doubles construction's share of the time.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Iterator

from repro.eval.experiments import EXPERIMENTS, PAPER_EVENT_SIZES

from bench.harness import Laps, Outcome, Sizing, Slice, same_outputs, stable_hash

PROCESS_COUNTS = (2, 3, 4, 5)
#: Simulated seconds per home: half the experiments' defaults (60/30/200).
DURATIONS = {"fig4a": 30.0, "fig5": 15.0, "fig8": 100.0}
QUICK_SCALE = 0.2


def _cells(seed: int, scale: float) -> Iterator[tuple[str, str, dict[str, Any]]]:
    for size in PAPER_EVENT_SIZES:
        for n in PROCESS_COUNTS:
            yield f"fig4a/{size}B/n{n}", "fig4a", {
                "seeds": (seed,), "sizes": (size,), "process_counts": (n,),
                "duration": DURATIONS["fig4a"] * scale,
            }
    for size in PAPER_EVENT_SIZES:
        yield f"fig5/{size}B", "fig5", {
            "seeds": (seed,), "sizes": (size,), "duration": DURATIONS["fig5"] * scale,
        }
    yield "fig8", "fig8", {"seeds": (seed,), "duration": DURATIONS["fig8"] * scale}


def _row_failed(row: list[Any]) -> bool:
    return any(isinstance(v, float) and not math.isfinite(v) for v in row)


def _shape_errors(tables: dict[str, list[list[Any]]]) -> list[str]:
    """The paper's qualitative claims the regenerated tables must show."""
    errors: list[str] = []
    delay = {(g, size, n): d for g, size, n, d in tables.get("fig4a", [])}
    for (guarantee, size, n), value in delay.items():
        if guarantee == "gapless" and n >= 3:
            gap = delay.get(("gap", size, n))
            if gap is not None and not value >= gap:
                errors.append(
                    f"fig4a: gapless delay {value:.3f} < gap {gap:.3f} at "
                    f"{size} B, n={n}"
                )
    overhead = {(p, size, m): b for p, size, m, b, _ in tables.get("fig5", [])}
    for (protocol, size, m), value in overhead.items():
        # With one receiver broadcast is the cheaper of the two; from two on
        # it pays per receiver while the ring does not.
        if protocol == "naive-broadcast" and m >= 2:
            gapless = overhead.get(("gapless", size, m))
            if gapless is not None and not value >= gapless:
                errors.append(
                    f"fig5: broadcast {value:.1f} B/event < gapless "
                    f"{gapless:.1f} at {size} B, m={m}"
                )
    return errors


def measure(
    seed: int, sizing: Sizing, *, probes: bool = False, fault: bool = False,
    scratch_dir: Any = None, tracer: Any = None,
) -> Outcome:
    scale = QUICK_SCALE if sizing.quick else 1.0
    setup_samples: list[float] = []
    slices: list[Slice] = []
    errors: list[str] = []
    exact: dict[str, Any] = {}
    attempted = failed = 0
    for repetition in range(sizing.repetitions):
        # Set-up is what a run pays before its first home: the cell plan.
        # Home construction belongs to the timed region (core.home.build_s).
        start = time.perf_counter()
        plan = list(_cells(seed, scale))
        setup_samples.append(time.perf_counter() - start)
        gc.collect()
        tables: dict[str, list[list[Any]]] = {}
        with Laps(tracer) as laps:
            for key, name, kwargs in plan:
                try:
                    rows = EXPERIMENTS[name](**kwargs).rows
                except Exception as exc:  # noqa: BLE001 - a raising cell is a failed op
                    errors.append(f"{key} raised {exc!r}")
                    rows = [[math.nan]]
                tables.setdefault(name, []).extend(rows)
                laps.mark(key, len(rows))
        slices.extend(laps.slices)

        if fault and repetition == 0:
            # Self-test: corrupt one regenerated row.
            tables["fig4a"][0][-1] = math.nan
        rows = [row for table in tables.values() for row in table]
        attempted += len(rows)
        failed += sum(_row_failed(row) for row in rows)
        errors.extend(_shape_errors(tables))
        outputs = {"rows": len(rows), "table_hash": stable_hash(tables)}
        if not fault:  # the corrupted first repetition is meant to differ
            exact = same_outputs(exact, outputs, repetition, errors)
        exact = exact or outputs

    return Outcome(
        repetitions=sizing.repetitions,
        setup_samples=setup_samples,
        slices=slices,
        attempted=attempted,
        failed=failed,
        region_wall_s=laps.wall_s,
        exact=exact,
        errors=errors,
    )
