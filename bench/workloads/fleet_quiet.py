"""``fleet_quiet``: 50 Fig. 1 homes interleaved in one scheduler for a day.

Aggregate-only traces with a streaming digest, 60 s heartbeats, no apps:
ROADMAP's fleet home-days/s number, and the one workload where every
quiescent express lane (multicast plan, repeating post, inline digest,
radio fan-out index) does most of the work while delivery and execution
do none. A repetition builds the fleet and steps it one simulated hour at
a time, so each hour is a slice; the day fold and digest seal still happen
at the absolute day boundary inside ``Fleet.run_until``, so slicing changes
no simulated output.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from repro.core.invariants import check_fleet_isolation
from repro.eval.workloads import fleet_deployment

from bench.harness import Laps, Outcome, Sizing, Slice, same_outputs

DAY_S = 86_400.0
HOUR_S = 3_600.0
HOMES = 50
QUICK_HOMES = 6


def _sharding_invariance(seed: int) -> str | None:
    """A home's digest must not depend on its siblings; None when it holds."""
    mini, _ = fleet_deployment(homes=3, days=1.0, seed=seed)
    solo, _ = fleet_deployment(home_ids=["h001"], days=1.0, seed=seed)
    mini.run_until(DAY_S)
    solo.run_until(DAY_S)
    if mini.home("h001").trace.digest() != solo.home("h001").trace.digest():
        return "home h001 digests differ between a 3-home fleet and a solo run"
    return None


def _snapshot_probe(fleet, scratch_dir) -> tuple[dict[str, float], bool]:
    """Checkpoint and restore the finished fleet (it stands at a day boundary)."""
    from repro.core.fleet import Fleet

    scratch_dir.mkdir(parents=True, exist_ok=True)
    path = scratch_dir / "fleet-probe.snapshot"
    try:
        start = time.perf_counter()
        fleet.checkpoint(path)
        checkpoint_s = time.perf_counter() - start
        size = path.stat().st_size
        start = time.perf_counter()
        restored = Fleet.restore(path)
        restore_s = time.perf_counter() - start
    finally:
        path.unlink(missing_ok=True)
    layer = {
        "sim.snapshot.checkpoint_s": checkpoint_s,
        "sim.snapshot.restore_s": restore_s,
        "sim.snapshot.bytes": float(size),
    }
    return layer, restored.digest() == fleet.digest()


def measure(
    seed: int, sizing: Sizing, *, probes: bool = False, fault: bool = False,
    scratch_dir: Any = None, tracer: Any = None,
) -> Outcome:
    homes = QUICK_HOMES if sizing.quick else HOMES
    setup_samples: list[float] = []
    slices: list[Slice] = []
    errors: list[str] = []
    layer: dict[str, float] = {}
    exact: dict[str, Any] = {}
    failed = 0
    for repetition in range(sizing.repetitions):
        fleet = None  # let the last repetition's fleet go before building anew
        start = time.perf_counter()
        fleet, _workloads = fleet_deployment(homes=homes, days=1.0, seed=seed)
        setup_samples.append(time.perf_counter() - start)
        gc.collect()
        with Laps(tracer) as laps:
            for hour in range(24):
                fleet.run_until((hour + 1) * HOUR_S)
                laps.mark(f"hour{hour:02d}", homes / 24)
        slices.extend(laps.slices)

        start = time.perf_counter()
        violations = check_fleet_isolation(fleet)
        layer["core.invariants.check_s"] = time.perf_counter() - start
        failed += len({v.context.get("home_id") for v in violations})
        totals = fleet.metrics()["fleet"]
        outputs = {
            "fleet_digest": fleet.digest(),
            "scheduler_events": totals["scheduler_events"],
            "net_messages": totals["net_messages"],
            "events_emitted": totals["events_emitted"],
            "radio_delivered": totals["radio_delivered"],
        }
        exact = same_outputs(exact, outputs, repetition, errors)

    if exact["events_emitted"] <= 0 or exact["net_messages"] <= 0:
        errors.append(f"fleet produced no traffic: {exact}")
    if exact["radio_delivered"] > 3 * exact["events_emitted"]:
        errors.append("more radio deliveries than emissions x processes")
    broken = _sharding_invariance(seed)
    if broken:
        errors.append(broken)
    if probes:
        layer["core.fleet.build_s"] = setup_samples[-1]
        snapshot, same = _snapshot_probe(fleet, scratch_dir)
        layer.update(snapshot)
        if not same:
            errors.append("restored fleet digest differs from the live fleet")

    return Outcome(
        repetitions=sizing.repetitions,
        setup_samples=setup_samples,
        slices=slices,
        attempted=homes * sizing.repetitions,
        failed=failed,
        region_wall_s=laps.wall_s,
        exact=exact,
        layer=layer,
        errors=errors,
    )
