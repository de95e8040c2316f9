"""Checkpoint/restore: kill a fleet run and finish it byte-identically."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.fleet import DAY_S, Fleet
from repro.eval.workloads import fleet_deployment
from repro.sim.snapshot import FORMAT_VERSION, SnapshotError, load_fleet

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Day 1 of a 2-day, 2-home run, checkpointed at the day boundary; the
#: process then dies without reaching day 2 (the "kill").
_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.fleet import DAY_S
from repro.eval.workloads import fleet_deployment

fleet, _ = fleet_deployment(homes=2, seed=11, days=2.0)
fleet.run_until(DAY_S)
fleet.checkpoint({snap!r})
sys.exit(0)
"""


def test_checkpoint_kill_resume_digest_byte_identical(tmp_path):
    """Acceptance: a killed-and-resumed run equals the uninterrupted one."""
    snap = tmp_path / "fleet.snap"
    subprocess.run(
        [sys.executable, "-c",
         _CHILD_SCRIPT.format(src=REPO_SRC, snap=str(snap))],
        check=True, timeout=300,
    )
    assert snap.exists()

    resumed = Fleet.restore(snap)
    assert resumed.context.now == DAY_S
    resumed.run_until(2 * DAY_S)

    reference, _ = fleet_deployment(homes=2, seed=11, days=2.0)
    reference.run_until(2 * DAY_S)

    assert resumed.digest() == reference.digest()
    assert resumed.metrics() == reference.metrics()


def test_checkpoint_roundtrip_in_process(tmp_path):
    snap = tmp_path / "fleet.snap"
    fleet, _ = fleet_deployment(homes=2, seed=3, days=2.0)
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap)
    # Checkpointing is non-destructive: the original keeps running...
    fleet.run_until(2 * DAY_S)
    # ...and the restored copy reaches the same final state independently.
    restored = Fleet.restore(snap)
    restored.run_until(2 * DAY_S)
    assert restored.digest() == fleet.digest()
    # The trace channels held by sensors, radio fan-outs and in-flight
    # quiescent deliveries came back bound to the restored traces' cells:
    # a copy that lost that identity would still digest, but stop counting.
    for home in fleet.homes():
        assert restored.home(home.home_id).trace.counts == home.trace.counts


def test_checkpoint_refused_mid_day(tmp_path):
    fleet, _ = fleet_deployment(homes=2, seed=3, days=1.0)
    fleet.run_until(0.25 * DAY_S)
    with pytest.raises(SnapshotError, match="day boundary"):
        fleet.checkpoint(tmp_path / "fleet.snap")


class _StaleGraph:
    """Unpickles by reading an attribute the current build does not have."""

    def __reduce__(self):
        return getattr, (Fleet, "_removed_in_a_later_build")


def test_load_rejects_foreign_and_future_files(tmp_path):
    garbage = tmp_path / "garbage.snap"
    garbage.write_bytes(b"not a pickle at all")
    with pytest.raises(SnapshotError, match="corrupt"):
        load_fleet(garbage)

    foreign = tmp_path / "foreign.snap"
    foreign.write_bytes(pickle.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError, match="not a fleet snapshot"):
        load_fleet(foreign)

    future = tmp_path / "future.snap"
    future.write_bytes(pickle.dumps({
        "magic": "rivulet-fleet-snapshot",
        "format_version": FORMAT_VERSION + 1,
        "fleet": None,
    }))
    with pytest.raises(SnapshotError, match="format version"):
        load_fleet(future)

    # The parent build's format: refused by its header...
    previous = tmp_path / "previous.snap"
    previous.write_bytes(pickle.dumps({
        "magic": "rivulet-fleet-snapshot",
        "format_version": 2,
        "fleet": None,
    }))
    with pytest.raises(SnapshotError, match="format version 2"):
        load_fleet(previous)
    # ...and, when its object graph names state this build no longer has
    # (unpickling fails before the header can be read), still refused with
    # SnapshotError instead of an AttributeError.
    previous.write_bytes(pickle.dumps({
        "magic": "rivulet-fleet-snapshot",
        "format_version": 2,
        "fleet": _StaleGraph(),
    }))
    with pytest.raises(SnapshotError, match="incompatible build"):
        load_fleet(previous)

    with pytest.raises(SnapshotError, match="no snapshot"):
        load_fleet(tmp_path / "missing.snap")


def test_parent_written_v3_snapshot_is_refused():
    """A real file from the build before gossip-on-change (format 3, a
    2-process home checkpointed at day 1): its heartbeat services lack the
    assembled-payload state, so resuming it would die with AttributeError
    on the first tick. ``load_fleet`` must refuse it up front instead."""
    parent = Path(__file__).parent / "data" / "fleet_v3_parent.snap"
    with pytest.raises(SnapshotError, match="format version 3|incompatible build"):
        load_fleet(parent)


def test_snapshot_write_is_atomic(tmp_path):
    """A checkpoint overwrites the previous snapshot only as a whole file."""
    snap = tmp_path / "fleet.snap"
    fleet, _ = fleet_deployment(homes=2, seed=3, days=2.0)
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap)
    first = snap.read_bytes()
    fleet.run_until(2 * DAY_S)
    fleet.checkpoint(snap)
    second = snap.read_bytes()
    assert first != second
    # No staging residue next to the target.
    assert list(tmp_path.iterdir()) == [snap]
    assert load_fleet(snap).context.now == 2 * DAY_S
