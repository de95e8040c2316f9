"""Checkpoint/restore: kill a fleet run and finish it byte-identically."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.fleet import DAY_S, Fleet
from repro.core.home import HomeConfig
from repro.eval.workloads import OccupancyConfig, OccupancyWorkload, fleet_deployment
from repro.sim.random import RandomSource
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
    assert resumed.now == DAY_S
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


@pytest.mark.parametrize(
    "name",
    ["fleet_v3_parent.snap", "fleet_v4_parent.snap", "fleet_v5.snap", "fleet_v6.snap"],
)
def test_older_parent_written_snapshots_are_refused(name):
    """Real files from earlier builds (a 2-process home checkpointed at day
    1). v3, before gossip-on-change: its heartbeat services lack the
    assembled-payload state and would die on the first tick. v4, before the
    service host: its processes lack ``config`` and would die with
    AttributeError at the first recovery. v5, before the one timer entry:
    its heap holds ``_GuardedHandle`` and eight-slot ``TimerHandle``
    objects. v6, before the fleet held its own scheduler and registry: its
    graph names the deleted context module. ``load_fleet`` must refuse all
    four up front with ``SnapshotError`` instead."""
    parent = Path(__file__).parent / "data" / name
    with pytest.raises(SnapshotError, match=r"format version [3456]|incompatible build"):
        load_fleet(parent)


def two_process_fleet() -> Fleet:
    """One home, two processes, a door and a motion sensor, two resident-days.

    ``data/fleet_v7.snap`` is this fleet at day 1, written by the build
    that introduced format 7 (the fleet holds the scheduler and the tenant
    registry itself) with::

        PYTHONPATH=src python -c "
        from tests.integration.test_fleet_snapshot import two_process_fleet
        from repro.core.fleet import DAY_S
        fleet = two_process_fleet(); fleet.run_until(DAY_S)
        fleet.checkpoint('tests/integration/data/fleet_v7.snap', horizon_days=2)"

    so every later build reads a parent-written file
    (``data/fleet_v6.snap``, ``data/fleet_v5.snap`` and
    ``data/fleet_v4_parent.snap`` are the same fleet written by the builds
    of formats 6, 5 and 4).

    No app is deployed: that build (like this one) cannot checkpoint an
    active logic node, whose windows close over a lambda.
    """
    fleet = Fleet(seed=11)
    seed = fleet.home_seed("h000")
    home = fleet.add_home("h000", config=HomeConfig(
        seed=seed, heartbeat_interval=60.0, failure_detection_s=180.0,
        kv_sync_interval=3600.0, keep_trace_kinds=set(), trace_digest=True,
    ))
    home.add_process("hub", adapters=("zwave", "ip"))
    home.add_process("tv", adapters=("zwave", "ip"))
    home.add_sensor("door1", kind="door")
    home.add_sensor("motion1", kind="motion")
    fleet.start()
    OccupancyWorkload(
        home=home, motion_sensors=["motion1"], door_sensors=["door1"],
        rng=RandomSource(seed).child("occupancy"), config=OccupancyConfig(days=2.0),
    ).schedule()
    return fleet


def _second_day_with_a_crash(fleet: Fleet) -> Fleet:
    """Day 2 with the tv down for an hour: two view changes per process."""
    home = fleet.home("h000")
    fleet.scheduler.call_at(1.25 * DAY_S, home.crash_process, "tv")
    fleet.scheduler.call_at(1.25 * DAY_S + 3600.0, home.recover_process, "tv")
    return fleet.run_until(2 * DAY_S)


def test_parent_written_v7_snapshot_loads_and_resumes():
    """A committed format-7 file loads and resumes — through a crash and a
    recovery, which boots a new stack from the restored ``config`` — to the
    digest of the uninterrupted run."""
    parent = Path(__file__).parent / "data" / "fleet_v7.snap"
    resumed = load_fleet(parent, horizon_days=2)
    assert FORMAT_VERSION == 7 and resumed.now == DAY_S
    # Both timer shapes were pickled as bare list entries: the services'
    # one-shot timers (interval 0.0) and their repeating ticks.
    intervals = [entry[2] for bucket in resumed.scheduler._buckets.values()
                 if type(bucket) is list for entry in bucket if type(entry) is list]
    assert 0.0 in intervals and any(interval > 0 for interval in intervals)

    _second_day_with_a_crash(resumed)
    reference = _second_day_with_a_crash(two_process_fleet())
    assert resumed.digest() == reference.digest()
    assert resumed.metrics() == reference.metrics()
    home = resumed.home("h000")
    assert home.trace.count("suspect") == home.trace.count("unsuspect") == 1
    # The restored transport rebuilds its two multicast plans; every other
    # counter — the services' through the recovery too — reads as uninterrupted.
    assert home.stats() == {**reference.home("h000").stats(), "plan_builds": 4}


class _Beacon:
    """A picklable piggyback provider: the same non-empty dict until every
    ``every``-th tick hands back a new one, of a different wire size."""

    def __init__(self, every: int) -> None:
        self.every = every
        self.ticks = 0
        self.value = {"n": 0}

    def __call__(self) -> dict:
        self.ticks += 1
        if self.ticks % self.every == 0:
            self.value = {"n": self.ticks, "pad": "x" * (self.ticks % 7)}
        return self.value


class _BeaconLog:
    """The picklable consumer: what arrived goes into the digest."""

    def __init__(self, process) -> None:
        self.process = process

    def __call__(self, sender: str, value: dict) -> None:
        self.process.trace("beacon_seen", sender=sender, **value)


def _beacon_fleet() -> Fleet:
    """``two_process_fleet`` plus a third process, every heartbeat carrying
    a registered, changing piggyback (no app: see ``two_process_fleet``)."""
    fleet = Fleet(seed=11)
    home = fleet.add_home("h000", config=HomeConfig(
        seed=fleet.home_seed("h000"), heartbeat_interval=60.0,
        failure_detection_s=180.0, kv_sync_interval=3600.0,
        keep_trace_kinds=set(), trace_digest=True,
    ))
    for name in ("hub", "tv", "fridge"):
        home.add_process(name, adapters=("zwave", "ip"))
    home.add_sensor("door1", kind="door")
    fleet.start()
    for every, process in enumerate(home.processes.values(), start=5):
        process.heartbeat.add_payload_provider("beacon", _Beacon(every))
        process.heartbeat.add_payload_consumer("beacon", _BeaconLog(process))
    return fleet


def test_checkpoint_mid_run_with_a_registered_piggyback(tmp_path):
    """The transport's payload table is snapshot state (the plans built
    from it are not): a home whose keep-alives carry a registered,
    non-empty payload resumes to the uninterrupted digest — through later
    re-payloads, and a crash + recovery whose fresh heartbeat registers
    its empty one."""
    snap = tmp_path / "fleet.snap"
    fleet = _beacon_fleet()
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap)
    resumed = load_fleet(snap)

    home = resumed.home("h000")
    network = home.network
    assert network._mcast_plans == {} and network.plan_builds == 3
    for name, process in home.processes.items():
        payload, nbytes = network._mcast_payloads[name, "keepalive"]
        # One object, as before the pickle: the fallback's size lookup and
        # the next change both go by identity.
        assert payload is process.heartbeat._payload and payload["beacon"]["n"] > 0
        assert network.multicast_bytes(name, "keepalive", payload) == nbytes > 90
    before = network.plan_repayloads

    _second_day_with_a_crash(resumed)
    reference = _second_day_with_a_crash(fleet)
    assert resumed.digest() == reference.digest()
    assert resumed.metrics() == reference.metrics()
    trace = home.trace
    assert trace.count("beacon_seen") == reference.home("h000").trace.count("beacon_seen")
    assert trace.count("beacon_seen") > 2 * 2 * 1400  # 2 senders heard all of both days
    # Plans came back from the table, then were patched on every change.
    assert network.plan_builds == 6 and network.plan_repayloads > before + 300
    assert home.stats() == {**reference.home("h000").stats(), "plan_builds": 6}


def test_snapshot_header_records_the_horizon(tmp_path):
    snap = tmp_path / "fleet.snap"
    fleet, _ = fleet_deployment(homes=1, seed=3, days=2.0)
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap, horizon_days=2)
    assert load_fleet(snap, horizon_days=2).now == DAY_S
    assert load_fleet(snap).now == DAY_S  # no horizon asked: no check
    with pytest.raises(SnapshotError, match=r"run of 2 day\(s\), not of 3 day\(s\)"):
        load_fleet(snap, horizon_days=3)

    fleet.checkpoint(snap)  # written without a horizon: a resume cannot check it
    with pytest.raises(SnapshotError, match="unrecorded length, not of 2 day"):
        load_fleet(snap, horizon_days=2)


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
    assert load_fleet(snap).now == 2 * DAY_S
