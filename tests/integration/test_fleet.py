"""Fleet integration: solo-equivalence, sibling insensitivity, sharding
digests, per-tenant chaos, the fleet-isolation oracle, the per-home memory
bound, and the CLI surface."""

import gc
import json
import tracemalloc

import pytest

from repro.core.delivery import GAPLESS
from repro.core.fleet import Fleet
from repro.core.home import Home
from repro.core.invariants import check_fleet_isolation
from repro.eval.cli import main
from repro.eval.fleet import run_fleet_sweep
from repro.eval.workloads import DAY_S, fleet_deployment, noop_app
from repro.sim.chaos import PROFILES, FaultDomain, FaultScheduleGenerator
from repro.sim.faults import FaultError, FaultPlan


def template(home: Home, index: int) -> None:
    home.add_process("hub")
    home.add_process("tv")
    home.add_sensor("door1", kind="door", processes=["hub", "tv"])
    home.add_actuator("light1", processes=["hub"])
    home.deploy(noop_app("door1", GAPLESS, actuator="light1"))


def drive(scheduler, sensor, *, count: int = 30, period: float = 7.5) -> None:
    for i in range(count):
        scheduler.call_at(1.0 + i * period, sensor.emit, i % 2 == 0)


# -- determinism: solo-equivalence and sibling insensitivity --------------------------


def test_pinned_seed_homes_match_each_other_and_a_solo_run():
    """Satellite: same per-home seed => identical traces, fleet or solo."""
    fleet = Fleet(seed=42)
    for home_id in ("a", "b"):
        home = fleet.add_home(home_id, seed=7)
        template(home, 0)
    fleet.start()
    for home_id in ("a", "b"):
        drive(fleet.scheduler, fleet.home(home_id).sensor("door1"))
    fleet.run_until(300.0)

    solo = Home(seed=7)
    template(solo, 0)
    solo.start()
    drive(solo.scheduler, solo.sensor("door1"))
    solo.run_until(300.0)

    assert fleet.home("a").trace.digest() == fleet.home("b").trace.digest()
    assert fleet.home("a").trace.digest() == solo.trace.digest()


def test_fleet_home_matches_the_same_home_run_alone():
    """A fig1 home's trace is identical inside a fleet and in a 1-home run."""
    trio, _ = fleet_deployment(home_ids=["h000", "h001", "h002"])
    trio.run_until(DAY_S)
    solo, _ = fleet_deployment(home_ids=["h001"])
    solo.run_until(DAY_S)
    assert trio.home("h001").trace.digest() == solo.home("h001").trace.digest()


def test_adding_a_home_never_perturbs_siblings():
    pair, _ = fleet_deployment(home_ids=["h000", "h001"])
    pair.run_until(DAY_S)
    trio, _ = fleet_deployment(home_ids=["h000", "h001", "h002"])
    trio.run_until(DAY_S)
    for home_id in ("h000", "h001"):
        assert (pair.home(home_id).trace.digest()
                == trio.home(home_id).trace.digest())


# -- sharding: byte-identical reports for any (jobs, shards) --------------------------


def test_sharded_sweep_matches_monolithic_fleet_digest():
    fleet, _ = fleet_deployment(homes=4)
    fleet.run_until(DAY_S)
    report = run_fleet_sweep(4, 1.0, jobs=1, shards=2, cache=None)
    assert report["summary"]["fleet_digest"] == fleet.digest()


def test_ten_home_fleet_report_identical_jobs1_vs_jobs2():
    """Acceptance: --jobs 1 and --jobs 2 sharded runs are byte-identical."""
    sequential = run_fleet_sweep(10, 1.0, jobs=1, shards=1, cache=None)
    sharded = run_fleet_sweep(10, 1.0, jobs=2, shards=4, cache=None)
    assert sequential == sharded
    assert sequential["summary"]["errors"] == 0
    assert sequential["summary"]["events_emitted"] > 0


# -- memory: held bytes per home stay flat as the fleet grows -------------------------


def _run_and_measure_held_kb(homes: int, days: float) -> tuple[float, Fleet]:
    """Python memory still held after building and running a fleet, in KB."""
    gc.collect()
    tracemalloc.start()
    try:
        fleet, _workloads = fleet_deployment(homes=homes, days=days)
        fleet.run_until(days * DAY_S)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / 1024.0, fleet


def test_fleet_memory_per_home_stays_flat():
    """The streaming fold keeps a home at tens of KB; an accidental keep-all
    trace or a per-record table is an order of magnitude past this ceiling."""
    small_kb, _ = _run_and_measure_held_kb(2, 0.5)
    large_kb, fleet = _run_and_measure_held_kb(6, 0.5)
    marginal_kb_per_home = (large_kb - small_kb) / (6 - 2)
    assert marginal_kb_per_home < 1024.0
    assert all(not home.trace.events for home in fleet.homes())


# -- per-tenant chaos ----------------------------------------------------------------

DOMAIN = FaultDomain(
    processes=["hub", "tv"],
    sensors=["door1"],
    actuators=["light1"],
    links=[("door1", "hub"), ("door1", "tv")],
)
GENERATOR = FaultScheduleGenerator(DOMAIN, PROFILES["severe"], 1800.0)


def test_scope_changes_the_sampling_stream():
    """Tenants draw independent schedules from their per-home seeds."""
    fleet = Fleet(seed=42)
    a, b = (GENERATOR.generate(fleet.home_seed(home_id))
            for home_id in ("h000", "h001"))
    assert len(a) and len(b)
    assert [x.at for x in a.actions] != [x.at for x in b.actions]


def build_pair() -> Fleet:
    fleet = Fleet.build(2, template, seed=42)
    fleet.start()
    for home_id in fleet.home_ids:
        drive(fleet.scheduler, fleet.home(home_id).sensor("door1"),
              count=100, period=17.0)
    return fleet


def test_scoped_chaos_leaves_siblings_untouched():
    """A plan applied to h000 runs cleanly and never perturbs h001."""
    quiet = build_pair()
    quiet.run_until(1800.0)

    noisy = build_pair()
    plan = GENERATOR.generate(noisy.home_seed("h000"))
    assert any(a.kind == "set_partition" for a in plan.actions)
    plan.apply(noisy.home("h000"))
    noisy.run_until(1800.0)

    assert noisy.home("h001").trace.digest() == quiet.home("h001").trace.digest()
    assert noisy.home("h000").trace.digest() != quiet.home("h000").trace.digest()
    assert check_fleet_isolation(noisy) == []


# -- the fleet-isolation oracle -------------------------------------------------------


def test_isolation_oracle_green_on_a_healthy_fleet():
    fleet, _ = fleet_deployment(homes=3)
    fleet.run_until(DAY_S / 4)
    assert check_fleet_isolation(fleet) == []


def test_isolation_oracle_flags_foreign_net_traffic():
    fleet = Fleet.build(2, template, seed=42)
    fleet.start()
    fleet.home("h000").trace.record(
        0.0, "net_send", src="hub", dst="intruder", kind="data", bytes=8,
    )
    violations = check_fleet_isolation(fleet)
    assert any(
        v.oracle == "fleet_isolation" and "intruder" in v.message
        for v in violations
    )


def test_isolation_oracle_flags_foreign_ingest_records():
    """A keep-all tenant's kept ``ingest`` records are read: one naming a
    foreign process and one naming a foreign sensor are both flagged."""
    fleet = Fleet.build(2, template, seed=42)
    fleet.start()
    trace = fleet.home("h000").trace
    assert trace.keeps("ingest")
    trace.record(0.0, "ingest", sensor="door1", process="intruder", seq=1)
    trace.record(0.0, "ingest", sensor="alien-door", process="hub", seq=2)
    flagged = [(v.context.get("kind"), v.context.get("process"), v.context.get("sensor"))
               for v in check_fleet_isolation(fleet)]
    assert flagged == [("ingest", "intruder", None), (None, None, "alien-door")]


def test_a_plan_naming_another_home_fails_in_its_target():
    """Names are tenant-local: a foreign ``home_id/name`` is just an unknown
    process to the home the plan was applied to."""
    fleet = Fleet.build(2, template, seed=42).start()
    FaultPlan().crash("h001/tv", at=10.0).apply(fleet.home("h000"))
    with pytest.raises(FaultError, match="unknown process 'h001/tv'"):
        fleet.run_until(20.0)
    assert fleet.home("h001").process("tv").alive


# -- CLI surface ----------------------------------------------------------------------


def test_cli_fleet_rejects_bad_args_with_exit_2(capsys):
    assert main(["fleet", "--homes", "0"]) == 2
    assert main(["fleet", "--homes", "-3"]) == 2
    assert main(["fleet", "--homes", "2", "--shards", "0"]) == 2
    assert main(["fleet", "--homes", "2", "--days", "0.5"]) == 2
    assert main(["fleet", "--homes", "2", "--jobs", "0"]) == 2
    assert main(["fleet", "--homes", "2", "--checkpoint-every", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_fleet_runs_a_small_fleet(capsys, tmp_path):
    out = tmp_path / "fleet.json"
    code = main([
        "fleet", "--homes", "2", "--days", "1", "--no-cache",
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "fleet: 2 homes" in captured
    assert "fleet digest" in captured


# -- home_id pad width: sorted order must match numeric order at any scale ------------


def test_large_fleet_home_ids_sort_numerically():
    """Regression: >=1000 homes must widen the zero-pad, not interleave."""
    from repro.eval.workloads import fleet_home_ids

    ids = fleet_home_ids(1001)
    assert ids == sorted(ids)
    assert ids[0] == "h0000" and ids[-1] == "h1000"
    # Up to 1000 homes the historical three-digit ids are preserved.
    assert fleet_home_ids(1000)[0] == "h000"
    assert fleet_home_ids(1000)[-1] == "h999"

    fleet = Fleet.build(1001, lambda home, index: home.add_process("hub"))
    assert len(set(fleet.home_ids)) == 1001
    assert fleet.home_ids == sorted(fleet.home_ids)
    assert fleet.home_ids[-1] == "h1000"


def test_cli_fleet_checkpoint_digest_matches_sharded_sweep(capsys, tmp_path):
    """Both fleet paths write one report: the checkpointed run, fresh or
    resumed from a day-1 snapshot, has the sharded sweep's digest."""
    def digest(*argv):
        out = tmp_path / "report.json"
        assert main(["fleet", *argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())["digest"]

    snap = tmp_path / "fleet.snap"
    homes = ["--homes", "2", "--seed", "5"]
    checkpointed = digest(*homes, "--days", "1", "--checkpoint-every", "1",
                          "--snapshot", str(snap))
    assert snap.exists()
    assert "checkpoint ->" in capsys.readouterr().out
    assert checkpointed == digest(*homes, "--days", "1", "--shards", "2",
                                  "--jobs", "2", "--no-cache")
    assert checkpointed == run_fleet_sweep(2, 1.0, seed=5, shards=1)["digest"]

    fleet, _ = fleet_deployment(homes=2, seed=5, days=2.0)
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap, horizon_days=2)
    resumed = digest("--resume", str(snap), "--days", "2")
    assert "resumed 2 homes at day 1" in capsys.readouterr().out
    assert resumed == digest(*homes, "--days", "2", "--no-cache")


def test_cli_fleet_resume_refuses_another_horizon(capsys, tmp_path):
    """The occupancy workload of a 2-day run schedules 2 days of events: a
    resume asked to finish 3 days would run its third day empty."""
    snap = tmp_path / "fleet.snap"
    fleet, _ = fleet_deployment(homes=1, seed=5, days=2.0)
    fleet.run_until(DAY_S)
    fleet.checkpoint(snap, horizon_days=2)

    assert main(["fleet", "--resume", str(snap), "--days", "3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "run of 2 day(s), not of 3 day(s)" in err

    assert main(["fleet", "--resume", str(snap), "--days", "2"]) == 0
    assert "day 2/2" in capsys.readouterr().out
