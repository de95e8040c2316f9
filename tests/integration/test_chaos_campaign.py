"""Integration tests for the chaos campaign engine.

The unmarked tests are a small smoke campaign (tier-1). The full sweep at
paper scale is opt-in via ``-m chaos``.
"""

import json

import pytest

from repro.apps.scenarios import chaos_scenario
from repro.core.delivery_service import GaplessOptions
from repro.core.scenario import build_sim_home
from repro.eval.chaos import (
    campaign_tasks,
    chaos_domain,
    replay_run,
    run_campaign,
    run_chaos_case,
)
from repro.sim.chaos import FaultScheduleGenerator, PROFILES
from repro.sim.faults import FaultError, FaultPlan

#: The device campaign: one more mode of ``run_campaign``.
DEVICE = dict(modes=("device",), intensities=("device",))

#: Options that disable both Gapless repair mechanisms — the known-broken
#: fixture the campaign must be able to catch and shrink.
BROKEN = GaplessOptions(fallback_enabled=False, sync_enabled=False)


# -- smoke campaign (tier-1) --------------------------------------------------


def test_smoke_campaign_passes_and_is_deterministic():
    kwargs = dict(
        seeds=[0, 1], horizon=600.0, intensities=("severe",), out_path=None,
    )
    first = run_campaign(**kwargs)
    second = run_campaign(**kwargs)
    assert first["summary"]["failures"] == 0
    assert first["summary"]["total"] == 6  # 2 seeds x 1 intensity x 3 modes
    assert first["digest"] == second["digest"]


def test_faulty_run_differs_from_fault_free_run():
    generator = FaultScheduleGenerator(chaos_domain(), PROFILES["severe"], 600.0)
    plan = generator.generate(0)
    assert len(plan) > 0
    _, faulty = run_chaos_case(0, "gapless", 600.0, plan)
    _, clean = run_chaos_case(0, "gapless", 600.0, FaultPlan())
    assert faulty.trace.count("crash") > 0
    assert clean.trace.count("crash") == 0


def test_broken_gapless_fixture_is_caught_and_shrunk():
    report = run_campaign(
        seeds=[3], horizon=600.0, intensities=("severe",),
        modes=("gapless",), gapless_options=BROKEN, out_path=None,
    )
    [entry] = report["runs"]
    assert entry["verdict"] == "fail"
    assert any("delivery_guarantee" in v for v in entry["violations"])
    assert entry["reproducer_actions"] <= 5
    assert entry["reproducer_actions"] < entry["fault_actions"]

    # the minimized reproducer replays to the same verdict
    result = replay_run(report, entry["run_id"], gapless_options=BROKEN)
    assert result["source"] == "reproducer"
    assert result["verdict"] == "fail" == result["recorded_verdict"]


def test_replay_of_passing_run_regenerates_the_plan():
    report = run_campaign(
        seeds=[0], horizon=600.0, intensities=("mild",),
        modes=("gap",), out_path=None,
    )
    result = replay_run(report, "gap-mild-s0")
    assert result["source"] == "regenerated plan"
    assert result["verdict"] == "pass" == result["recorded_verdict"]
    with pytest.raises(KeyError):
        replay_run(report, "no-such-run")


def test_report_round_trips_through_json(tmp_path):
    out = tmp_path / "report.json"
    report = run_campaign(
        seeds=[1], horizon=600.0, intensities=("mild",),
        modes=("gapless",), out_path=str(out),
    )
    on_disk = json.loads(out.read_text())
    assert on_disk == report


def test_cli_chaos_smoke(tmp_path, capsys):
    from repro.eval.cli import main

    out = tmp_path / "report.json"
    code = main(["chaos", "--seeds", "1", "--horizon", "600",
                 "--intensities", "mild", "--modes", "gapless",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "failures  : 0" in capsys.readouterr().out


# -- Home fault entry-point validation ----------------------------------------


@pytest.fixture
def home():
    h = build_sim_home(chaos_scenario("gapless"), seed=0)
    h.start()
    return h


def test_unknown_targets_raise_fault_error(home):
    with pytest.raises(FaultError, match="unknown process"):
        home.crash_process("nope")
    with pytest.raises(FaultError, match="unknown process"):
        home.recover_process("nope")
    with pytest.raises(FaultError, match="unknown sensor"):
        home.fail_sensor("nope")
    with pytest.raises(FaultError, match="unknown actuator"):
        home.recover_actuator("nope")


def test_partition_of_unknown_process_raises(home):
    with pytest.raises(FaultError):
        home.set_partition([["p0", "ghost"], ["p1"]])


def test_link_loss_validation(home):
    with pytest.raises(FaultError):
        home.set_link_loss("m1", "p1", 1.5)
    with pytest.raises(FaultError):
        home.set_link_loss("m1", "p1", -0.1)
    with pytest.raises(FaultError, match="no radio link"):
        home.set_link_loss("m1", "p0", 0.5)  # m1 has no link to p0
    home.set_link_loss("m1", "p1", 0.5)  # valid bounds pass


# -- device-fault campaign (repair on vs. off) --------------------------------


def test_device_campaign_repairs_outcomes_and_is_deterministic():
    """Seeds picked to trip two different outcome oracles with repair off;
    with repair on the campaign must be clean — and bit-identical on rerun."""
    kwargs = dict(seeds=[2, 3], horizon=3600.0, out_path=None, **DEVICE)
    first = run_campaign(**kwargs)
    second = run_campaign(**kwargs)
    assert first["summary"]["failures"] == 0
    assert first["digest"] == second["digest"]
    deltas = first["summary"]["outcome_deltas"]
    assert all(d["repair_on"] == 0 for d in deltas.values())
    assert deltas["hvac_no_empty_heat"]["repair_off"] > 0
    assert deltas["intrusion_alarm_latency"]["repair_off"] > 0
    for run in first["runs"]:
        assert run["repair_decisions"], "repair layer must have acted"


def test_device_run_replays_from_the_report():
    report = run_campaign(seeds=[2], horizon=1800.0, out_path=None, **DEVICE)
    result = replay_run(report, "device-s2")
    assert result["source"] == "regenerated plan"
    assert result["verdict"] == "pass" == result["recorded_verdict"]


def test_device_report_round_trips_through_json(tmp_path):
    out = tmp_path / "device.json"
    report = run_campaign(
        seeds=[2], horizon=1800.0, out_path=str(out), **DEVICE,
    )
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("modes, intensities", [
    (("device",), ("mild", "severe")),  # two cells both called device-s0
    (("gapless", "device"), ("device",)),
    (("gapless",), ("device",)),
    (("device",), ("device", "device")),
])
def test_device_mode_combines_with_nothing_else(modes, intensities):
    with pytest.raises(ValueError, match="combines with no other mode"):
        campaign_tasks([0], 600.0, modes=modes, intensities=intensities)
    with pytest.raises(ValueError, match="combines with no other mode"):
        run_campaign([0], 600.0, modes=modes, intensities=intensities,
                     out_path=None)


def test_device_campaign_refuses_gapless_options():
    """Device cells never read the options: taking them would report a
    campaign that did not run with them."""
    with pytest.raises(ValueError, match="takes no gapless_options"):
        campaign_tasks([0], 600.0, gapless_options=BROKEN, **DEVICE)
    with pytest.raises(ValueError, match="takes no gapless_options"):
        run_campaign([0], 600.0, gapless_options=BROKEN, out_path=None, **DEVICE)
    # Option-less cells keep their specs, hence their cache keys.
    assert [t.spec for t in campaign_tasks([0], 600.0, **DEVICE)] == [{
        "seed": 0, "mode": "device", "intensity": "device", "horizon": 600.0,
        "gapless_options": None, "max_shrink_evals": 64,
    }]


def test_device_campaign_task_ids_are_unique():
    tasks = campaign_tasks([0, 1], 600.0, **DEVICE)
    assert [t.task_id for t in tasks] == ["device-s0", "device-s1"]


def test_cli_chaos_device_profile_smoke(tmp_path, capsys):
    from repro.eval.cli import main

    out = tmp_path / "device.json"
    code = main(["chaos", "--profile", "device", "--seeds", "1",
                 "--horizon", "1200", "--no-cache", "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "device-fault campaign" in captured
    assert "failures  : 0" in captured


def test_cli_chaos_unknown_profile_exits_2(capsys):
    from repro.eval.cli import main

    assert main(["chaos", "--profile", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown chaos profile" in err
    for name in sorted(PROFILES):
        assert name in err
    # --profile picks one profile; combining it with --intensities is a
    # contradiction, not a merge.
    assert main(["chaos", "--profile", "device",
                 "--intensities", "mild"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    # ... and the device scenario is its own mode: --modes is refused, not
    # silently dropped, and "device" is never one intensity among others.
    assert main(["chaos", "--profile", "device", "--modes", "gapless"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["chaos", "--intensities", "mild,device"]) == 2
    assert "unknown intensity 'device'" in capsys.readouterr().err


# -- full sweep (opt-in) ------------------------------------------------------


@pytest.mark.chaos
def test_full_campaign_at_paper_scale(tmp_path):
    report = run_campaign(
        seeds=list(range(10)), horizon=3600.0,
        out_path=str(tmp_path / "report.json"),
    )
    assert report["summary"]["failures"] == 0
    assert report["summary"]["total"] == 60


@pytest.mark.chaos
def test_broken_fixture_at_paper_scale_yields_small_reproducers():
    # permanent loss needs a crash inside the ingest-to-forward window, so
    # not every seed trips it; 0..29 contains at least one that does (s28)
    report = run_campaign(
        seeds=list(range(30)), horizon=3600.0, intensities=("severe",),
        modes=("gapless",), gapless_options=BROKEN, out_path=None,
    )
    failures = [r for r in report["runs"] if r["verdict"] == "fail"]
    assert failures, "the broken fixture must fail at least once"
    for entry in failures:
        assert entry["reproducer_actions"] <= 5
