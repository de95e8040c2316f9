"""Tier-1 determinism and smoke tests for parallel sweep execution.

These exercise the real process-pool path (``jobs=2``) on every test run:
the hard guarantee is that ``--jobs N`` produces **byte-identical** report
digests to ``--jobs 1``, for both the experiments sweep and the chaos
campaign, with and without the run cache.
"""

import pytest

import repro.eval.chaos as chaos_mod
import repro.eval.experiments as experiments_mod
import repro.eval.fleet as fleet_mod
import repro.eval.parallel as parallel_mod
from repro.eval.cache import RunCache
from repro.eval.chaos import run_campaign
from repro.eval.experiments import run_experiment_sweep
from repro.eval.fleet import run_fleet_sweep

CAMPAIGN = dict(
    seeds=[0, 1], horizon=600.0, intensities=("mild",),
    modes=("gapless",), out_path=None,
)


# -- chaos campaign -----------------------------------------------------------


def test_chaos_campaign_jobs2_matches_sequential_digest():
    sequential = run_campaign(**CAMPAIGN, jobs=1)
    pooled = run_campaign(**CAMPAIGN, jobs=2)
    assert sequential["digest"] == pooled["digest"]
    assert pooled["summary"] == {"total": 2, "failures": 0}
    assert [r["run_id"] for r in pooled["runs"]] == [
        "gapless-mild-s0", "gapless-mild-s1",
    ]


def test_chaos_campaign_cache_replays_identically(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cold = run_campaign(**CAMPAIGN, jobs=2, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": 2}
    warm = run_campaign(**CAMPAIGN, jobs=2, cache=cache)
    assert cache.hits == 2
    assert cold["digest"] == warm["digest"]
    # an interrupted sweep resumes: dropping one entry leaves one hit
    sequential = run_campaign(**CAMPAIGN, jobs=1, cache=cache)
    assert sequential["digest"] == cold["digest"]


# -- experiments sweep --------------------------------------------------------


def test_experiment_sweep_jobs2_matches_sequential_digest():
    kwargs = dict(seeds=(1, 2), duration=4.0)
    sequential = run_experiment_sweep(["table3", "fig4b"], jobs=1, **kwargs)
    pooled = run_experiment_sweep(["table3", "fig4b"], jobs=2, **kwargs)
    assert sequential["digest"] == pooled["digest"]
    # One cell per call of the figure function: fig4b averages its seeds.
    assert [c["cell_id"] for c in pooled["cells"]] == ["table3", "fig4b"]
    assert pooled["cells"][1]["kwargs"] == {"duration": 4.0, "seeds": [1, 2]}
    assert pooled["summary"] == {"total": 2, "errors": 0}


def test_experiment_sweep_cache_preserves_digest(tmp_path):
    cache = RunCache(tmp_path / "cache")
    kwargs = dict(seeds=(1,), duration=4.0)
    cold = run_experiment_sweep(["fig4b"], jobs=2, cache=cache, **kwargs)
    warm = run_experiment_sweep(["fig4b"], jobs=1, cache=cache, **kwargs)
    assert cold["digest"] == warm["digest"]
    assert cache.hits == 1


def test_runners_travel_by_reference_under_spawn(monkeypatch):
    # A task carries its runner as the function itself; a spawn worker
    # starts from a fresh interpreter and must find it again by name.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    def spawn_executor(jobs):
        return ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn"),
        )

    kwargs = dict(seeds=(1, 2), duration=2.0)
    sequential = run_experiment_sweep(["table3", "fig4b"], jobs=1, **kwargs)
    monkeypatch.setattr(parallel_mod, "_make_executor", spawn_executor)
    spawned = run_experiment_sweep(["table3", "fig4b"], jobs=2, **kwargs)
    assert spawned["summary"] == {"total": 2, "errors": 0}
    assert spawned["cells"] == sequential["cells"]
    assert spawned["digest"] == sequential["digest"]


# -- one raising cell, through each sweep's fold and its CLI exit code ---------


def _chaos_case():
    kwargs = dict(seeds=[0, 1], horizon=600.0, intensities=("mild",),
                  modes=("gapless",), out_path=None)
    argv = ["chaos", "--seeds", "0,1", "--horizon", "600",
            "--intensities", "mild", "--modes", "gapless"]

    def check(report, clean):
        bad, good = report["runs"]
        assert bad["run_id"] == "gapless-mild-s0"
        assert bad["verdict"] == "error" and "injected" in bad["error"]
        assert good == clean["runs"][1]
        assert report["summary"] == {"total": 2, "failures": 1}

    return (chaos_mod, "run_campaign_cell", lambda spec: spec["seed"] == 0,
            lambda: run_campaign(**kwargs), argv, check)


def _experiment_case():
    # fig7 takes one seed, so two seeds are two cells.
    kwargs = dict(seeds=(1, 2), duration=2.0)
    argv = ["fig7", "--seeds", "1,2", "--duration", "2"]

    def check(report, clean):
        bad, good = report["cells"]
        assert bad["cell_id"] == "fig7-s1" and "injected" in bad["error"]
        assert "table" not in bad
        assert good == clean["cells"][1]
        assert report["summary"] == {"total": 2, "errors": 1}

    return (experiments_mod, "run_experiment_cell",
            lambda spec: spec["cell_id"] == "fig7-s1",
            lambda: run_experiment_sweep(["fig7"], **kwargs), argv, check)


def _fleet_case():
    argv = ["fleet", "--homes", "2", "--days", "1", "--seed", "7"]

    def check(report, clean):
        [error] = report["errors"]
        assert error["task_id"] == "fleet-cell0" and "injected" in error["error"]
        assert report["homes"] == {"h001": clean["homes"]["h001"]}
        assert report["summary"]["errors"] == 1
        assert report["summary"]["homes"] == 1

    return (fleet_mod, "run_fleet_cell",
            lambda spec: "h000" in spec["home_ids"],
            lambda: run_fleet_sweep(2, 1.0, seed=7), argv, check)


@pytest.mark.parametrize("case", [_chaos_case, _experiment_case, _fleet_case])
def test_a_raising_cell_is_an_error_entry_and_exit_1(
    case, monkeypatch, tmp_path, capsys,
):
    from repro.eval.cli import main

    module, runner_name, fails, run, argv, check = case()
    real_runner = getattr(module, runner_name)
    clean = run()

    def runner(spec):
        if fails(spec):
            raise RuntimeError("injected cell failure")
        return real_runner(spec)

    monkeypatch.setattr(module, runner_name, runner)
    report = run()
    check(report, clean)
    assert report["digest"] != clean["digest"]

    out = tmp_path / "report.json"
    assert main(argv + ["--no-cache", "--out", str(out)]) == 1
    assert "ERROR" in capsys.readouterr().out
    assert out.exists()


# -- CLI surface --------------------------------------------------------------


def test_cli_chaos_sweep_with_jobs_and_cache(tmp_path, capsys):
    from repro.eval.cli import main

    out = tmp_path / "report.json"
    argv = ["chaos", "--seeds", "0,1", "--horizon", "600",
            "--intensities", "mild", "--modes", "gapless",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert out.exists()
    assert main(argv) == 0  # warm-cache rerun, same digest line
    second = capsys.readouterr().out
    digest = [l for l in first.splitlines() if "digest" in l]
    assert digest == [l for l in second.splitlines() if "digest" in l]


def test_cli_rejects_nonpositive_jobs(capsys):
    from repro.eval.cli import main

    assert main(["chaos", "--jobs", "0"]) == 2
    assert "positive worker count" in capsys.readouterr().err
    assert main(["all", "--jobs", "-3"]) == 2
    assert "positive worker count" in capsys.readouterr().err


def test_cli_experiment_sweep_prints_digest(capsys):
    from repro.eval.cli import main

    assert main(["table3", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "sweep digest:" in out
    assert "Off-the-shelf sensor classification" in out
