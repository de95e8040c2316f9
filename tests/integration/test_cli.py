"""The CLI surface: one parser per subcommand, and no option silently ignored.

Every (subcommand, option) pair the real parser accepts is driven with a
non-default value, and the entry point it names must receive that value;
every usage error exits 2 before any entry point (hence any cell) runs.
"""

import argparse
import inspect
import json

import pytest

import repro.eval.chaos as chaos
import repro.eval.experiments as experiments
import repro.eval.figures as figures
import repro.eval.fleet as fleet
import repro.eval.rt as rt
from repro.eval.cli import build_parser, main
from repro.eval.experiments import EXPERIMENTS, ExperimentTable

CHECKPOINTED = ("--checkpoint-every", "--snapshot", "--resume")

# option -> (value on the command line, parameter of the entry point, what
# that parameter must hold). Values are never the option's default.
ARRIVES = {
    "--seeds": ("7", "seeds", (7,)),
    "--seed": ("7", "seed", 7),
    "--duration": ("3", "duration", 3.0),
    "--days": ("2", "days", 2.0),
    "--jobs": ("3", "jobs", 3),
    "--out": ("x.json", "out_path", "x.json"),
    "--no-cache": (None, "cache", None),
    "--cache-dir": ("elsewhere", "cache", "elsewhere"),
    "--homes": ("3", "n_homes", 3),
    "--shards": ("2", "shards", 2),
    "--checkpoint-every": ("2", "every", 2),
    "--snapshot": ("s.pkl", "snapshot", "s.pkl"),
    "--resume": ("r.pkl", "resume", "r.pkl"),
    "--horizon": ("7", "horizon", 7.0),
    "--intensities": ("severe", "intensities", ("severe",)),
    "--profile": ("mild", "intensities", ("mild",)),
    "--modes": ("gap", "modes", ("gap",)),
    "--report": ("report.json", "report", {"runs": "marker"}),
    "--scenario": ("parity4", "scenario_name", "parity4"),
    "--rt-mode": ("in-process", "mode", "in-process"),
    "--chart": (None, "chart", True),
}
SURFACE_ARRIVES = {  # where a surface reads an option another way
    ("chaos", "--seeds"): ("7", "seeds", list(range(7))),
    ("fleet", "--snapshot"): ("s.pkl --checkpoint-every 1", "snapshot", "s.pkl"),
}


def _surfaces() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    [subparsers] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def _pairs() -> list[tuple[str, str]]:
    return [
        (name, action.option_strings[0])
        for name, sub in _surfaces().items()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    ]


class EntryPoints:
    """Every entry point the CLI calls, replaced by a recorder."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, dict]] = []
        table = ExperimentTable("fig1", "t", []).to_dict()
        results = {
            (experiments, "run_experiment_sweep"): {
                "cells": [{"cell_id": "c", "table": table}],
                "summary": {"total": 1, "errors": 0}, "digest": "d",
            },
            (chaos, "run_campaign"): {"summary": {"failures": 0}},
            (chaos, "replay_run"): {
                "run_id": "r", "source": "s", "fault_actions": 0,
                "verdict": "pass", "recorded_verdict": "pass", "violations": [],
            },
            (fleet, "run_fleet_sweep"): {"summary": {"errors": 0}},
            (fleet, "run_fleet_checkpointed"): {"summary": {"errors": 0}},
            (rt, "run_rt_report"): {"ok": True},
        }
        for (module, name), result in results.items():
            monkeypatch.setattr(module, name, self._recorder(module, name, result))
        for module, name in ((chaos, "render_campaign_summary"),
                             (fleet, "render_fleet_summary"),
                             (rt, "render_rt_summary")):
            monkeypatch.setattr(module, name, lambda report: "summary")
        monkeypatch.setattr(figures, "chart_for", self._chart)

    def _recorder(self, module, name, result):
        signature = inspect.signature(getattr(module, name))

        def record(*args, **kwargs):
            self.calls.append((name, signature.bind(*args, **kwargs).arguments))
            return result
        return record

    def _chart(self, table):
        self.calls.append(("chart_for", {"chart": True}))
        return "chart"


@pytest.mark.parametrize("surface, option", _pairs(), ids=" ".join)
def test_no_option_is_silently_ignored(surface, option, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").write_text(json.dumps({"runs": "marker"}))
    value, parameter, expected = SURFACE_ARRIVES.get(
        (surface, option), ARRIVES[option],
    )
    argv = [surface, *(["r-s1"] if surface == "replay" else []), option]
    argv += value.split() if value else []
    entry = EntryPoints(monkeypatch)

    assert main(argv) == 0, argv
    received = {key: value for _, arguments in entry.calls
                for key, value in arguments.items()}
    if option == "--cache-dir":
        received[parameter] = str(received[parameter].root)
    if option in CHECKPOINTED:
        assert entry.calls[0][0] == "run_fleet_checkpointed"
    assert received[parameter] == expected, (argv, entry.calls)


@pytest.mark.parametrize("name", [
    name for name, sub in _surfaces().items()
    if name in EXPERIMENTS and "--seeds" in sub._option_string_actions
])
def test_every_figure_runs_the_seed_it_is_given(name, monkeypatch):
    specs = []

    def cell(spec):
        specs.append(spec)
        table = ExperimentTable(name, "t", []).to_dict()
        return {"cell_id": spec["cell_id"], "table": table}

    monkeypatch.setattr(experiments, "run_experiment_cell", cell)
    assert main([name, "--seeds", "7", "--no-cache"]) == 0
    [spec] = specs
    assert spec["kwargs"].get("seed") == 7 or spec["kwargs"].get("seeds") == [7]


def _nonpositive_cases():
    for surface, option in _pairs():
        if option in ("--duration", "--horizon", "--days"):
            yield [surface, option, "0"]
            yield [surface, option, "-5"]


@pytest.mark.parametrize("argv", [
    ["chaos", "--seeds", "0"],
    ["chaos", "--seeds", "-2"],
    ["chaos", "--seeds", "x"],
    ["fleet", "--days", "0.5"],
    # flags the subcommand does not read
    ["fig5", "--homes", "3"],
    ["chaos", "--chart"],
    ["fig6", "--seed", "7"],
    ["fleet", "--modes", "gapless"],
    ["rt", "--jobs", "2"],
    ["table3", "--homes", "3", "--horizon", "5", "--scenario", "x"],
    ["table3", "--seeds", "1"],
    ["replay", "device-s3", "--seeds", "3"],
    ["replay", "device-s3", "--report", "no/such/report.json"],
    # flags the chosen fleet path does not read
    ["fleet", "--checkpoint-every", "1", "--shards", "2"],
    ["fleet", "--checkpoint-every", "1", "--jobs", "2"],
    ["fleet", "--resume", "X", "--homes", "3"],
    ["fleet", "--resume", "X", "--seed", "3"],
    ["fleet", "--snapshot", "s.pkl"],
    *_nonpositive_cases(),
], ids=" ".join)
def test_usage_errors_exit_2_before_anything_runs(argv, monkeypatch, capsys):
    entry = EntryPoints(monkeypatch)
    assert main(argv) == 2
    assert entry.calls == []
    assert "error:" in capsys.readouterr().err
