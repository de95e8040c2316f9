"""Self-tests of the benchmark (not collected by tier-1).

    PYTHONPATH=src python -m pytest bench/tests -q

Every workload runs in its ``--quick`` profile, each run in a fresh
interpreter exactly as the suite does it.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare, harness, suite  # noqa: E402
from bench.run import WORKLOADS  # noqa: E402

SPEC = harness.load_spec()
SIM_WORKLOADS = ("fleet_quiet", "paper_protocols", "chaos_cells")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 11


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {w: suite.run_once(w, SEED, 10.0, 0, quick=True) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: suite.run_once(w, SEED, 10.0, 1, quick=True) for w in WORKLOADS}


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert 1 <= len(SPEC["per_layer"]) <= 128 and 1 <= SPEC["run_seconds"] <= 60


def _assert_metrics(run: dict, wanted: list[dict]) -> dict[str, float]:
    assert run["returncode"] == 0, run["stdout"][-2000:] + run["stderr"][-2000:]
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]
        # ... and every metric is printed by name with its unit.
        assert f"metric {metric['name']} " in run["stdout"]
    return {name: got["value"] for name, got in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_finite_and_never_zero(untraced, workload):
    values = _assert_metrics(untraced[workload], SPEC["end_to_end"])
    assert all(value > 0 for value in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace_file(traced, workload):
    values = _assert_metrics(traced[workload], SPEC["per_layer"])
    assert values["trace.closure_residual"] <= 0.05
    assert values["trace.overhead_ratio"] > 0
    assert values["host.calibration_ns"] > 0
    with open(harness.OUT_DIR / f"trace-{workload}.json", encoding="utf-8") as fh:
        document = json.load(fh)
    assert document["workload"] == workload
    assert 0 < len(document["raw_spans"]) <= 10_000
    assert document["aggregates"][0]["self_ns"] > 0
    # Every value the code computes has a row in BENCHMARK.json.
    assert set(document["metrics"]) <= set(values)


def test_every_per_layer_metric_is_measured_by_some_workload(traced):
    measured: set[str] = set()
    for workload in WORKLOADS:
        with open(harness.OUT_DIR / f"trace-{workload}.json", encoding="utf-8") as fh:
            measured |= set(json.load(fh)["metrics"])
    assert {m["name"] for m in SPEC["per_layer"]} == measured


def test_rt_layers_report_the_split(traced):
    closed = {n: m["value"] for n, m in traced["rt_closed"]["result"]["metrics"].items()}
    assert closed["rt.proxy.forwarded"] > 0 and "rt.proxy.hop_us" in closed
    assert closed["rt.child.journal_us_per_record"] > 0
    assert closed["rt.wire.encode_us"] > 0 and closed["rt.wire.decode_us"] > 0
    hops = sum(closed[f"rt.hop.{hop}_ms"] for hop in
               ("emit_to_ingest", "ingest_to_logic", "logic_to_actuation"))
    assert hops > 0 and abs(closed["rt.hop.residual_ms"]) < 0.2 * hops


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_sim_outputs_repeat_exactly(untraced, traced, workload):
    again = suite.run_once(workload, SEED, 10.0, 0, quick=True)
    assert again["exact"] == untraced[workload]["exact"]
    # Tracing must not change what the program computes.
    assert traced[workload]["exact"] == untraced[workload]["exact"]


@pytest.mark.parametrize("workload", ("paper_protocols", "rt_closed", "rt_open"))
def test_injected_fault_fails_the_command(workload):
    run = suite.run_once(workload, SEED, 10.0, 0, quick=True, inject_fault=True)
    assert run["returncode"] != 0
    assert run["result"]["failed"] > 0 and run["result"]["correct"] is False


def test_suite_mode_and_compare(tmp_path):
    out = tmp_path / "a.json"
    done = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--quick", "--repeats", "2",
         "--workloads", "chaos_cells", "--seed", str(SEED), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "suite: ok" in done.stdout and "ops_per_s" in done.stdout
    with open(out, encoding="utf-8") as fh:
        document = json.load(fh)
    assert len(document["samples"]["chaos_cells"]["run_s"]) == 2
    assert compare.main([str(out), str(out)]) == 0


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]
    faster = [value * 0.8 for value in base]
    slower = [value * 1.2 for value in base]
    noisy = [8.0, 12.0, 9.0, 11.0, 7.5, 12.5, 10.0, 10.0, 8.5, 11.5]
    assert compare.judge(base, faster, "lower", 0.08)["verdict"] == "improved"
    assert compare.judge(base[:5], faster[:5], "lower", 0.08)["verdict"] == "unresolved"
    assert compare.judge(base, slower, "lower", 0.08)["verdict"] == "regressed"
    assert compare.judge(base, faster, "higher", 0.08)["verdict"] == "regressed"
    assert compare.judge(base, list(reversed(base)), "lower", 0.08)["verdict"] == "unchanged"
    assert compare.judge(noisy, list(reversed(noisy)), "lower", 0.08)["verdict"] == "unresolved"
