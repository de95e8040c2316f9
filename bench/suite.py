"""Suite mode: every workload, several repeats, one fresh interpreter per run.

Runs are strictly sequential (the box has two cores: one benchmark process,
one thread, never two runs at once), so ``peak_rss_mb`` and GC state belong
to one run. Every repeat of a workload uses the same seed: their digests,
sim counts and table hashes must then be identical, which is checked here.
The reported value of a metric is the median over repeats.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
from typing import Any

from bench import harness

RUN_PY = harness.BENCH_DIR / "run.py"
HISTORY_PATH = harness.OUT_DIR / "history.jsonl"
#: Generous per-run cap; a healthy run takes well under a minute.
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int,
             quick: bool = False, inject_fault: bool = False) -> dict[str, Any]:
    """One ``run.py`` invocation in a fresh interpreter, parsed."""
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    if inject_fault:
        command.append("--inject-fault")
    done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    parsed: dict[str, Any] = {"returncode": done.returncode, "stdout": done.stdout,
                              "stderr": done.stderr, "result": None, "exact": None}
    if lines and lines[-1].startswith("{"):
        parsed["result"] = json.loads(lines[-1])
    for line in lines:
        if line.startswith("exact "):
            parsed["exact"] = json.loads(line[len("exact "):])
    parsed["checks"] = [line for line in lines if line.startswith("check failed")]
    return parsed


def _failure(run: dict[str, Any]) -> str | None:
    """Why a run does not count, or None when it is good."""
    result = run["result"]
    if run["returncode"] == 0 and result is not None and result["correct"]:
        return None
    return f"exit {run['returncode']} {run['checks'] or run['stderr'][-400:]}"


def _git_rev() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=harness.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':38s} {'unit':>8s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, unit, values in rows:
        q1, q2, q3 = harness.quartiles(values)
        print(f"  {name:38s} {unit:>8s} {q2:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}")


def run_suite(args) -> int:
    spec = harness.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in workloads if w not in known]
    if unknown or args.repeats < 1:
        print(f"error: unknown workloads {unknown} or repeats < 1", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    problems: list[str] = []
    samples: dict[str, dict[str, list[float]]] = {}
    exact: dict[str, Any] = {}
    layers: dict[str, dict[str, float]] = {}
    failed_fraction: dict[str, float] = {}
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        for repeat in range(args.repeats):
            run = run_once(workload, args.seed, args.seconds, 0, args.quick)
            result = run["result"]
            if _failure(run):
                problems.append(f"{workload} repeat {repeat}: {_failure(run)}")
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            failed_fraction[workload] = max(
                failed_fraction.get(workload, 0.0),
                result["failed"] / result["attempted"])
            if workload not in exact:
                exact[workload] = run["exact"]
            elif exact[workload] != run["exact"]:
                problems.append(
                    f"{workload} repeat {repeat}: outputs differ across repeats of "
                    f"seed {args.seed}: {exact[workload]} != {run['exact']}")
        samples[workload] = per_metric
        _print_table(
            f"{workload}  seed={args.seed}  failed_fraction={failed_fraction.get(workload)}",
            [(name, units[name], values) for name, values in per_metric.items()])
        print(f"  exact {json.dumps(exact.get(workload), sort_keys=True)}")

        if args.traced:
            run = run_once(workload, args.seed, args.seconds, 1, args.quick)
            result = run["result"]
            if _failure(run):
                problems.append(f"{workload} traced: {_failure(run)}")
            if result is not None:
                layers[workload] = {
                    name: metric["value"] for name, metric in result["metrics"].items()}
                _print_table(
                    f"{workload}  per layer (one traced pass)",
                    [(name, units[name], [value])
                     for name, value in layers[workload].items() if value])

    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "quick": args.quick,
        "host.calibration_ns": harness.calibration_ns(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "samples": samples, "exact": exact,
                       "layers": layers, "failed_fraction": failed_fraction,
                       "problems": problems}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    row = dict(meta)
    row["medians"] = {
        workload: {name: harness.median(values) for name, values in per_metric.items()}
        for workload, per_metric in samples.items()
    }
    if not args.quick:
        # The trajectory: one row per full invocation (quick rows would not
        # be comparable with them).
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(HISTORY_PATH, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"\nhost.calibration_ns {meta['host.calibration_ns']:.3f}  "
          f"git {meta['git_rev']}  python {meta['python']}  nproc {meta['nproc']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("suite: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
