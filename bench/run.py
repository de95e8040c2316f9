"""The benchmark's command.

One run of one workload (what ``BENCHMARK.json``'s ``command`` drives)::

    python3 bench/run.py --workload fleet_quiet --seed 7 --seconds 10 --trace 0

prints every metric by name and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` runs one
repetition of the work twice - plain, then under spans - reports the
per-layer metrics and writes ``bench/out/trace-<workload>.json``.

Without ``--workload`` it runs the whole suite, each (workload, repeat) in
a fresh interpreter, one at a time (see :mod:`bench.suite`)::

    python3 bench/run.py [--seed N] [--repeats K] [--workloads a,b] [--traced] [--out FILE]

Exit status is non-zero when any correctness check fails or any operation
failed, and when the program under test cannot be imported.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import harness  # noqa: E402
from bench.harness import Outcome, Sizing  # noqa: E402

WORKLOADS = ("fleet_quiet", "paper_protocols", "chaos_cells", "rt_closed", "rt_open")


def load_workload(name: str):
    """``measure(seed, sizing, **options) -> Outcome`` of the named workload.

    Importing it imports the program under test; the time that takes is
    part of ``setup_s`` (fresh interpreter to ready-to-run).
    """
    if name.startswith("rt_"):
        from bench.workloads import rt

        mode = name.removeprefix("rt_")
        return lambda seed, sizing, **options: rt.measure(mode, seed, sizing, **options)
    import importlib

    return importlib.import_module(f"bench.workloads.{name}").measure


def end_to_end_values(outcome: Outcome, import_s: float) -> dict[str, float]:
    steady = harness.summarize(outcome)
    return {
        "setup_s": import_s + harness.median(outcome.setup_samples),
        "run_s": steady.run_s,
        "ops_per_s": steady.ops / steady.run_s,
        "op_p50_ms": steady.op_p50_ms,
        "op_p90_ms": steady.op_p90_ms,
        "cpu_ms_per_op": steady.cpu_s * 1e3 / steady.ops,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def run_untraced(args: argparse.Namespace) -> tuple[dict[str, float], Outcome]:
    measure = load_workload(args.workload)
    import_s = time.perf_counter() - _PROCESS_START
    sizing = Sizing.for_seconds(args.seconds, quick=args.quick)
    outcome = measure(args.seed, sizing, fault=args.inject_fault,
                      scratch_dir=harness.OUT_DIR / "tmp")
    return end_to_end_values(outcome, import_s), outcome


def run_traced(args: argparse.Namespace) -> tuple[dict[str, float], Outcome]:
    from bench import layers, tracer as tracing

    measure = load_workload(args.workload)
    sizing = Sizing(repetitions=1, quick=args.quick)
    scratch = harness.OUT_DIR / "tmp"
    calibration = harness.calibration_ns()
    with harness.GcMonitor() as gc_monitor:
        plain = measure(args.seed, sizing, probes=True, fault=args.inject_fault,
                        scratch_dir=scratch)
    direct = None
    if args.workload == "rt_closed":
        direct = measure(args.seed, sizing, use_proxy=False, scratch_dir=scratch)

    tracer = tracing.Tracer(run_id=f"{args.workload}-s{args.seed}")
    tracing.install(tracer)
    traced = measure(args.seed, sizing, tracer=tracer, scratch_dir=scratch)

    values = layers.per_layer_values(plain, traced, tracer, gc_monitor,
                                     calibration, direct)
    if traced.exact != plain.exact:
        plain.errors.append(
            f"tracing changed the outputs: {plain.exact} != {traced.exact}")
    plain.errors.extend(f"traced pass: {error}" for error in traced.errors)
    if direct is not None:
        plain.errors.extend(f"direct pass: {error}" for error in direct.errors)
    tracer.write(
        harness.OUT_DIR / f"trace-{args.workload}.json", workload=args.workload,
        extra={"seed": args.seed, "traced_wall_s": traced.region_wall_s,
               "plain_wall_s": plain.region_wall_s, "metrics": values},
    )
    return values, plain


def run_one(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"error: cannot import the program under test from "
              f"{_ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values, outcome = run_traced(args)
        wanted = spec["per_layer"]
    else:
        values, outcome = run_untraced(args)
        wanted = spec["end_to_end"]

    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in wanted
    }
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={outcome.repetitions} "
          f"slices={len(outcome.slices)}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        raw = harness.summarize(outcome, reference_host=False)
        factor = harness.median(piece.host_factor for piece in outcome.slices)
        print(f"raw run_s {raw.run_s!r} s  ops_per_s {raw.ops / raw.run_s!r} 1/s  "
              f"host_factor {factor!r} (median over slices; times above are "
              f"on the reference host's scale)")
    for error in outcome.errors:
        print(f"check failed: {error}")
    print("exact " + json.dumps(outcome.exact, sort_keys=True, default=repr))
    correct = not outcome.errors and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-sized profile of every workload (tests)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: drop one rt event / corrupt one figure row")
    suite = parser.add_argument_group("suite mode (no --workload)")
    suite.add_argument("--repeats", type=int, default=5)
    suite.add_argument("--workloads", default=",".join(WORKLOADS))
    suite.add_argument("--traced", action="store_true",
                       help="also run each workload once with --trace 1")
    suite.add_argument("--out", default=None, help="write every sample as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(harness.load_spec()["run_seconds"])
    if args.workload is not None:
        return run_one(args)
    from bench import suite as suite_mode

    return suite_mode.run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
