"""Compare two suite outputs: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent (or the first of two sets of one commit), ``B`` the
change. One row per (workload, end-to-end metric), judged by the rule of
the choosing-metrics guide (sections 6 and 8):

- **improved** — at least ten pairs were run (the i-th run of each side),
  ``B`` wins at least nine tenths of them (ties count for neither) *and* the
  medians differ by more than the parent's own inter-quartile spread;
- **regressed** — ``B``'s median is worse than ``A``'s by more than the
  metric's bound from ``BENCHMARK.json``;
- **unresolved** — neither, but the parent's spread is wider than the bound,
  so "no worse than the bound" cannot be shown (unless every run of ``B``
  reads better than every run of ``A``); or it would be an improvement but
  for fewer than ten pairs;
- **unchanged** — otherwise.

Then one exact-equality row per sim count, digest and table hash. Exit
status is 1 when any row regressed or any exact output differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench import harness  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS_FOR_A_GAIN = 10


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict and its evidence for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_a, q3 = harness.quartiles(a)
    median_b = harness.median(b)
    spread = q3 - q1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    ties = sum(1 for x, y in pairs if x == y)
    decided = len(pairs) - ties
    win_share = wins / decided if decided else 0.0
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    gain = win_share >= WIN_SHARE and worse_by < 0 and abs(median_b - median_a) > spread
    if gain and len(pairs) >= MIN_PAIRS_FOR_A_GAIN:
        verdict = "improved"
    elif gain:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif median_a and spread / abs(median_a) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "median_a": median_a, "median_b": median_b,
            "worse_by": worse_by, "spread": spread / abs(median_a) if median_a else 0.0,
            "pairs": len(pairs), "win_share": win_share}


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], list[tuple]]:
    metric_rows: list[tuple] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            xs = a["samples"].get(name, {}).get(metric["name"])
            ys = b["samples"].get(name, {}).get(metric["name"])
            if xs and ys:
                metric_rows.append((name, metric["name"], metric["unit"], judge(
                    xs, ys, metric["better"], metric["bound"])))
    exact_rows: list[tuple] = []
    same_inputs = all(a["meta"][k] == b["meta"][k] for k in ("seed", "seconds", "quick"))
    for name in sorted(set(a["exact"]) & set(b["exact"])):
        for key in sorted(set(a["exact"][name] or {}) | set(b["exact"][name] or {})):
            left = (a["exact"][name] or {}).get(key)
            right = (b["exact"][name] or {}).get(key)
            verdict = ("skipped (seed or size differs)" if not same_inputs
                       else "equal" if left == right else "DIFFERENT")
            exact_rows.append((name, key, left, right, verdict))
    return metric_rows, exact_rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="parent suite output (run.py --out)")
    parser.add_argument("b", help="change suite output")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    metric_rows, exact_rows = compare(a, b, harness.load_spec())

    print(f"A: {args.a}  git {a['meta']['git_rev']}  "
          f"calibration {a['meta']['host.calibration_ns']:.2f} ns")
    print(f"B: {args.b}  git {b['meta']['git_rev']}  "
          f"calibration {b['meta']['host.calibration_ns']:.2f} ns")
    print(f"{'workload':16s} {'metric':14s} {'unit':>5s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'A spread':>9s} {'pairs':>5s} {'B wins':>6s}  verdict")
    for workload, metric, unit, row in metric_rows:
        print(f"{workload:16s} {metric:14s} {unit:>5s} {row['median_a']:12.5g} "
              f"{row['median_b']:12.5g} {row['worse_by']:+10.2%} {row['spread']:9.2%} "
              f"{row['pairs']:5d} {row['win_share']:6.0%}  {row['verdict']}")
    print()
    for workload, key, left, right, verdict in exact_rows:
        detail = f"{left}" if left == right else f"{left} != {right}"
        print(f"{workload:16s} {key:20s} {verdict:10s} {detail}")
    tally: dict[str, int] = {}
    for _, _, _, row in metric_rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    different = sum(1 for row in exact_rows if row[4] == "DIFFERENT")
    print(f"\n{tally}  exact outputs different: {different}")
    return 1 if tally.get("regressed") or different else 0


if __name__ == "__main__":
    sys.exit(main())
