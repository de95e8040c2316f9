"""The CI perf/memory guard: quick-suite medians against ``perf_floors.json``.

    python bench/run.py --quick --repeats 2 --out bench-smoke.json
    python benchmarks/check_floors.py bench-smoke.json
"""

import json
import statistics
import sys
from pathlib import Path


def main(suite_path: str) -> int:
    pinned = json.loads((Path(__file__).parent / "perf_floors.json").read_text())
    samples = json.loads(Path(suite_path).read_text())["samples"]
    breaches = 0
    for section, word, sign in (("floors", "floor", -1), ("ceilings", "ceiling", 1)):
        for key, reference in pinned[section].items():
            workload, metric = key.split(".")
            got = statistics.median(samples[workload][metric])
            limit = reference * (1 + sign * pinned["tolerance"])
            breached = (got - limit) * sign > 0
            print(f"{workload} {metric}: {got:,.1f} ({word} {limit:,.1f})"
                  + ("  <-- BREACH" if breached else ""))
            breaches += breached
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
