"""Where did the time go: a sampling profile of one benchmark workload.

    python benchmarks/sample_profile.py paper_protocols [--quick]

Runs the workload's ``measure`` (``bench/workloads``; seed 7, three
repetitions, or one of the ``--quick`` profile) in this process under
a stdlib sampler: ``SIGPROF`` fires every millisecond of the process's CPU
time (or at the kernel's timer tick, if that is coarser) and the handler
charges the interrupted stack. Every function of the
stack gets one cumulative sample, the innermost one a self sample as well.
Functions are named ``file:qualname``, and every ``__init__`` by the class
of the instance it builds (``<string>:Event.__init__`` for a generated
dataclass ``__init__``), so per-record construction shows per class.

It prints the sample count, then the top self and cumulative shares, each
of all samples and of the workload's own: all samples but those in the
harness's calibration spins (``bench/harness.py``), which run between
timed slices. Unlike cProfile, which charges every call
and inflates call-heavy Python several times over, a sampler's cost is per
sample, so the shares keep their proportions. Only this process is
sampled: subprocess children of a workload are not.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import harness  # noqa: E402
from bench.harness import Sizing  # noqa: E402
from bench.run import WORKLOADS, load_workload  # noqa: E402

INTERVAL_S = 0.001
SEED = 7
REPETITIONS = 3
TOP = 40


class Sampler:
    """Self and cumulative sample counts by ``file:function``."""

    def __init__(self) -> None:
        self.samples = 0
        self.self_counts: Counter[str] = Counter()
        self.cumulative: Counter[str] = Counter()
        self._names: dict = {}

    def _name(self, frame) -> str:
        code = frame.f_code
        if code.co_name == "__init__" and "self" in code.co_varnames[:code.co_argcount]:
            instance = frame.f_locals.get("self")
            return f"{_short(code.co_filename)}:{type(instance).__qualname__}.__init__"
        name = self._names.get(code)
        if name is None:
            name = self._names[code] = f"{_short(code.co_filename)}:{code.co_qualname}"
        return name

    def sample(self, _signum, frame) -> None:
        names = []
        while frame is not None:
            names.append(self._name(frame))
            frame = frame.f_back
        if names:
            self.samples += 1
            self.self_counts[names[0]] += 1
            self.cumulative.update(set(names))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _short(filename: str) -> str:
    """A path relative to the repository's ``src`` or root, else its last two parts."""
    path = Path(filename)
    for base in (_ROOT / "src", _ROOT):
        if path.is_relative_to(base):
            return str(path.relative_to(base))
    return filename if filename.startswith("<") else "/".join(path.parts[-2:])


#: The harness's calibration spins, which run between timed slices.
SPINS = "bench/harness.py:spin_ns"


def report(sampler: Sampler, cpu_s: float) -> str:
    """The sample count, then each top function's share of all samples and
    of the workload's own samples (all but the calibration spins)."""
    total = sampler.samples or 1
    own = max(1, sampler.samples - sampler.cumulative[SPINS])
    lines = [f"samples {sampler.samples} over {cpu_s:.2f} s of CPU time "
             f"(one per {1e3 * cpu_s / total:.2f} ms); calibration spins "
             f"{100.0 * sampler.cumulative[SPINS] / total:.1f} %"]
    for title, counts in (("self", sampler.self_counts), ("cumulative", sampler.cumulative)):
        lines.append(f"\n{title} share (of all samples, of the workload's own), top {TOP}:")
        for name, count in counts.most_common(TOP):
            lines.append(f"  {100.0 * count / total:6.2f} %  {100.0 * count / own:6.2f} %"
                         f"  {count:7d}  {name}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/sample_profile.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--quick", action="store_true",
                        help="the workload's seconds-sized profile (as bench/run.py --quick)")
    args = parser.parse_args(argv)

    measure = load_workload(args.workload)
    sizing = Sizing(repetitions=1 if args.quick else REPETITIONS, quick=args.quick)
    started = time.process_time()
    with Sampler() as sampler:
        outcome = measure(SEED, sizing, scratch_dir=harness.OUT_DIR / "tmp")
    cpu_s = time.process_time() - started
    print(f"workload={args.workload} seed={SEED} quick={args.quick} "
          f"repetitions={sizing.repetitions}")
    print(report(sampler, cpu_s))
    for error in outcome.errors:
        print(f"check failed: {error}")
    return 1 if outcome.errors or outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main())
