"""Shared pieces of the benchmark: sizing, outcomes, host probes, statistics.

Nothing here imports ``repro``; the workload modules do. Every time in this
package is host wall-clock unless a name says ``sim``: simulated statistics
(delay ms, bytes/event, digests) are correctness outputs, never metrics.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Reference-box seconds one repetition of any workload takes; ``--seconds``
#: buys ``seconds / REPETITION_S`` repetitions.
REPETITION_S = 2.4


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Sizing:
    """How much work one run does; a pure function of the CLI arguments.

    A run is ``repetitions`` identical repetitions of one fixed piece of
    work (same seed, same inputs, fresh homes each time), not a loop cut off
    by a clock: the same arguments give the same simulated work on every
    commit, so sim counts and digests compare exactly and host time is what
    moves. Repetitions exist for steadiness, see :func:`summarize`.
    ``quick`` shrinks the piece of work itself to a second or less (tests).
    """

    repetitions: int
    quick: bool = False

    @classmethod
    def for_seconds(cls, seconds: float, quick: bool = False) -> "Sizing":
        return cls(1 if quick else max(1, round(seconds / REPETITION_S)), quick)


@dataclass(frozen=True)
class Slice:
    """One timed piece of a repetition.

    ``key`` names the piece of work: slices with one key do identical work
    (the same simulated hour, figure cell or campaign cell in every
    repetition; any 500 events of a closed loop), so their times differ
    only by what the host did to them.
    """

    key: str
    wall_s: float
    cpu_s: float
    ops: float
    host_factor: float = 1.0
    """How much slower than the reference host this slice ran (see
    :func:`spin_ns`): the mean of the calibration spins around it over
    :data:`REFERENCE_SPIN_NS`."""

    p50_ms: float | None = None
    p90_ms: float | None = None
    """Latency percentiles of the slice's own operations (rt workloads),
    already on the reference host's scale."""

    paced: bool = False
    """True when a schedule, not the CPU, sets the slice's wall time (an
    open loop): its wall time is then the same on any host and is not
    scaled; its CPU time still is."""


@dataclass
class Outcome:
    """What one workload run measured."""

    repetitions: int
    setup_samples: list[float]
    slices: list[Slice]
    attempted: int
    failed: int
    region_wall_s: float = 0.0
    """Raw wall time of the last repetition's timed region."""

    exact: dict[str, Any] = field(default_factory=dict)
    """Sim counts, digests and table hashes: must repeat exactly per seed."""

    layer: dict[str, float] = field(default_factory=dict)
    """Per-layer numbers the workload took directly (not from spans)."""

    errors: list[str] = field(default_factory=list)
    """Failed correctness checks; any entry fails the command."""


def same_outputs(
    first: dict[str, Any], outputs: dict[str, Any], repetition: int, errors: list[str]
) -> dict[str, Any]:
    """The first repetition's outputs; any later one must equal them."""
    if first and outputs != first:
        errors.append(f"repetition {repetition} differs: {outputs} != {first}")
    return first or outputs


@dataclass(frozen=True)
class Summary:
    """Steady figures of one run, for one repetition of the work."""

    run_s: float
    cpu_s: float
    ops: float
    op_p50_ms: float
    op_p90_ms: float


def summarize(outcome: Outcome, *, reference_host: bool = True) -> Summary:
    """One repetition's time with every slice at its median over repetitions.

    This box's CPU speed swings by 10-30% over anything from tenths of a
    second to a minute, so the plain total of a run says little about what
    the code costs (ten identical runs: +-10%). Two corrections, both
    applied per slice:

    - each slice's time is divided by its ``host_factor`` - how slowly a
      fixed calibration loop ran right before and right after it, against
      the loop's quiet-box speed - which puts every time on the scale of
      one reference host (``reference_host=False`` skips this, for the raw
      figures printed beside the metrics);
    - slices of one key do identical work, so the median over them drops
      what the spin did not catch, and summing the medians keeps every part
      of the work in the total at its own weight (a median over unlike
      slices would not).
    """
    by_key: dict[str, list[Slice]] = {}
    for piece in outcome.slices:
        by_key.setdefault(piece.key, []).append(piece)
    reps = outcome.repetitions
    run_s = cpu_s = ops = 0.0
    per_op_ms: list[float] = []
    for pieces in by_key.values():
        per_repetition = len(pieces) / reps
        factors = [p.host_factor if reference_host else 1.0 for p in pieces]
        wall = median(p.wall_s / (1.0 if p.paced else f)
                      for p, f in zip(pieces, factors))
        run_s += wall * per_repetition
        cpu_s += median(p.cpu_s / f for p, f in zip(pieces, factors)) * per_repetition
        ops += pieces[0].ops * per_repetition
        per_op_ms.append(wall * 1e3 / pieces[0].ops)
    if outcome.slices and outcome.slices[0].p50_ms is not None:
        # Operations timed one by one: the median slice's own percentiles.
        p50 = median(p.p50_ms for p in outcome.slices)
        p90 = median(p.p90_ms for p in outcome.slices)
    else:
        # Batch work: the spread of wall ms per operation over its parts.
        p50 = percentile(per_op_ms, 0.5)
        p90 = percentile(per_op_ms, 0.9)
    return Summary(run_s, cpu_s, ops, p50, p90)


# -- statistics --------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]); nan when empty."""
    items = sorted(values)
    if not items:
        return math.nan
    pos = q * (len(items) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(items) - 1)
    return items[lo] + (items[hi] - items[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else math.nan
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stable_hash(payload: Any) -> str:
    """Short content hash of a JSON-able payload (floats via ``repr``)."""
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# -- host probes -------------------------------------------------------------------


def peak_rss_mb() -> float:
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw / 1024.0 if sys.platform != "darwin" else raw / 2**20


#: ns per step of :func:`spin_ns` on the reference box while nothing else
#: contends for its cores; times are reported on this host's scale.
REFERENCE_SPIN_NS = 700.0
SPIN_STEPS = 8_000
_PACK_TIME = struct.Struct("<d").pack


class _SpinTimer:
    """A self-re-arming callback of the calibration loop."""

    __slots__ = ("fired", "staged", "tallies")

    def __init__(self) -> None:
        self.fired = 0
        self.staged = bytearray()
        self.tallies: dict[str, list[int]] = {}

    def fire(self, heap: list, when: float, payload: tuple) -> None:
        self.fired += 1
        tally = self.tallies.get(payload[0])
        if tally is None:
            self.tallies[payload[0]] = tally = [0, 0]
        tally[0] += 1
        tally[1] += len(payload)
        self.staged += _PACK_TIME(when)
        if len(self.staged) > 4096:
            self.staged.clear()
        again = when + 0.37 + (self.fired & 15) * 0.01
        heapq.heappush(heap, (again, (self.fire, (heap, again, payload))))


def spin_ns(steps: int = SPIN_STEPS) -> float:
    """ns per step of a fixed miniature event loop, right now (~7 ms).

    The host's speed is read from work shaped like the program's own: a
    heap of timestamped callbacks that tally into a dict, stage packed
    floats in a bytearray and re-arm themselves. In ten identical fleet
    runs it tracked the simulator's slowdowns a little more closely than
    an arithmetic loop did (range of the corrected times 4% against 6%,
    raw 26%).
    """
    timer = _SpinTimer()
    heap: list = []
    for j in range(64):
        heapq.heappush(heap, (j * 0.01, (timer.fire, (heap, j * 0.01, (f"k{j & 7}", j)))))
    pop = heapq.heappop
    start = time.perf_counter_ns()
    for _ in range(steps):
        _when, (callback, args) = pop(heap)
        callback(*args)
    return (time.perf_counter_ns() - start) / steps


def calibration_ns(rounds: int = 5) -> float:
    """The host's speed for the record: best of ``rounds`` spins.

    Stored with every traced pass and every history row, so rows from
    different sessions or boxes can be read against the host at the time.
    """
    return min(spin_ns() for _ in range(rounds))


class GcMonitor:
    """Counts collections and times their pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self.pause_max_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            pause = time.perf_counter() - self._start
            self.collections += 1
            self.pause_s += pause
            if pause > self.pause_max_s:
                self.pause_max_s = pause

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


class Laps:
    """The timed region of one repetition, cut into consecutive slices.

    A calibration spin runs before the first slice and after every slice
    (outside the slices' own time), so each slice knows how fast the host
    was around it. Given a tracer, the region is instead the traced pass's
    root span - no spins, which would only add untraced time - so spans
    from set-up and from the checks after it stay out of the aggregates.
    """

    def __init__(self, tracer: Any = None) -> None:
        self._tracer = tracer
        self.slices: list[Slice] = []

    @property
    def wall_s(self) -> float:
        """Raw wall time of the region's slices."""
        return sum(piece.wall_s for piece in self.slices)

    def _spin(self) -> float:
        return spin_ns() if self._tracer is None else REFERENCE_SPIN_NS

    def __enter__(self) -> "Laps":
        self._spin_before = self._spin()
        if self._tracer is not None:
            self._tracer.start()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def mark(self, key: str, ops: float) -> None:
        """Close the slice that began at the previous mark."""
        wall = time.perf_counter()
        cpu = time.process_time()
        spin_after = self._spin()
        factor = (self._spin_before + spin_after) / 2 / REFERENCE_SPIN_NS
        self.slices.append(Slice(key, wall - self._wall, cpu - self._cpu, ops, factor))
        self._spin_before = spin_after
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        if self._tracer is not None:
            self._tracer.stop()
