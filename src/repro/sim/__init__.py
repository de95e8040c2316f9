"""Deterministic discrete-event simulation kernel.

Everything in the simulator derives from a single seed; two runs with the
same seed and parameters produce bit-identical traces. The kernel is
deliberately tiny: a time-ordered callback scheduler (:mod:`.scheduler`),
per-process local clocks with optional skew (:mod:`.clock`), named
reproducible random streams (:mod:`.random`), a structured trace recorder
(:mod:`.tracing`) and a fault-injection plan (:mod:`.faults`). Many homes
interleave in one scheduler as a :class:`repro.core.fleet.Fleet`.
"""

from repro.sim.clock import LocalClock
from repro.sim.random import RandomSource, derive_seed
from repro.sim.scheduler import Scheduler, TimerHandle
from repro.sim.tracing import Trace, TraceEvent

__all__ = [
    "LocalClock",
    "RandomSource",
    "Scheduler",
    "TimerHandle",
    "Trace",
    "TraceEvent",
    "derive_seed",
]
