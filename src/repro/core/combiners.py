"""Combiners: aligning triggered windows from multiple input streams.

Section 6.1: "Rivulet allows programmers to specify how triggered windows
from different input streams get combined together before being delivered to
the operator. ... Rivulet also provides a specific implementation called
FTCombiner that allows applications to easily specify their fault tolerance
assumptions, and remains available in case some input streams from some
sensors become unavailable."

A combiner collects the triggered windows of one *round* and decides when
the operator sees them:

- :class:`PassThroughCombiner` — no alignment; each triggered window is
  delivered on its own (single-input operators).
- :class:`AllStreamsCombiner` — waits for every stream; a failed sensor
  stalls the operator (this is the strawman FTCombiner improves on).
- :class:`FTCombiner(f)` — delivers as soon as all streams have triggered,
  or when the round's grace period expires with at least ``n - f`` streams
  present; with more than ``f`` streams missing it reports a fault-tolerance
  violation instead of silently stalling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.events import slot_setters
from repro.core.windows import TriggeredWindow


@dataclass(frozen=True, slots=True)
class CombinedWindows:
    """What an operator receives: the round's triggered windows by stream."""

    windows: dict[str, TriggeredWindow]
    fired_at: float
    missing: frozenset[str] = frozenset()

    def __init__(self, windows: dict[str, TriggeredWindow], fired_at: float,
                 missing: frozenset[str] = frozenset()) -> None:
        a, b, c = _COMBINED_SLOTS
        a(self, windows)
        b(self, fired_at)
        c(self, missing)

    def __getitem__(self, stream: str) -> TriggeredWindow:
        return self.windows[stream]

    def __contains__(self, stream: str) -> bool:
        return stream in self.windows

    @property
    def streams(self) -> list[str]:
        return sorted(self.windows)

    def all_events(self) -> list:
        events: list = []
        for stream in self.streams:
            events.extend(self.windows[stream].events)
        events.sort(key=lambda e: (e.emitted_at, e.sensor_id, e.seq))
        return events

    def all_values(self) -> list:
        return [e.value for e in self.all_events()]


_COMBINED_SLOTS = slot_setters(CombinedWindows)


class CombinerViolation(RuntimeError):
    """More input streams are unavailable than the combiner tolerates."""

    def __init__(self, operator: str, missing: frozenset, tolerated: int) -> None:
        self.operator = operator
        self.missing = missing
        self.tolerated = tolerated
        super().__init__(
            f"operator {operator!r}: {len(missing)} stream(s) unavailable "
            f"({sorted(missing)}), tolerates {tolerated}"
        )


class Combiner:
    """Base combiner. Subclasses override :meth:`offer` and :meth:`deadline`.

    Protocol: the operator runtime calls :meth:`offer` whenever one input
    stream triggers; a non-None return is delivered to the operator. When
    the first window of a round arrives, the runtime arms a timer for
    :meth:`grace` seconds and calls :meth:`flush` when it fires.
    """

    def __init__(self) -> None:
        self.streams: frozenset[str] = frozenset()
        self.operator_name = "?"

    def bind(self, operator_name: str, streams: frozenset[str]) -> None:
        self.operator_name = operator_name
        self.streams = streams

    def clone(self) -> "Combiner":
        """A fresh instance with the same configuration and no round state.

        Operators (and hence their combiners) are deployed to every process;
        each activation of a logic node must run on its own combiner state,
        so the runtime clones rather than shares.
        """
        raise NotImplementedError

    def offer(self, window: TriggeredWindow) -> CombinedWindows | None:
        raise NotImplementedError

    def flush(self, now: float) -> CombinedWindows | None:
        """Round deadline reached; deliver what is available (or not)."""
        return None

    @property
    def grace(self) -> float | None:
        """Round alignment deadline in seconds; None disables the timer."""
        return None


class PassThroughCombiner(Combiner):
    """Deliver every triggered window immediately, alone in its round."""

    def clone(self) -> "PassThroughCombiner":
        return PassThroughCombiner()

    def offer(self, window: TriggeredWindow) -> CombinedWindows | None:
        return CombinedWindows({window.stream: window}, window.fired_at)


@dataclass
class _Round:
    windows: dict[str, TriggeredWindow] = field(default_factory=dict)
    open: bool = False


class AllStreamsCombiner(Combiner):
    """Deliver only when every input stream has triggered once."""

    def __init__(self) -> None:
        super().__init__()
        self._round = _Round()

    def clone(self) -> "AllStreamsCombiner":
        return AllStreamsCombiner()

    def offer(self, window: TriggeredWindow) -> CombinedWindows | None:
        self._round.windows[window.stream] = window
        self._round.open = True
        if set(self._round.windows) >= set(self.streams):
            combined = CombinedWindows(dict(self._round.windows), window.fired_at)
            self._round = _Round()
            return combined
        return None


class FTCombiner(Combiner):
    """The paper's fault-tolerant combiner.

    ``tolerated_failures`` is the number of *sensor/stream* failures the
    operator is declared to survive (Listing 1 uses ``n - 1`` for door
    sensors; Listing 2 uses ``floor((n-1)/3)`` for Byzantine-tolerant
    temperature averaging).

    ``grace_s`` bounds staleness: a round stays open at most this long after
    its first window before being delivered (or declared violated). This is
    the programming-model feature (ii) of Section 6 — "a programmer
    specifies an upper bound on the event staleness that the application can
    tolerate, and Rivulet ensures this bound".
    """

    def __init__(
        self,
        tolerated_failures: int,
        *,
        grace_s: float = 1.0,
        on_violation: Callable[[CombinerViolation], None] | None = None,
    ) -> None:
        super().__init__()
        if tolerated_failures < 0:
            raise ValueError(
                f"tolerated_failures must be >= 0, got {tolerated_failures}"
            )
        if grace_s <= 0:
            raise ValueError(f"grace_s must be positive, got {grace_s}")
        self.tolerated_failures = tolerated_failures
        self.grace_s = grace_s
        self.on_violation = on_violation
        self._round = _Round()
        self.violations: list[CombinerViolation] = []

    def clone(self) -> "FTCombiner":
        return FTCombiner(
            self.tolerated_failures,
            grace_s=self.grace_s,
            on_violation=self.on_violation,
        )

    @property
    def grace(self) -> float | None:
        return self.grace_s

    def offer(self, window: TriggeredWindow) -> CombinedWindows | None:
        self._round.windows[window.stream] = window
        self._round.open = True
        if set(self._round.windows) >= set(self.streams):
            return self._deliver(window.fired_at)
        return None

    def flush(self, now: float) -> CombinedWindows | None:
        if not self._round.open:
            return None
        present = set(self._round.windows)
        missing = frozenset(set(self.streams) - present)
        if len(present) >= len(self.streams) - self.tolerated_failures:
            return self._deliver(now, missing=missing)
        violation = CombinerViolation(
            self.operator_name, missing, self.tolerated_failures
        )
        self.violations.append(violation)
        self._round = _Round()
        if self.on_violation is not None:
            self.on_violation(violation)
        return None

    def _deliver(
        self, fired_at: float, missing: frozenset = frozenset()
    ) -> CombinedWindows:
        combined = CombinedWindows(dict(self._round.windows), fired_at, missing)
        self._round = _Round()
        return combined
