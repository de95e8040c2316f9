"""Metrics as pure functions over the simulation trace.

The paper's Section 8 metrics:

- **delay** — "the difference between the time an event is emitted by a
  sensor and the time it is received by an active logic node";
- **network overhead** — "the amount of data transferred over the home
  network for delivering an event";
- **delivered fraction** — percentage of emitted events reaching the app;
- **poll overhead** — poll requests issued per epoch, normalized to the
  optimal one-per-epoch.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Iterable

from repro.sim.tracing import Trace

EVENT_CARRYING_KINDS = frozenset({"gapless_fwd", "gap_fwd", "nbcast", "rbcast"})


def mean(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        return math.nan
    return sum(items) / len(items)


def percentile(values: Iterable[float], q: float) -> float:
    items = sorted(values)
    if not items:
        return math.nan
    index = min(len(items) - 1, max(0, int(round(q * (len(items) - 1)))))
    return items[index]


# -- delay -----------------------------------------------------------------------------


def delivery_delays(trace: Trace, *, app: str | None = None) -> list[float]:
    """Per-event sensor-to-active-logic delays, in seconds."""
    return [
        event["delay"]
        for event in trace.all_of_kind("logic_delivery")
        if app is None or event["app"] == app
    ]


def mean_delay_ms(trace: Trace, *, app: str | None = None) -> float:
    return mean(delivery_delays(trace, app=app)) * 1000.0


# -- network overhead ----------------------------------------------------------------------


def event_bytes_sent(trace: Trace, kinds: frozenset[str] = EVENT_CARRYING_KINDS) -> int:
    """Wire bytes of event-carrying messages on the home network.

    Read from the trace's per-message-kind tallies, which count every
    ``net_send`` whether or not the record itself was kept.
    """
    return sum(trace.tally("net_send", kind)[1] for kind in kinds)


def event_messages_sent(trace: Trace, kinds: frozenset[str] = EVENT_CARRYING_KINDS) -> int:
    return sum(trace.tally("net_send", kind)[0] for kind in kinds)


def bytes_per_event(trace: Trace, events_emitted: int) -> float:
    if events_emitted == 0:
        return math.nan
    return event_bytes_sent(trace) / events_emitted


# -- delivery completeness --------------------------------------------------------------------


def delivered_fraction(trace: Trace, events_emitted: int, *, app: str | None = None) -> float:
    """Fraction of emitted events that reached the active logic node.

    Promotion replays may deliver an event to two successive actives; we
    count distinct sequence numbers, matching the paper's "percentage of
    events received".
    """
    if events_emitted == 0:
        return math.nan
    seen: set[tuple[str, int]] = set()
    for event in trace.all_of_kind("logic_delivery"):
        if app is None or event["app"] == app:
            seen.add((event["sensor"], event["seq"]))
    return len(seen) / events_emitted


def deliveries_per_bucket(
    trace: Trace, *, bucket_s: float = 1.0, app: str | None = None
) -> list[tuple[float, int]]:
    """Time series of events received by the app (Fig. 7)."""
    counts: Counter[int] = Counter()
    for event in trace.all_of_kind("logic_delivery"):
        if app is None or event["app"] == app:
            counts[int(event.time // bucket_s)] += 1
    if not counts:
        return []
    last = max(counts)
    return [(bucket * bucket_s, counts.get(bucket, 0)) for bucket in range(last + 1)]


# -- polling ------------------------------------------------------------------------------------


def poll_requests(trace: Trace, sensor: str | None = None) -> int:
    if sensor is None:
        return trace.count("poll_request")
    return sum(1 for e in trace.all_of_kind("poll_request") if e["sensor"] == sensor)


def normalized_poll_overhead(
    trace: Trace, sensor: str, epoch_s: float, duration_s: float
) -> float:
    """Poll requests issued per epoch (optimal = 1.0)."""
    epochs = duration_s / epoch_s
    return poll_requests(trace, sensor) / epochs


# -- reception (Fig. 1) -------------------------------------------------------------------------


def reception_matrix(trace: Trace) -> dict[str, dict[str, int]]:
    """events received per (sensor, process) from radio_delivered records."""
    matrix: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for event in trace.all_of_kind("radio_delivered"):
        matrix[event["sensor"]][event["process"]] += 1
    return {s: dict(p) for s, p in matrix.items()}


class ReceptionCounter:
    """Streaming (subscriber-based) reception counter for long experiments.

    Fifteen simulated days of Fig. 1 would not fit in a kept trace; this
    subscriber aggregates counts on the fly while the trace stores nothing.
    """

    def __init__(self, trace: Trace) -> None:
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.emitted: Counter[str] = Counter()
        trace.subscribe(self._on_delivered, kinds=("radio_delivered",))
        trace.subscribe(self._on_emit, kinds=("sensor_emit",))

    def _on_delivered(self, event) -> None:
        self.counts[(event["sensor"], event["process"])] += 1

    def _on_emit(self, event) -> None:
        self.emitted[event["sensor"]] += 1

    def matrix(self) -> dict[str, dict[str, int]]:
        matrix: dict[str, dict[str, int]] = defaultdict(dict)
        for (sensor, process), count in sorted(self.counts.items()):
            matrix[sensor][process] = count
        return dict(matrix)
