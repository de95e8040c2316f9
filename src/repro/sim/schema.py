"""Every trace record kind, declared once.

A kind's entry gives its fields in recording order — a field ending in
``?`` is optional, and a trailing ``**`` opens the kind to extra fields
after the declared ones (only ``alert``, whose extras are the apps' own)
— and the tags the derived kind sets are read from:

- :data:`ORACLE` — read by the protocol oracles (``repro.core.invariants``),
  so a campaign or rt trace keeps at least these;
- :data:`ACTIVITY` — protocol activity attributed to its ``process``, which
  no down process may show;
- :data:`QUIESCE` — progress that ``LocalCluster.quiesce`` waits to settle;
- :data:`MESSAGE` — an inter-process message, recorded through a
  ``MessageChannel``; these kinds alone keep byte sums, sub-kind tallies
  and ``(src, dst)`` pair counts;
- :data:`EMISSION` — an event a sensor put out (pushed or polled).

The positional lanes of :mod:`repro.sim.tracing` take a kind's field names
from here, and ``tests/unit/test_tracing_boundary.py`` checks every call
site under ``src/repro`` against this table. The table lives in the trace
layer so that ``repro.sim`` imports nothing from ``repro.core``.
"""

from __future__ import annotations

from typing import NamedTuple

ORACLE = "oracle"
ACTIVITY = "activity"
QUIESCE = "quiesce"
MESSAGE = "message"
EMISSION = "emission"


class Kind(NamedTuple):
    """One record kind's declaration."""

    fields: tuple[str, ...]
    optional: frozenset[str]
    tags: frozenset[str]
    open: bool


def _kind(fields: str, *tags: str) -> Kind:
    words = fields.split()
    is_open = words[-1:] == ["**"]
    words = words[:-1] if is_open else words
    return Kind(tuple(word.rstrip("?") for word in words),
                frozenset(word[:-1] for word in words if word.endswith("?")),
                frozenset(tags), is_open)


_MESSAGE_FIELDS = "src dst kind bytes? reason?"

#: kind -> declaration. Order matters only within a tag: the derived
#: tuples list their kinds in table order.
KINDS: dict[str, Kind] = {
    # -- the event path, in the order the protocol takes it ------------------
    "ingest": _kind("sensor process seq", ORACLE, ACTIVITY, QUIESCE),
    "relay_receive": _kind("sensor process seq", ORACLE, ACTIVITY, QUIESCE),
    "rbcast_receive": _kind("process sensor seq", ORACLE, ACTIVITY, QUIESCE),
    "logic_delivery": _kind("process app sensor seq emitted_at delay",
                            ORACLE, ACTIVITY, QUIESCE),
    "poll_issued": _kind("process sensor epoch mode", ORACLE, ACTIVITY),
    "command_issued": _kind("process app actuator action seq", ORACLE, ACTIVITY, QUIESCE),
    "command_rerouted": _kind("process actuator app", ORACLE, QUIESCE),
    # A simulated actuator records no process; an rt node records itself.
    "actuation": _kind("process? actuator action by", ORACLE, QUIESCE),
    "poll_served": _kind("sensor seq", ORACLE, QUIESCE, EMISSION),
    "promotion": _kind("process app", ORACLE, QUIESCE),
    "promotion_replay": _kind("process app count", ORACLE, QUIESCE),
    "sensor_emit": _kind("sensor seq", ORACLE, EMISSION),
    "demotion": _kind("process app new_active", ORACLE),
    "epoch_gap": _kind("process sensor epoch", ORACLE),
    "alert": _kind("process app operator message **", ORACLE),
    "repair": _kind("process app sensor seq decision reason?", ORACLE),
    # -- processes and faults -------------------------------------------------
    "boot": _kind("process incarnation"),
    "crash": _kind("process", ORACLE),
    "recover": _kind("process incarnation", ORACLE),
    "stop": _kind("process"),
    "partition": _kind("groups", ORACLE),
    "partition_healed": _kind("", ORACLE),
    # -- inter-process messages ------------------------------------------------
    "net_send": _kind(_MESSAGE_FIELDS, MESSAGE),
    "net_deliver": _kind(_MESSAGE_FIELDS, MESSAGE),
    "net_drop": _kind(_MESSAGE_FIELDS, MESSAGE),
    "unhandled_message": _kind("process kind src"),
    "misrouted_message": _kind("process kind sensor"),
    "send_dropped": _kind("process dst reason"),
    "wire_error": _kind("process error"),
    # -- radio ----------------------------------------------------------------
    "radio_emit": _kind("sensor seq"),
    "radio_delivered": _kind("sensor process seq"),
    "radio_lost": _kind("sensor process seq"),
    "radio_undelivered": _kind("sensor process seq"),
    "ingest_unrouted": _kind("sensor process seq"),
    "poll_request": _kind("sensor process"),
    "poll_request_lost": _kind("sensor process"),
    "poll_response": _kind("sensor process seq"),
    "poll_response_lost": _kind("sensor process"),
    "poll_unserviced": _kind("process sensor"),
    "command_sent": _kind("actuator process action"),
    "command_lost": _kind("actuator process"),
    # -- delivery, membership and storage --------------------------------------
    "gap_discard": _kind("process sensor seq"),
    "gapless_fallback": _kind("process sensor seq missing"),
    "rbcast_origin": _kind("process sensor seq"),
    "sync_query": _kind("process sensor peer"),
    "sync_send": _kind("process sensor peer count"),
    "epoch_gap_delivered": _kind("process app sensor epoch"),
    "command_unroutable": _kind("process actuator app"),
    "command_misrouted": _kind("process actuator"),
    "stale_dropped": _kind("process app operator sensor seq staleness"),
    "operator_error": _kind("process app operator error"),
    "suspect": _kind("process peers"),
    "unsuspect": _kind("process peer"),
    "sensor_suspected": _kind("process sensor silence expected_gap"),
    "sensor_unsuspected": _kind("process sensor"),
    "store_put": _kind("process key lamport"),
    # -- devices --------------------------------------------------------------
    "actuation_rejected": _kind("actuator action by"),
    "actuation_ignored": _kind("actuator action reason"),
    "actuator_failed": _kind("actuator"),
    "actuator_recovered": _kind("actuator"),
    "sensor_failed": _kind("sensor"),
    "sensor_recovered": _kind("sensor"),
    "sensor_stuck": _kind("sensor"),
    "sensor_unstuck": _kind("sensor"),
    "sensor_drift": _kind("sensor rate"),
    "sensor_drift_cleared": _kind("sensor"),
    "sensor_brownout_drop": _kind("sensor"),
    "sensor_ghost": _kind("sensor"),
    "poll_dropped_busy": _kind("sensor"),
    "poll_dropped_failed": _kind("sensor"),
    "poll_glitch": _kind("sensor"),
    "poll_brownout": _kind("sensor"),
    "brownout": _kind("sensor level"),
    "battery_replaced": _kind("sensor"),
    "ghost_started": _kind("sensor rate"),
    "ghost_stopped": _kind("sensor"),
    "link_flap": _kind("device period duty"),
    "link_flap_stopped": _kind("device"),
}


def tagged(tag: str) -> tuple[str, ...]:
    """The kinds carrying ``tag``, in table order."""
    return tuple(kind for kind, spec in KINDS.items() if tag in spec.tags)
