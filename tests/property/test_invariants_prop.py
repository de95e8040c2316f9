"""Property tests for the invariant oracles.

Two directions: the oracles must stay silent on clean runs (fault-free
campaign scenarios across random seeds), and each oracle must trip on a
hand-built trace that violates exactly its invariant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.invariants import (
    RunRecord,
    check_all,
    check_delivered_events_exist,
    check_delivery_guarantee,
    check_no_delivery_to_crashed,
    check_no_duplicate_actuation,
    check_poll_epochs_monotonic,
    check_views_converge,
)
from repro.eval.chaos import run_chaos_case
from repro.sim.faults import FaultPlan
from repro.sim.tracing import Trace


def record(trace: Trace, **overrides) -> RunRecord:
    """A minimal healthy RunRecord around a synthetic trace."""
    defaults = dict(
        trace=trace,
        alive={"p0": True, "p1": True},
        views={"p0": frozenset({"p0", "p1"}),
               "p1": frozenset({"p0", "p1"})},
        sensor_modes={"s": "gapless"},
        consumers={"s": ("app",)},
        actuations=[],
        fault_free=True,
        lossless=True,
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


# -- clean runs are silent ----------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["gapless", "gap", "naive-broadcast"]))
def test_fault_free_runs_pass_every_oracle(seed, mode):
    violations, _ = run_chaos_case(seed, mode, 600.0, FaultPlan())
    assert violations == []


def test_empty_trace_passes_every_oracle():
    assert check_all(record(Trace())) == []


def test_check_all_refuses_a_trace_blind_to_an_oracle_kind():
    trace = Trace(keep_kinds=set())
    trace.record(1.0, "ingest", process="p0", sensor="s", seq=1)
    with pytest.raises(ValueError, match="'ingest'"):
        check_all(record(trace))


# -- each oracle trips on a violating trace -----------------------------------


def test_delivery_guarantee_trips_on_dropped_gapless_event():
    trace = Trace()
    trace.record(1.0, "ingest", process="p0", sensor="s", seq=1)
    trace.record(1.5, "ingest", process="p0", sensor="s", seq=2)
    trace.record(2.0, "logic_delivery", process="p0", app="app",
                 sensor="s", seq=1)
    violations = check_delivery_guarantee(record(trace))
    assert len(violations) == 1
    assert "s#2" in violations[0].message
    assert violations[0].oracle == "delivery_guarantee"


def test_delivery_guarantee_excuses_best_effort_under_faults():
    trace = Trace()
    trace.record(1.0, "ingest", process="p0", sensor="s", seq=1)
    lossy = record(trace, sensor_modes={"s": "gap"},
                   fault_free=False, lossless=True)
    assert check_delivery_guarantee(lossy) == []
    # ...but not on a fault-free, loss-free run
    clean = record(trace, sensor_modes={"s": "gap"})
    assert len(check_delivery_guarantee(clean)) == 1


def test_delivered_events_exist_trips_on_phantom_event():
    trace = Trace()
    trace.record(1.0, "sensor_emit", sensor="s", seq=1)
    trace.record(2.0, "logic_delivery", process="p0", app="app",
                 sensor="s", seq=99)
    violations = check_delivered_events_exist(record(trace))
    assert len(violations) == 1
    assert "never emitted" in violations[0].message


def test_duplicate_actuation_trips_without_a_reroute():
    command_id = ("a1", "app@p0", 1)
    rec = record(Trace(), actuations=[
        ("a1", command_id, 5.0), ("a1", command_id, 9.0),
    ])
    violations = check_no_duplicate_actuation(rec)
    assert len(violations) == 1
    assert violations[0].oracle == "no_duplicate_actuation"


def test_duplicate_actuation_excused_by_matching_reroute():
    trace = Trace()
    trace.record(4.0, "command_rerouted", process="p0", actuator="a1")
    command_id = ("a1", "app@p0", 1)
    rec = record(trace, actuations=[
        ("a1", command_id, 5.0), ("a1", command_id, 9.0),
    ])
    assert check_no_duplicate_actuation(rec) == []


def test_no_delivery_to_crashed_trips_inside_down_interval():
    trace = Trace()
    trace.record(10.0, "crash", process="p0")
    trace.record(15.0, "ingest", process="p0", sensor="s", seq=1)
    trace.record(20.0, "recover", process="p0")
    violations = check_no_delivery_to_crashed(record(trace))
    assert len(violations) == 1
    assert "down interval" in violations[0].message


def test_no_delivery_to_crashed_allows_boundary_instants():
    trace = Trace()
    trace.record(10.0, "crash", process="p0")
    trace.record(10.0, "ingest", process="p0", sensor="s", seq=1)
    trace.record(20.0, "recover", process="p0")
    trace.record(20.0, "ingest", process="p0", sensor="s", seq=2)
    assert check_no_delivery_to_crashed(record(trace)) == []


def test_views_converge_trips_on_stale_view():
    rec = record(Trace(), views={
        "p0": frozenset({"p0"}),  # stale: misses live p1
        "p1": frozenset({"p0", "p1"}),
    })
    violations = check_views_converge(rec)
    assert len(violations) == 1
    assert "p0" in violations[0].message


def test_views_converge_ignores_dead_processes():
    rec = record(Trace(), alive={"p0": True, "p1": False},
                 views={"p0": frozenset({"p0"})})
    assert check_views_converge(rec) == []


def test_poll_epochs_trip_on_regression():
    trace = Trace()
    trace.record(1.0, "poll_issued", process="p0", sensor="t", epoch=3)
    trace.record(2.0, "poll_issued", process="p0", sensor="t", epoch=2)
    violations = check_poll_epochs_monotonic(record(trace))
    assert len(violations) == 1
    assert "regressed" in violations[0].message


def test_poll_epochs_trip_on_duplicate_gap_report():
    trace = Trace()
    trace.record(1.0, "epoch_gap", process="p0", sensor="t", epoch=4)
    trace.record(2.0, "epoch_gap", process="p0", sensor="t", epoch=4)
    violations = check_poll_epochs_monotonic(record(trace))
    assert len(violations) == 1
    assert "twice" in violations[0].message


def test_poll_epochs_accept_monotone_streams_per_process():
    trace = Trace()
    trace.record(1.0, "poll_issued", process="p0", sensor="t", epoch=1)
    trace.record(2.0, "poll_issued", process="p1", sensor="t", epoch=1)
    trace.record(3.0, "poll_issued", process="p0", sensor="t", epoch=2)
    trace.record(4.0, "epoch_gap", process="p0", sensor="t", epoch=3)
    trace.record(5.0, "poll_issued", process="p0", sensor="t", epoch=4)
    assert check_poll_epochs_monotonic(record(trace)) == []


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=30, unique=True))
def test_check_all_flags_exactly_the_dropped_gapless_events(dropped):
    """Randomized: whatever subset of ingested events never reaches the
    app is reported, one violation each, and nothing else trips."""
    trace = Trace()
    for seq in range(31):
        trace.record(float(seq), "ingest", process="p0", sensor="s", seq=seq)
        if seq not in dropped:
            trace.record(float(seq) + 0.5, "logic_delivery", process="p0",
                         app="app", sensor="s", seq=seq)
        trace.record(float(seq), "sensor_emit", sensor="s", seq=seq)
    violations = check_all(record(trace))
    assert sorted(v.context["seq"] for v in violations) == sorted(dropped)
    assert all(v.oracle == "delivery_guarantee" for v in violations)
