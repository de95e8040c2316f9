"""Unit tests for runtime-agnostic RunRecord production (repro.core.records)."""

from repro.core.records import (
    app_consumers,
    build_run_record,
    snapshot_processes,
)
from repro.sim.tracing import Trace


class FakeView:
    def __init__(self, members):
        self.members = set(members)


class FakeHeartbeat:
    def __init__(self, members):
        self.view = FakeView(members)


class FakeInstance:
    def __init__(self, guarantee_name):
        self.guarantee_name = guarantee_name


class FakeDelivery:
    def __init__(self, modes):
        self.instances = {s: FakeInstance(m) for s, m in modes.items()}


class FakeProcess:
    """Structurally what both RivuletProcess and AsyncRivuletNode expose."""

    def __init__(self, alive=True, members=(), modes=None):
        self.alive = alive
        self.heartbeat = FakeHeartbeat(members)
        self.delivery = FakeDelivery(modes or {})


class FakeOperator:
    def __init__(self, sensors):
        self._sensors = sensors


class FakeApp:
    def __init__(self, name, sensors):
        self.name = name
        self._sensors = sensors

    def sensor_requirements(self):
        return {s: object() for s in self._sensors}


# -- snapshot_processes ----------------------------------------------------------------


def test_snapshot_reads_liveness_views_and_modes():
    processes = {
        "p0": FakeProcess(members={"p0", "p1"}, modes={"s1": "gapless"}),
        "p1": FakeProcess(members={"p0", "p1"}, modes={"s1": "gapless"}),
    }
    alive, views, modes = snapshot_processes(processes)
    assert alive == {"p0": True, "p1": True}
    assert views == {"p0": frozenset({"p0", "p1"}),
                     "p1": frozenset({"p0", "p1"})}
    assert modes == {"s1": "gapless"}


def test_snapshot_dead_process_contributes_liveness_only():
    processes = {
        "p0": FakeProcess(members={"p0"}, modes={"s1": "gap"}),
        "p1": FakeProcess(alive=False, members={"p0", "p1"},
                          modes={"s1": "stale"}),
    }
    alive, views, modes = snapshot_processes(processes)
    assert alive == {"p0": True, "p1": False}
    assert "p1" not in views
    assert modes == {"s1": "gap"}


# -- app_consumers ---------------------------------------------------------------------


def test_app_consumers_orders_by_deployment():
    apps = [FakeApp("alarm", ["m1", "d1"]), FakeApp("watch", ["d1"])]
    assert app_consumers(apps) == {
        "m1": ("alarm",),
        "d1": ("alarm", "watch"),
    }


# -- build_run_record ------------------------------------------------------------------


def test_build_run_record_from_processes():
    trace = Trace()
    trace.record(0.5, "sensor_emit", sensor="s1", seq=1)
    processes = {"p0": FakeProcess(members={"p0"}, modes={"s1": "gapless"})}
    record = build_run_record(
        trace, processes=processes, apps=[FakeApp("a", ["s1"])],
        fault_free=True,
    )
    assert record.alive == {"p0": True}
    assert record.sensor_modes == {"s1": "gapless"}
    assert record.consumers == {"s1": ("a",)}
    assert record.fault_free is True


def test_build_run_record_explicit_mappings_override_snapshot():
    record = build_run_record(
        Trace(),
        alive={"p0": True, "p1": False},
        views={"p0": {"p0"}},
        sensor_modes={"s1": "gap"},
        consumers={"s1": ("a",)},
    )
    assert record.alive == {"p0": True, "p1": False}
    assert record.views == {"p0": frozenset({"p0"})}
    assert record.sensor_modes == {"s1": "gap"}


def test_build_run_record_wraps_the_given_trace_and_times_as_is():
    trace = Trace()
    trace.record(0.2, "sensor_emit", sensor="s1", seq=1)
    record = build_run_record(
        trace,
        actuations=[("a1", ("a1", "app@p0", 1), 0.9)],
        applied_actions=[("a1", "set", True, 0.9)],
    )
    assert record.trace is trace
    assert record.trace.events[0].time == 0.2
    assert record.actuations == [("a1", ("a1", "app@p0", 1), 0.9)]
    assert record.applied_actions == [("a1", "set", True, 0.9)]


def test_build_run_record_sorts_actuations_by_time():
    record = build_run_record(
        Trace(),
        actuations=[("a1", ("a1", "x", 2), 5.0), ("a1", ("a1", "x", 1), 1.0)],
        applied_actions=[("a1", "set", 2, 5.0), ("a1", "set", 1, 1.0)],
    )
    assert [c[2] for c in record.actuations] == [1.0, 5.0]
    assert [a[3] for a in record.applied_actions] == [1.0, 5.0]
