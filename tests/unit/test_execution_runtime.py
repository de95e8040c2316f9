"""Unit tests for the logic-node runtime (operator machinery in isolation).

These drive :class:`repro.core.execution.ExecutionService` directly on a
:class:`tests.helpers.FakeEnv`, with no network or devices: windows fire,
combiners align, derived events flow downstream, watermarks gossip.
"""

from repro.core.delivery import EpochGap, GAP, GAPLESS
from repro.core.eventlog import EventStore
from repro.core.events import Event
from repro.core.execution import ExecutionService
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.plan import DeploymentPlan
from repro.core.windows import CountWindow, TimeWindow
from repro.membership.heartbeat import HeartbeatService
from repro.net.latency import ProcessingModel
from tests.helpers import FakeEnv


class Rig:
    def __init__(self, app: App, name: str = "p0", processes=("p0",)):
        self.env = FakeEnv(name)
        for other in processes:
            if other != name:
                self.env.link(FakeEnv(other, self.env.scheduler))
        self.heartbeat = HeartbeatService(self.env, interval=0.5, timeout=2.0)
        self.store = EventStore(name)
        plan = DeploymentPlan(
            processes=list(processes),
            sensor_hosts={s: list(processes) for s in app.sensors},
            actuator_hosts={a: list(processes) for a in app.actuators},
            apps=[app],
        )
        self.commands = []
        self.service = ExecutionService(self.env, self.heartbeat, plan,
                                        self.store, ProcessingModel())

        class _FakeDelivery:
            def send_command(inner, command, app_name, guarantee):
                self.commands.append(command)

        self.service.bind_delivery(_FakeDelivery())
        self.heartbeat.start()
        self.service.start()

    def feed(self, sensor: str, seq: int, value, at: float | None = None) -> None:
        now = self.env.now() if at is None else at
        event = Event(sensor_id=sensor, seq=seq, emitted_at=now, value=value,
                      size_bytes=4)
        self.store.add(event)
        self.service.on_event(sensor, event)

    def run(self, duration: float) -> None:
        self.env.scheduler.run_until(self.env.now() + duration)


def test_count_window_triggers_operator():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAP, CountWindow(2))
    rig = Rig(App("a", op))
    rig.feed("s", 1, "x")
    rig.feed("s", 2, "y")
    rig.feed("s", 3, "z")
    assert seen == [["x", "y"]]


def test_periodic_time_window_fires_while_active():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(len(c.all_events())))
    op.add_sensor("s", GAP, TimeWindow(1.0))
    rig = Rig(App("a", op))
    rig.feed("s", 1, "x")
    rig.run(3.2)
    assert len(seen) == 3           # fired at t=1, 2, 3
    assert seen[0] == 1 and seen[1] == 0


def test_periodic_windows_hold_one_timer_each_however_long_they_run():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(len(c.all_events())))
    op.add_sensor("s", GAP, TimeWindow(1.0))
    op.add_sensor("t", GAP, TimeWindow(2.0))
    rig = Rig(App("a", op))
    runtime = rig.service.runtimes["a"]
    rig.run(500.5)
    assert len(seen) == 500 + 250   # every tick of both windows fired
    assert len(runtime._periodic_timers) <= 2


def test_duplicate_events_processed_once():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAPLESS, CountWindow(1))
    rig = Rig(App("a", op))
    rig.feed("s", 1, "x")
    rig.feed("s", 1, "x")
    assert seen == [["x"]]


def test_derived_events_flow_to_downstream_operator():
    downstream_values = []
    source = Operator("src", on_window=lambda ctx, c: ctx.emit(
        sum(c.all_values())))
    source.add_sensor("s", GAP, CountWindow(2))
    sink = Operator("sink", on_window=lambda ctx, c: downstream_values.extend(
        c.all_values()))
    sink.add_upstream_operator(source, CountWindow(1))
    rig = Rig(App("a", [source, sink]))
    rig.feed("s", 1, 10)
    rig.feed("s", 2, 32)
    assert downstream_values == [42]


def test_actuation_goes_through_delivery():
    op = Operator("L", on_window=lambda ctx, c: ctx.actuate("light", "on", 1))
    op.add_sensor("s", GAP, CountWindow(1))
    op.add_actuator("light", GAP)
    rig = Rig(App("a", op))
    rig.feed("s", 1, "x")
    assert len(rig.commands) == 1
    assert rig.commands[0].actuator_id == "light"
    assert rig.commands[0].issued_by == "a@p0"


def test_actuating_unbound_actuator_is_an_operator_error():
    op = Operator("L", on_window=lambda ctx, c: ctx.actuate("ghost", "on"))
    op.add_sensor("s", GAP, CountWindow(1))
    rig = Rig(App("a", op))
    rig.feed("s", 1, "x")
    assert rig.env.trace_log.count("operator_error") == 1
    assert rig.commands == []


def test_operator_exception_is_contained():
    def boom(ctx, combined):
        raise RuntimeError("kaboom")

    bad = Operator("bad", on_window=boom)
    bad.add_sensor("s", GAP, CountWindow(1))
    good_seen = []
    good = Operator("good", on_window=lambda ctx, c: good_seen.append(1))
    good.add_sensor("s", GAP, CountWindow(1))
    rig = Rig(App("a", [bad, good]))
    rig.feed("s", 1, "x")
    assert rig.env.trace_log.count("operator_error") == 1
    assert good_seen == [1]


def test_staleness_bound_drops_old_events():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAP, CountWindow(1), staleness_s=0.5)
    rig = Rig(App("a", op))
    rig.run(10.0)
    rig.feed("s", 1, "stale", at=1.0)   # emitted 9 s ago
    rig.feed("s", 2, "fresh", at=9.9)
    assert seen == [["fresh"]]
    assert rig.env.trace_log.count("stale_dropped") == 1


def test_epoch_gap_routed_to_consuming_operator():
    gaps = []
    op = Operator("L", on_window=lambda ctx, c: None,
                  on_epoch_gap=lambda ctx, g: gaps.append(g.epoch))
    op.add_sensor("s", GAPLESS, CountWindow(1))
    rig = Rig(App("a", op))
    rig.service.on_epoch_gap("s", EpochGap(sensor="s", epoch=7, detected_at=1.0))
    assert gaps == [7]


def test_shadow_ignores_events_until_promoted():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAPLESS, CountWindow(1))
    app = App("a", op)
    # Two processes: p1 (higher name) wins the tie and p0 stays shadow.
    rig = Rig(app, name="p0", processes=("p0", "p1"))
    assert not rig.service.runtimes["a"].active
    rig.feed("s", 1, "early")
    assert seen == []
    # p1 goes silent; p0's detector eventually promotes and replays from
    # the journal (the event was stored on feed).
    rig.run(5.0)
    assert rig.service.runtimes["a"].active
    assert seen == [["early"]]


def test_watermark_gossip_limits_replay():
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAPLESS, CountWindow(1))
    app = App("a", op)
    rig = Rig(app, name="p0", processes=("p0", "p1"))
    runtime = rig.service.runtimes["a"]
    # The remote active on p1 advertises the seq ranges it processed.
    rig.service._on_watermarks("p1", {"a": {"s": [(1, 5)]}})
    for seq in range(1, 9):
        rig.feed("s", seq, seq)
    rig.run(5.0)  # p1 never heartbeats -> p0 promotes
    assert runtime.active
    assert seen == [[6], [7], [8]]  # only events outside the gossiped ranges


def test_watermark_gossip_replays_holes_below_the_maximum():
    """Ranges gossip replays events the old active skipped (a hole below
    its high-water mark), which a scalar watermark would lose forever."""
    seen = []
    op = Operator("L", on_window=lambda ctx, c: seen.append(c.all_values()))
    op.add_sensor("s", GAPLESS, CountWindow(1))
    app = App("a", op)
    rig = Rig(app, name="p0", processes=("p0", "p1"))
    runtime = rig.service.runtimes["a"]
    # p1 processed 1-3 and 5-6 but never saw 4 (partition hole).
    rig.service._on_watermarks("p1", {"a": {"s": [(1, 3), (5, 6)]}})
    for seq in range(1, 7):
        rig.feed("s", seq, seq)
    rig.run(5.0)  # p1 never heartbeats -> p0 promotes
    assert runtime.active
    assert seen == [[4]]  # the hole is replayed, the rest is not
