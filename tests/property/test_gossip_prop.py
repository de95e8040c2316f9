"""Property: gossip-on-change is the per-tick gossip, observed from outside.

Three processes run the execution service over heartbeats on a loopback
network while Hypothesis interleaves event processing, forced promotions and
demotions, link drops and stretches of ticks and deliveries. Two oracles
kept from the per-tick implementation watch every step:

- at every tick the provider's (cached) value equals the payload rebuilt
  from the runtimes' processed sets, and no value handed out earlier has
  been edited since;
- every receiver's ``_remote_processed`` equals a model that merges every
  delivered payload unconditionally.
"""

import copy

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.delivery import GAP, GAPLESS
from repro.core.eventlog import EventStore
from repro.core.events import Event
from repro.core.execution import ExecutionService
from repro.core.graph import App
from repro.core.intervals import IntervalSet
from repro.core.operators import Operator
from repro.core.plan import DeploymentPlan
from repro.core.windows import CountWindow
from repro.membership.heartbeat import HeartbeatService
from repro.net.latency import ProcessingModel
from repro.sim.scheduler import Scheduler
from tests.helpers import FakeEnv

NAMES = ["p0", "p1", "p2"]
SENSORS = {"alarm": ["door", "motion", "lux"], "climate": ["temp"]}
GAP_SENSORS = {"lux"}


def per_tick_payload(service: ExecutionService) -> dict:
    """The builder ``_watermark_payload`` ran every tick before it cached."""
    payload = {}
    for name, runtime in service.runtimes.items():
        if runtime.active:
            marks = {}
            for sensor in runtime._gapless_sensors:
                processed = runtime._processed.get(sensor)
                if processed is not None and len(processed) > 0:
                    marks[sensor] = processed.ranges()
            if marks:
                payload[name] = marks
    return payload


def build_apps() -> list[App]:
    apps = []
    for app_name, sensors in SENSORS.items():
        op = Operator(f"{app_name}-logic", on_window=lambda ctx, combined: None)
        for sensor in sensors:
            op.add_sensor(sensor, GAP if sensor in GAP_SENSORS else GAPLESS,
                          CountWindow(1))
        apps.append(App(app_name, op))
    return apps


class Cluster:
    def __init__(self) -> None:
        self.sched = Scheduler()
        self.envs = [FakeEnv(name, self.sched) for name in NAMES]
        self.envs[0].link(*self.envs[1:])
        all_sensors = [s for sensors in SENSORS.values() for s in sensors]
        self.services: list[ExecutionService] = []
        self.handed_out: list[tuple[dict, dict]] = []  # (object, copy when handed out)
        self.model: list[dict[tuple[str, str], IntervalSet]] = []
        self.ticks = 0
        for env in self.envs:
            heartbeat = HeartbeatService(env, interval=0.5, timeout=2.0)
            plan = DeploymentPlan(
                processes=list(NAMES),
                sensor_hosts={s: list(NAMES) for s in all_sensors},
                actuator_hosts={},
                apps=build_apps(),
            )
            service = ExecutionService(env, heartbeat, plan, EventStore(env.name),
                                       ProcessingModel())
            heartbeat.start()
            service.start()
            self.services.append(service)
            self.model.append({})
            self._watch(len(self.services) - 1, heartbeat, service)

    def _watch(self, index: int, heartbeat: HeartbeatService,
               service: ExecutionService) -> None:
        provider = heartbeat._providers["exec_wm"]
        consumer = heartbeat._consumers["exec_wm"]
        model = self.model[index]

        def checked_provider():
            value = provider()
            self.ticks += 1
            assert value == per_tick_payload(service)
            if not self.handed_out or self.handed_out[-1][0] is not value:
                self.handed_out.append((value, copy.deepcopy(value)))
            return value  # the same object: the caches stay in play

        def modelling_consumer(sender, value):
            for app_name, marks in value.items():
                for sensor, ranges in marks.items():
                    merged = model.setdefault((app_name, sensor), IntervalSet())
                    for lo, hi in ranges:
                        merged.add_range(lo, hi)
            consumer(sender, value)

        heartbeat._providers["exec_wm"] = checked_provider
        heartbeat._consumers["exec_wm"] = modelling_consumer

    def check(self) -> None:
        for service, model in zip(self.services, self.model):
            actual = {
                (app_name, sensor): merged
                for app_name, runtime in service.runtimes.items()
                for sensor, merged in runtime._remote_processed.items()
            }
            assert actual == model
        for value, as_handed_out in self.handed_out:
            assert value == as_handed_out


steps = st.lists(
    st.one_of(
        st.tuples(st.just("event"),
                  st.sampled_from(["door", "motion", "lux", "temp"]),
                  st.integers(1, 12)),
        st.tuples(st.just("promote"), st.integers(0, 2),
                  st.sampled_from(["alarm", "climate"])),
        st.tuples(st.just("demote"), st.integers(0, 2),
                  st.sampled_from(["alarm", "climate"])),
        st.tuples(st.just("run"), st.floats(0.05, 3.0)),
        st.tuples(st.just("run"), st.just(0.6)),
        st.tuples(st.just("drop"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("heal")),
    ),
    min_size=10, max_size=50,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps)
def test_cached_gossip_equals_per_tick_gossip(script):
    cluster = Cluster()
    for step in script:
        kind = step[0]
        if kind == "event":
            _, sensor, seq = step
            event = Event(sensor_id=sensor, seq=seq, emitted_at=cluster.sched.now,
                          value=seq, size_bytes=4)
            for service in cluster.services:  # shadows journal, actives process
                service.store.add(event)
                service.on_event(sensor, event)
        elif kind in ("promote", "demote"):
            _, index, app_name = step
            runtime = cluster.services[index].runtimes[app_name]
            if kind == "promote" and not runtime.active:
                runtime._promote()
            elif kind == "demote" and runtime.active:
                runtime._demote(new_active=None)
        elif kind == "run":
            cluster.sched.run_until(cluster.sched.now + step[1])
        elif kind == "drop":
            _, a, b = step
            if a != b:
                cluster.envs[0].drop_between(NAMES[a], NAMES[b])
        else:
            for env in cluster.envs:
                env.dropped_links.clear()
        cluster.check()
    for env in cluster.envs:
        env.dropped_links.clear()
    cluster.sched.run_until(cluster.sched.now + 3.0)
    cluster.check()
    assert cluster.ticks >= 3 * 6
