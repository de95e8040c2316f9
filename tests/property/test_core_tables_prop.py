"""Property: the change-time tables equal the per-event derivations.

The event path reads tables built when their inputs change — the cached
``HeartbeatService.view`` with its memoised ring and successor, the
execution service's ``sensor -> runtimes`` routes, a runtime's actuator set,
issuer and stream table. Hypothesis drives 2-5 process homes (a Gap, a
Gapless and a naive-broadcast sensor, 1-3 apps) through events, crashes and
recoveries, partitions and heals, and stretches of time long enough for the
failure detector to fire. After every step each live process's tables are
compared with the derivations they replaced, which stay in ``src/`` for
boot-time use (``LocalView.of``, ``plan.apps_consuming``,
``App.consumers_of`` / ``App.actuators``), and the successor with a
sort-based one written here.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.delivery import GAP, GAPLESS
from repro.core.graph import App
from repro.core.home import Home
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.membership.views import LocalView

SENSORS = {"g": GAP, "r": GAPLESS, "b": GAPLESS}
APP_SENSORS = [("g", "r", "b"), ("g", "b"), ("r",)]


def sorted_successor(members, reference):
    """The ring successor as the first draft computed it: sort, then scan."""
    ordered = sorted(members)
    if ordered == [reference]:
        return None
    for member in ordered:
        if member > reference:
            return member
    return ordered[0] if ordered[0] != reference else None


def build_home(n_processes: int, n_apps: int, links: dict[str, list[int]]) -> Home:
    home = Home(seed=5, delivery_override={"b": "naive-broadcast"})
    names = [f"p{i}" for i in range(n_processes)]
    for name in names:
        home.add_process(name)
    for sensor in SENSORS:
        hosts = sorted({names[i % n_processes] for i in links[sensor]})
        home.add_sensor(sensor, kind="door", technology="ip", processes=hosts)
    home.add_actuator("a1", processes=[names[0]])
    for index in range(n_apps):
        op = Operator(f"L{index}", on_window=lambda ctx, combined: None)
        for sensor in APP_SENSORS[index]:
            op.add_sensor(sensor, SENSORS[sensor], CountWindow(1))
        op.add_actuator("a1", GAP)
        home.deploy(App(f"app{index}", op))
    return home.start()


class Watch:
    """What the last check saw per process, to tell 'between changes' from
    'after one' (kept views also keep their ids from being reused)."""

    def __init__(self, home: Home) -> None:
        self.home = home
        self.seen: dict[str, tuple] = {}

    def changes(self, name: str) -> int:
        trace = self.home.trace
        return sum(
            1 for kind in ("suspect", "unsuspect")
            for event in trace.of_kind(kind) if event["process"] == name
        )

    def check(self) -> None:
        for name, process in self.home.processes.items():
            if process.alive:
                self.check_process(name, process)

    def check_process(self, name: str, process) -> None:
        heartbeat = process.heartbeat
        view = heartbeat.view
        fresh = LocalView.of(name, heartbeat._alive)
        assert view == fresh and hash(view) == hash(fresh)
        assert heartbeat.view is view

        # The same object between membership changes, a new one after one.
        changes = self.changes(name)
        last = self.seen.get(name)
        if last is not None and last[0] is heartbeat:
            assert (view is last[2]) == (changes == last[1])
        self.seen[name] = (heartbeat, changes, view)

        assert view.ring == tuple(sorted(fresh.members))
        assert list(view) == sorted(fresh.members)
        assert view.ring_successor() == sorted_successor(fresh.members, name)
        for reference in [*self.home.processes, "o", "p9", ""]:
            assert view.ring_successor(reference) == sorted_successor(
                fresh.members, reference
            )

        execution = process.execution
        plan = execution.plan
        assert execution._routes == {
            sensor: [(app.name, execution.runtimes[app.name])
                     for app in plan.apps_consuming(sensor)]
            for sensor in SENSORS if plan.apps_consuming(sensor)
        }
        for runtime in execution.runtimes.values():
            app = runtime.app
            assert runtime._actuators == frozenset(app.actuators)
            assert runtime._issuer.startswith(f"{app.name}@{name}")
            assert runtime._issuer.endswith(f"+{process.incarnation}") == bool(
                process.incarnation
            )
            streams = {s for op in app.operators for s in op.input_streams}
            assert set(runtime._streams) == (streams if runtime.active else set())
            for stream, entries in runtime._streams.items():
                assert [op for op, _, _ in entries] == app.consumers_of(stream)


steps = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.sampled_from(sorted(SENSORS))),
        st.tuples(st.just("crash"), st.integers(0, 4)),
        st.tuples(st.just("recover"), st.integers(0, 4)),
        st.tuples(st.just("partition"), st.integers(1, 4)),
        st.tuples(st.just("heal")),
        st.tuples(st.just("run"), st.floats(0.05, 1.0)),
        st.tuples(st.just("run"), st.sampled_from([2.6, 3.5])),  # past the detector
    ),
    min_size=1, max_size=14,
)


@settings(max_examples=30, deadline=None)
@given(
    n_processes=st.integers(2, 5),
    n_apps=st.integers(1, 3),
    links=st.fixed_dictionaries(
        {s: st.lists(st.integers(0, 4), min_size=1, max_size=3) for s in SENSORS}
    ),
    script=steps,
)
@example(  # failover and back (a promotion and a demotion), then a partition
    n_processes=3, n_apps=3, links={"g": [1], "r": [1, 2], "b": [0, 2]},
    script=[("emit", "r"), ("crash", 0), ("run", 2.6), ("emit", "r"), ("emit", "g"),
            ("recover", 0), ("run", 2.6), ("partition", 1), ("run", 3.5),
            ("emit", "b"), ("heal",), ("run", 0.5)],
)
def test_tables_equal_the_derivations_they_replace(n_processes, n_apps, links, script):
    home = build_home(n_processes, n_apps, links)
    names = list(home.processes)
    watch = Watch(home)
    watch.check()
    for step in script:
        if step[0] == "emit":
            home.sensor(step[1]).emit(True)
        elif step[0] == "crash":
            process = home.processes[names[step[1] % n_processes]]
            if process.alive:
                home.crash_process(process.name)
        elif step[0] == "recover":
            process = home.processes[names[step[1] % n_processes]]
            if not process.alive:
                home.recover_process(process.name)
        elif step[0] == "partition":
            cut = step[1] % n_processes
            if cut:
                home.set_partition([names[:cut], names[cut:]])
        elif step[0] == "heal":
            home.heal_partition()
        else:
            home.run_for(step[1])
        watch.check()
