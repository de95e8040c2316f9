"""The event path reads tables built on change, and nothing else.

Views, ring successors and sensor -> app routes are built when membership
changes or once per boot (docs/performance.md, "Tables on change"). These tests bound that with the two lane counters, show that the
per-event derivations are no longer entered from the event path, and hold
the order in which a view's members are walked independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core.broadcast import NaiveBroadcastDelivery
from repro.core.execution import ExecutionService, LogicRuntime
from repro.core.gap import GapDelivery
from repro.core.gapless import GaplessDelivery
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.operators import Operator
from repro.core.plan import DeploymentPlan
from repro.core.runtime import RivuletProcess
from repro.membership.heartbeat import HeartbeatService
from tests.integration.conftest import collector_app

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

DERIVATIONS = [
    (App, "sensor_requirements"), (App, "sensors"), (App, "actuators"),
    (Operator, "input_streams"), (DeploymentPlan, "apps_consuming"),
]
EVENT_PATH = [
    (ExecutionService, "on_event"), (LogicRuntime, "_process"),
    (LogicRuntime, "_feed_stream"), (LogicRuntime, "actuate"),
    *[(cls, name)
      for cls in (GapDelivery, GaplessDelivery, NaiveBroadcastDelivery)
      for name in ("on_ingest", "on_message")],
]


class Watch:
    """Counts entries of the derivations by where they were entered from."""

    def __init__(self, monkeypatch) -> None:
        self.depth = {"boot": 0, "event": 0}
        self.entered = {"boot": 0, "event": 0, "elsewhere": 0}
        self.requirements_outside_boot = 0
        self.events_seen = 0
        for cls, name in DERIVATIONS:
            self._wrap(monkeypatch, cls, name, self._derivation)
        for cls, name in EVENT_PATH:
            self._wrap(monkeypatch, cls, name, self._scope("event"))
        self._wrap(monkeypatch, RivuletProcess, "boot", self._scope("boot"))
        self.view_reads = 0
        self._wrap(monkeypatch, HeartbeatService, "view", self._view_read)

    @staticmethod
    def _wrap(monkeypatch, cls, name, around) -> None:
        original = cls.__dict__[name]
        if isinstance(original, property):
            wrapped = property(around(original.fget, name))
        else:
            wrapped = around(original, name)
        monkeypatch.setattr(cls, name, wrapped)

    def _scope(self, scope: str):
        def around(fn, _name):
            def scoped(*args, **kwargs):
                self.depth[scope] += 1
                if scope == "event":
                    self.events_seen += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.depth[scope] -= 1
            return scoped
        return around

    def _view_read(self, fn, _name):
        def read(heartbeat):
            self.view_reads += 1
            return fn(heartbeat)
        return read

    def _derivation(self, fn, name):
        def counted(*args, **kwargs):
            if self.depth["event"]:
                self.entered["event"] += 1
            elif self.depth["boot"]:
                self.entered["boot"] += 1
            else:
                self.entered["elsewhere"] += 1
                if name == "sensor_requirements":
                    self.requirements_outside_boot += 1
            return fn(*args, **kwargs)
        return counted


def test_views_and_routes_are_built_on_change_not_per_event(monkeypatch):
    """4 processes, one Gapless app, 0.5 s heartbeats, 60 s at 5 ev/s; the
    app-bearing process crashes at 20 s and recovers at 30 s."""
    watch = Watch(monkeypatch)
    home = Home(HomeConfig(seed=7, heartbeat_interval=0.5))
    for i in range(4):
        home.add_process(f"p{i}", adapters=("ip", "zwave"))
    home.add_sensor("s1", kind="door", technology="ip",
                    processes=["p0", "p1", "p2", "p3"])
    home.add_actuator("a1", processes=["p0", "p1"])
    app, collected = collector_app(["s1"], actuator="a1")
    home.deploy(app)
    home.start()
    assert watch.entered["boot"] > 0 and watch.entered["event"] == 0
    watch.entered = dict.fromkeys(watch.entered, 0)
    watch.requirements_outside_boot = 0  # plan.validate() reads them once

    home.run_until(1.0)
    home.sensor("s1").start_periodic(5.0)
    bearer = next(n for n, p in home.processes.items()
                  if p.execution.runtimes["collector"].active)
    first_boot = {n: (p.heartbeat, p.execution) for n, p in home.processes.items()}
    home.scheduler.call_at(20.0, home.crash_process, bearer)
    home.scheduler.call_at(30.0, home.recover_process, bearer)
    home.run_until(60.0)

    assert len(collected) >= 250 and home.trace.count("actuation") >= 250
    assert home.trace.count("promotion") >= 3  # start, failover, recovery
    assert watch.events_seen > 4 * 250

    # After Home.start(): never from the event path; sensor_requirements
    # only under boot() (the recovery); the rest at promotion time.
    assert watch.entered["event"] == 0
    assert watch.requirements_outside_boot == 0
    assert watch.entered["boot"] > 0 and watch.entered["elsewhere"] > 0

    builds = 0
    for name, process in home.processes.items():
        services = [first_boot[name]]
        if process.heartbeat is not first_boot[name][0]:
            services.append((process.heartbeat, process.execution))
        assert len(services) == process.incarnation + 1
        boots = [0.0, 30.0][: len(services)]
        for (heartbeat, execution), booted_at in zip(services, boots):
            until = 20.0 if name == bearer and booted_at == 0.0 else 60.0
            changes = sum(
                1 for kind in ("suspect", "unsuspect")
                for record in home.trace.where(kind, process=name)
                if booted_at <= record.time <= until
            )
            assert 1 <= heartbeat.view_builds <= changes + 1
            assert execution.route_builds == 1
            builds += heartbeat.view_builds
    # The first draft built a view per read: several per event per process.
    assert watch.view_reads > 4 * 250 > 50 * builds


_DIGEST_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.delivery import GAPLESS
from repro.eval.workloads import single_sensor_home
from repro.net.message import Message
from repro.net.wire import ProcessIdSet

def run(mode, after):
    home, sensor = single_sensor_home(
        n_processes=5, receiving=3, guarantee=GAPLESS, delivery_mode=mode, seed=7)
    home.run_until(1.0)
    sensor.start_periodic(10.0)
    home.run_until(3.0)
    after(home)
    home.run_until(6.0)
    return home.trace

def nothing(home):
    pass

def force_fallback(home):
    # seq 1 comes back around to p1, which forwarded it, without p4 in S.
    event = home.processes["p1"].store.log_for("s1").events_missing_from([])[0]
    home.processes["p1"].deliver(Message("gapless_fwd", "p0", "p1", {{
        "sensor": "s1", "event": event,
        "S": ProcessIdSet({{"p0", "p1", "p2", "p3"}}),
        "V": ProcessIdSet({{"p0", "p1", "p2", "p3", "p4"}}),
    }}))

def kv_put(home):
    home.processes["p2"].kv.put("mode", "away")

broadcast = run("naive-broadcast", nothing)
fallback = run("gapless", force_fallback)
stored = run("gapless", kv_put)
assert broadcast.tally("net_send", "nbcast")[0] > 300
assert fallback.count("gapless_fallback") == 1
assert fallback.tally("net_send", "rbcast")[0] >= 4 + 4 * 3
assert stored.tally("net_send", "store_write")[0] == 4
print(broadcast.digest(), fallback.digest(), stored.digest())
"""


def test_view_member_order_does_not_leak_the_hash_seed_into_the_trace():
    """Naive broadcast, the reliable-broadcast fallback and ``kv.put`` send
    to every member of the view: in ring order, not frozenset order."""
    outputs = []
    for hash_seed in ("1", "2", "3"):
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT.format(src=REPO_SRC)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(result.stdout.split())
    assert len(outputs[0]) == 3 and len(set(outputs[0])) == 3
    assert outputs[0] == outputs[1] == outputs[2]
