"""The keep-alive piggyback is built, sized and merged on change, not per tick.

The watermark gossip (Section 5: "one message instead of three") does work
only when a watermark or a role changes; these tests hold that to the
per-tick behaviour it replaced: the lane counters bound the work, a run
with every cache defeated is indistinguishable, and the receiver's skip
loses nothing across crash/recover and partitions.
"""

from __future__ import annotations

import functools
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.execution import ExecutionService
from repro.core import scenario
from repro.core.home import Home, HomeConfig
from repro.eval import chaos
from repro.net import wire
from repro.net.transport import HomeNetwork
from repro.sim.chaos import FaultScheduleGenerator, PROFILES
from tests.integration.conftest import collector_app, five_process_home

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _runtime(home, process, app="collector"):
    return home.processes[process].execution.runtimes[app]


# -- lane counters ---------------------------------------------------------------


def test_piggyback_is_built_and_sized_once_per_change(monkeypatch):
    """4 processes, one Gapless app, 0.5 s heartbeats, 12 events in 60 s."""
    sized = []
    real_sizeof = wire.sizeof

    def counting_sizeof(value):
        if type(value) is dict and "collector" in value:
            sized.append(value)
        return real_sizeof(value)

    monkeypatch.setattr(wire, "sizeof", counting_sizeof)

    home = Home(HomeConfig(seed=7, heartbeat_interval=0.5))
    for i in range(4):
        home.add_process(f"p{i}", adapters=("ip", "zwave"))
    home.add_sensor("s1", kind="door", technology="ip",
                    processes=["p0", "p1", "p2", "p3"])
    home.add_actuator("a1", processes=["p0"])
    app, collected = collector_app(["s1"], actuator="a1")
    home.deploy(app)
    home.start()
    home.run_until(1.0)
    home.sensor("s1").start_periodic(0.2)
    home.run_until(60.0)
    assert len(collected) >= 10

    ticks = home.trace.tally("net_send", "keepalive")[0] // 3
    assert ticks >= 4 * 118
    builds = 0
    for name, process in home.processes.items():
        changes = (
            len(home.trace.where("logic_delivery", process=name))
            + len(home.trace.where("promotion", process=name))
            + len(home.trace.where("demotion", process=name))
        )
        assert process.execution.watermark_builds <= changes + 1
        # One provider: the keep-alive is reassembled exactly when it
        # hands back a new object.
        assert process.heartbeat.payload_builds == process.execution.watermark_builds
        builds += process.heartbeat.payload_builds
    # Sized once per assembled payload (the empty ones carry no dict) — the
    # per-tick path sized one per tick of the active process.
    assert 10 <= len(sized) <= builds < ticks / 8
    assert len({id(value) for value in sized}) == len(sized)


# -- differential: caches defeated -----------------------------------------------


@pytest.fixture
def digesting_cells(monkeypatch):
    """Campaign homes with the streaming digest on, so cells compare by it."""
    monkeypatch.setattr(
        scenario, "HomeConfig", functools.partial(HomeConfig, trace_digest=True)
    )


def _run_cell(seed: int, intensity: str, horizon: float):
    plan = FaultScheduleGenerator(
        chaos.chaos_domain(), PROFILES[intensity], horizon
    ).generate(seed)
    violations, home = chaos.run_chaos_case(seed, "gapless", horizon, plan)
    return {
        "digest": home.trace.digest(),
        "violations": [str(v) for v in violations],
        "net_send": {
            kind: tuple(home.trace.tally("net_send", kind))
            for kind in ("keepalive", "gapless_fwd", "cmd_fwd", "gapless_sync_reply")
        },
        "bytes": home.network.bytes_sent(),
        "counts": dict(home.trace.counts),
    }, len(plan), home


@pytest.mark.parametrize(
    "intensity, horizon, least_actions",
    [("mild", 2400.0, 4), ("severe", 1200.0, 20)],
)
def test_run_with_every_cache_defeated_is_bit_identical(
    monkeypatch, digesting_cells, intensity, horizon, least_actions
):
    cached, actions, home = _run_cell(7, intensity, horizon)
    assert actions >= least_actions
    assert cached["net_send"]["keepalive"][0] > 9000
    on_change = home.stats()["plan_repayloads"]
    assert 0 < on_change < 1500

    # The reference arm: a transport whose multicast lane always refuses,
    # so every keep-alive is a per-message send (both other arms ride the
    # lane, with the payload the heartbeat registered).
    with monkeypatch.context() as patch:
        patch.setattr(HomeNetwork, "send_multicast",
                      lambda self, src, dsts, kind: False)
        per_message, _, home = _run_cell(7, intensity, horizon)
    assert per_message == cached
    assert home.stats()["plan_builds"] == home.stats()["plan_repayloads"] == 0

    # The per-tick behaviour PR 15 replaced: the payload rebuilt from the
    # runtimes every tick (so the heartbeat reassembles it and the plan is
    # re-payloaded every tick), and a receiver that forgets what it merged
    # (so every keep-alive is merged).
    provider = ExecutionService._watermark_payload
    consumer = ExecutionService._on_watermarks
    calls = {"built": 0, "merged": 0}

    def fresh_each_tick(self):
        calls["built"] += 1
        self.watermarks_changed()
        return provider(self)

    def merge_always(self, sender, value):
        calls["merged"] += 1
        self._merged.clear()
        consumer(self, sender, value)

    monkeypatch.setattr(ExecutionService, "_watermark_payload", fresh_each_tick)
    monkeypatch.setattr(ExecutionService, "_on_watermarks", merge_always)
    plain, _, home = _run_cell(7, intensity, horizon)
    assert calls["built"] > 9000 and calls["merged"] > 1000
    assert plain == cached
    assert home.stats()["plan_repayloads"] > 5 * on_change


def test_lane_counters_bound_the_keepalive_work_of_a_mild_cell(
    monkeypatch, digesting_cells
):
    """Every re-payload answers a registration, and a registration comes
    from an assembled payload or a boot; a keep-alive reaches per-message
    ``send`` only when the lane refused its fan-out, for a counted cause."""
    sends = [0]
    real_send = HomeNetwork.send

    def counting_send(self, message):
        sends[0] += message.kind == "keepalive"
        real_send(self, message)

    monkeypatch.setattr(HomeNetwork, "send", counting_send)
    # Seed 10's mild plan has a crash + recovery and a partition + heal.
    _, actions, home = _run_cell(10, "mild", 2400.0)
    assert actions == 8

    # stats() covers every incarnation: a host folds the outgoing stack's
    # counters into its totals before it boots the next one.
    stats = home.stats()
    boots = home.trace.count("boot")
    recoveries = boots - len(home.processes)
    assert recoveries > 0 and stats["route_builds"] == boots
    # Only a recovery's registration finds a plan to re-payload: the first
    # boot's comes before any fan-out built one.
    assert 0 < stats["plan_repayloads"] <= stats["payload_builds"] + recoveries
    # One plan per process and boot-time epoch, rebuilt for nothing since.
    assert stats["plan_builds"] == len(home.processes)
    refusals = stats["lane_refusals"]
    assert refusals["partition"] > 0 and refusals["subscriber"] == refusals["kept"] == 0
    peers = len(home.processes) - 1
    assert 0 < sends[0] <= sum(refusals.values()) * peers
    assert sends[0] < home.trace.tally("net_send", "keepalive")[0] / 5


# -- the receiver's skip across faults ---------------------------------------------


def test_recovered_process_merges_an_unchanged_payload_again():
    home, collected = five_process_home(receiving=[f"p{i}" for i in range(5)])
    home.run_until(1.0)
    sensor = home.sensor("s1")
    sensor.start_periodic(10.0)
    home.run_until(10.0)
    sensor.stop_periodic()
    home.run_until(12.0)
    # The active logic node (last in the chain), and the shadow its crash
    # promotes.
    successor, active = _runtime(home, "p0").election.chain[-2:]
    processed = _runtime(home, active)._processed["s1"].ranges()
    assert processed == [(1, sensor.events_emitted)]
    gossip = home.processes[active].execution._gossip
    assert _runtime(home, successor)._remote_processed["s1"].ranges() == processed

    home.crash_process(successor)
    home.run_until(14.0)
    home.recover_process(successor)
    assert _runtime(home, successor)._remote_processed == {}
    home.run_until(17.0)
    # The active processed nothing meanwhile: it still sends the very same
    # object, and the fresh incarnation — empty sets, empty memo — merged it.
    assert home.processes[active].execution._gossip is gossip
    assert _runtime(home, successor)._remote_processed["s1"].ranges() == processed

    home.crash_process(active)
    home.run_until(24.0)
    assert _runtime(home, successor).active
    # Everything was confirmed by the gossip, so promotion replays nothing.
    assert home.trace.where("promotion_replay", process=successor) == []
    seqs = [event.seq for event in collected.events]
    assert sorted(seqs) == list(range(1, sensor.events_emitted + 1))


def test_watermark_that_advances_during_a_partition_is_merged_after_heal():
    home, _ = five_process_home(receiving=["p0", "p1"])
    home.run_until(1.0)
    sensor = home.sensor("s1")
    sensor.start_periodic(5.0)
    home.run_until(5.0)
    sensor.stop_periodic()
    home.run_until(6.0)
    before = _runtime(home, "p4")._remote_processed["s1"].ranges()
    assert before and before == _runtime(home, "p0")._processed["s1"].ranges()

    home.set_partition([["p0", "p1", "p2", "p3"], ["p4"]])
    sensor.start_periodic(5.0)
    home.run_until(16.0)
    sensor.stop_periodic()
    home.run_until(17.0)
    advanced = _runtime(home, "p0")._processed["s1"].ranges()
    assert advanced[-1][1] > before[-1][1]
    # Cut off, p4 still holds what it merged before the partition.
    assert _runtime(home, "p4")._remote_processed["s1"].ranges() == before

    home.heal_partition()
    home.run_until(20.0)
    assert _runtime(home, "p4")._remote_processed["s1"].ranges() == advanced


# -- key order ----------------------------------------------------------------------

_FRAME_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.delivery import GAPLESS
from repro.core.eventlog import EventStore
from repro.core.events import Event
from repro.core.execution import ExecutionService
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.plan import DeploymentPlan
from repro.core.windows import CountWindow
from repro.membership.heartbeat import HeartbeatService
from repro.net.latency import ProcessingModel
from repro.net.message import Message
from repro.rt import wire
from tests.helpers import FakeEnv

sensors = ["door-front", "motion-hall", "temp", "window-3", "a", "zz", "smoke"]
op = Operator("L", on_window=lambda ctx, combined: None)
for sensor in sensors:
    op.add_sensor(sensor, GAPLESS, CountWindow(1))
app = App("app", op)
env = FakeEnv("p0")
heartbeat = HeartbeatService(env, interval=0.5, timeout=2.0)
plan = DeploymentPlan(processes=["p0"], sensor_hosts={{s: ["p0"] for s in sensors}},
                      actuator_hosts={{}}, apps=[app])
service = ExecutionService(env, heartbeat, plan, EventStore("p0"), ProcessingModel())
heartbeat.start()
service.start()
for seq, sensor in enumerate(reversed(sensors), start=1):
    service.on_event(sensor, Event(sensor_id=sensor, seq=seq, emitted_at=0.0,
                                   value=1, size_bytes=4))
heartbeat._tick()
frame = wire.encode_message(Message("keepalive", "p0", "p1", heartbeat._payload))
sys.stdout.write(frame.hex())
"""


def test_keepalive_frame_bytes_do_not_depend_on_the_hash_seed():
    frames = []
    for hash_seed in ("1", "2", "3"):
        result = subprocess.run(
            [sys.executable, "-c", _FRAME_SCRIPT.format(src=REPO_SRC)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": str(Path(REPO_SRC).parent)},
            capture_output=True, text=True, check=True, timeout=60,
        )
        frames.append(result.stdout)
    assert len(frames[0]) > 200
    assert frames[0] == frames[1] == frames[2]
    body = bytes.fromhex(frames[0])
    ordered = sorted(["door-front", "motion-hall", "temp", "window-3", "a", "zz", "smoke"])
    # A v3 str value: tag "s", u32 length, UTF-8.
    positions = [body.index(b"s" + struct.pack(">I", len(sensor)) + sensor.encode())
                 for sensor in ordered]
    assert positions == sorted(positions)
