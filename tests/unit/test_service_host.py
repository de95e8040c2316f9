"""The contract of :class:`repro.core.stack.ServiceHost`.

Both runtimes are one host class plus how they move bytes and time, so
what a service may assume of its environment is checked once, over a
started simulator process and a booted asyncio node (no socket needed:
``boot_services()`` only wants a running loop).
"""

import asyncio
import dataclasses

import pytest

from repro.core.delivery import PollMode
from repro.core.delivery_service import GaplessOptions
from repro.core.home import Home
from repro.core.scenario import rt_deployment
from repro.core.stack import RT_STACK, ServiceHost, StackConfig
from repro.membership.heartbeat import HeartbeatService
from repro.rt import LocalCluster
from repro.rt.node import AsyncRivuletNode
from repro.sim.random import RandomSource

PROCESSES = ("hub", "tv", "fridge")
SLOTS = ("heartbeat", "kv", "execution", "delivery")
SEED = 7

#: Every field away from its default, so a forgotten one shows.
CUSTOM = StackConfig(
    heartbeat_interval=0.3,
    failure_detection_s=1.7,
    delivery_override={"door1": "naive-broadcast"},
    gapless_options=GaplessOptions(fallback_enabled=False, sync_enabled=False),
    poll_mode_override=PollMode.UNCOORDINATED,
    active_replicas=2,
    kv_sync_interval=11.0,
)


def _sim_host(**stack) -> ServiceHost:
    home = Home(seed=SEED, **stack)
    for name in PROCESSES:
        home.add_process(name)
    home.add_sensor("door1", kind="door")
    return home.start().processes["hub"]


def _rt_host(**stack) -> ServiceHost:
    plan, device_info = rt_deployment(PROCESSES, {"door1": PROCESSES}, {}, {}, [])
    node = AsyncRivuletNode(
        "hub", 0, {}, plan, device_info,
        dataclasses.replace(RT_STACK, **stack), seed=SEED,
    )

    async def boot() -> None:
        node.boot_services()

    asyncio.run(boot())
    return node


HOSTS = {"sim": (_sim_host, "process/hub"), "rt": (_rt_host, "node/hub")}


@pytest.fixture(params=sorted(HOSTS))
def runtime(request) -> str:
    return request.param


def test_both_runtimes_offer_the_same_service_surface(runtime, monkeypatch):
    seen = []
    real_start = HeartbeatService.start

    def start(self):
        # The first service to start: a handler registered from here on can
        # already reach every other service through the env.
        seen.append([getattr(self._env, slot) is not None for slot in SLOTS])
        real_start(self)

    monkeypatch.setattr(HeartbeatService, "start", start)
    build, rng_path = HOSTS[runtime]
    host = build()

    assert seen and all(all(installed) for installed in seen)
    assert host.heartbeat._env is host.kv._env is host
    assert host.delivery._ctx.store is host.store
    assert host.kv._backend is host.kv_backend
    assert host.peers() == [p for p in host.plan.processes if p != "hub"] == ["fridge", "tv"]
    stream = host.rng("election")
    assert host.rng("election") is stream is not host.rng("backoff")
    expected = RandomSource(SEED).child(rng_path).child("election")
    assert [stream.random() for _ in range(3)] == [expected.random() for _ in range(3)]


def test_boot_services_reads_every_stack_field(runtime):
    assert all(
        getattr(CUSTOM, f.name) != getattr(StackConfig(), f.name)
        for f in dataclasses.fields(StackConfig)
    ), "a new StackConfig field needs a non-default value here and a reader below"
    build, _ = HOSTS[runtime]
    host = build(**vars(CUSTOM))

    read = {
        "heartbeat_interval": host.heartbeat.interval,
        "failure_detection_s": host.heartbeat.timeout,
        "delivery_override": host.delivery._override,
        "gapless_options": host.delivery._gapless_options,
        "poll_mode_override": host.delivery._poll_mode_override,
        "active_replicas": host.execution.active_replicas,
        "kv_sync_interval": host.kv.sync_interval,
    }
    assert read == {f.name: getattr(CUSTOM, f.name) for f in dataclasses.fields(StackConfig)}
    assert host.delivery._ctx.active_replicas == CUSTOM.active_replicas


def test_local_cluster_options_reach_every_node():
    """At the parent ``kv_sync_interval`` was a TypeError, and the node ran
    the 5.0 s default whatever the caller wanted."""
    cluster = LocalCluster(
        kv_sync_interval=0.4, active_replicas=2,
        poll_mode_override=PollMode.UNCOORDINATED, failure_detection_s=0.9,
    )
    for name in PROCESSES:
        cluster.add_process(name)
    cluster.add_push_sensor("door1")
    assert cluster.config.heartbeat_interval == RT_STACK.heartbeat_interval

    async def boot():
        async with cluster:
            return [
                (node.kv.sync_interval, node.execution.active_replicas,
                 node.delivery._poll_mode_override, node.heartbeat.timeout,
                 node.heartbeat.interval)
                for node in cluster.nodes.values()
            ]

    assert asyncio.run(boot()) == [
        (0.4, 2, PollMode.UNCOORDINATED, 0.9, RT_STACK.heartbeat_interval)
    ] * 3
    with pytest.raises(TypeError, match="event_size"):
        cluster.add_push_sensor("m1", event_size=4)
    with pytest.raises(TypeError, match="heartbeat_period"):
        LocalCluster(heartbeat_period=1.0)


def test_counters_of_a_replaced_stack_are_kept():
    host = _sim_host()
    host._scheduler.run_until(5.0)
    before = host.service_counters()
    assert before["view_builds"] == host.heartbeat.view_builds >= 1
    assert before["route_builds"] == 1
    host.crash()
    host.recover()
    after = host.service_counters()
    assert after["route_builds"] == 2 and host.execution.route_builds == 1
    assert after["view_builds"] == before["view_builds"] + host.heartbeat.view_builds
