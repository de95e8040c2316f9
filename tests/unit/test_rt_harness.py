"""The fault surface ``LocalCluster`` and ``ProcessHome`` share.

One implementation (:class:`repro.rt.harness.RtHarness`): validate, then
mutate, then record. A refused fault raises ``FaultError``, as the
simulated ``Home`` does, and must leave no trace record and keep the run
fault-free. None of this needs a socket or a subprocess, so both
harnesses are exercised unstarted.
"""

import pytest

from repro.apps.scenarios import scenario_named
from repro.rt import LocalCluster
from repro.rt.cluster import build_cluster
from repro.rt.harness import RtHarness
from repro.rt.proc import ProcessHome
from repro.sim.faults import FaultError


def _cluster(**kwargs) -> LocalCluster:
    cluster = LocalCluster(**kwargs)
    for name in ("p0", "p1", "p2"):
        cluster.add_process(name)
    cluster.add_push_sensor("m1", receivers=["p0", "p1"])
    return cluster


HARNESSES = {
    "cluster": lambda: _cluster(use_proxy=True),
    "processes": lambda: ProcessHome(scenario_named("smoke3")),
}


@pytest.fixture(params=sorted(HARNESSES))
def harness(request) -> RtHarness:
    return HARNESSES[request.param]()


def _untouched(harness: RtHarness) -> bool:
    return (
        not harness.trace.events and not harness.trace.counts
        and harness._fault_free and harness._lossless
        and not harness._emit_loss
    )


def test_unknown_names_are_refused_before_anything_changes(harness):
    with pytest.raises(FaultError, match="ghost"):
        harness.set_partition([["p0", "ghost"], ["p1"]])
    with pytest.raises(FaultError, match="ghost"):
        harness.set_link_loss("m1", "ghost", 0.5)
    with pytest.raises(FaultError, match="nope"):
        harness.set_link_loss("nope", "p0", 0.5)
    with pytest.raises(FaultError, match="p2"):
        harness.set_link_loss("m1", "p2", 0.5)  # m1 is not heard by p2
    with pytest.raises(FaultError, match="p0"):
        harness.set_link_loss("p0", "p0", 0.5)  # no link to itself
    with pytest.raises(FaultError, match=r"\[0, 1\]"):
        harness.set_link_loss("m1", "p0", 1.5)
    with pytest.raises(FaultError, match=r"\[0, 1\]"):
        harness.set_link_loss("p0", "p1", -0.1)
    with pytest.raises(FaultError, match="ghost"):
        harness.crash_process("ghost")
    with pytest.raises(FaultError, match="not running"):
        harness.crash_process("p0")  # declared, but no node runs it
    assert _untouched(harness)


def test_proxy_faults_without_a_proxy_are_refused_and_leave_no_record(harness):
    assert harness.proxy is None  # never started
    with pytest.raises(RuntimeError, match="proxy"):
        harness.set_partition([["p0"], ["p1", "p2"]])
    with pytest.raises(RuntimeError, match="proxy"):
        harness.heal_partition()
    with pytest.raises(RuntimeError, match="proxy"):
        harness.set_link_loss("p0", "p1", 0.5)
    with pytest.raises(RuntimeError, match="proxy"):
        harness.set_peer_delay("p0", "p1", 0.01)
    assert _untouched(harness)


def test_emit_loss_is_the_same_on_both_harnesses(harness):
    harness.set_link_loss("m1", "p0", 0.0)
    assert harness._fault_free and harness._lossless
    harness.set_link_loss("m1", "p0", 0.25)
    assert harness._emit_loss == {("m1", "p0"): 0.25}
    assert not harness._fault_free and not harness._lossless
    assert not harness.trace.events  # a radio loss is not a trace record


@pytest.mark.parametrize("build", [
    lambda scenario: build_cluster(scenario, seed=42),
    lambda scenario: ProcessHome(scenario),
], ids=["cluster", "processes"])
def test_a_poll_sensor_has_no_lossy_link_on_either_harness(build):
    # t1's readings are poll replies, never emit injections: emit loss on
    # it would be accepted and do nothing, so both harnesses refuse it.
    harness = build(scenario_named("parity4"))
    with pytest.raises(FaultError, match="'t1' -> 'hub'"):
        harness.set_link_loss("t1", "hub", 0.5)
    assert _untouched(harness)
