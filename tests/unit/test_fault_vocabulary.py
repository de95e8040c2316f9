"""One fault vocabulary: a plan action's kind is the method it calls.

Every kind a :class:`FaultPlan` builder emits is a method of the simulated
:class:`Home`; every kind the rt driver declares supported is a method of
:class:`RtHarness`, which the driver calls by that name; any other kind is
refused when the plan is scheduled, and a fault the harness refuses when
it fires is raised by ``drain()``: never silently dropped.
"""

import asyncio
import inspect

import pytest

from repro.core.home import Home
from repro.rt.faults import SUPPORTED_ACTIONS, RtFaultDriver, UnsupportedFaultAction
from repro.rt.harness import RtHarness
from repro.sim.faults import PAIRED_KINDS, FaultError, FaultPlan


def builder_kinds() -> set[str]:
    """The kind of every fluent builder (a method taking keyword ``at``)."""
    kinds = set()
    for name, method in inspect.getmembers(FaultPlan, inspect.isfunction):
        params = inspect.signature(method).parameters
        at = params.get("at")
        if name.startswith("_") or at is None or at.kind is not at.KEYWORD_ONLY:
            continue
        positional = [p for p in params.values()
                      if p.kind is p.POSITIONAL_OR_KEYWORD][1:]  # drop self
        plan = method(FaultPlan(), *["x"] * len(positional), at=1.0)
        kinds.update(action.kind for action in plan.actions)
    return kinds


def test_every_builder_kind_is_a_home_method():
    kinds = builder_kinds()
    assert {"crash_process", "set_partition", "brownout"} <= kinds
    assert kinds >= set(PAIRED_KINDS) | set(PAIRED_KINDS.values())
    assert [k for k in sorted(kinds) if not callable(getattr(Home, k, None))] == []


def test_every_supported_rt_kind_is_a_harness_method():
    assert SUPPORTED_ACTIONS <= builder_kinds()
    missing = [k for k in sorted(SUPPORTED_ACTIONS)
               if not callable(getattr(RtHarness, k, None))]
    assert missing == []


class _Recorder:
    """Answers every kind with a method that logs its call; a crash returns
    an awaitable, as the harness's does."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.crashed: list[str] = []

    def __getattr__(self, kind):
        def method(*args):
            self.calls.append((kind, *args))
            if kind == "crash_process":
                return self._kill(*args)
        return method

    async def _kill(self, name):
        await asyncio.sleep(0)
        self.crashed.append(name)


@pytest.mark.parametrize("kind", sorted(builder_kinds() - SUPPORTED_ACTIONS))
def test_the_driver_refuses_any_other_kind(kind):
    plan = FaultPlan().heal(at=1.0).add(2.0, kind, "x")

    async def schedule():
        driver = RtFaultDriver(_Recorder())
        with pytest.raises(UnsupportedFaultAction, match=kind):
            driver.schedule(plan)
        assert driver._handles == []  # refused whole: the heal is not armed

    asyncio.run(schedule())


def test_the_driver_calls_each_kind_by_name_and_awaits_a_crash():
    plan = (FaultPlan()
            .set_link_loss("m1", "p0", 0.5, at=0.0)
            .partition([["p0"], ["p1", "p2"]], at=0.0)
            .crash("p2", at=0.0)
            .heal(at=0.0))
    harness = _Recorder()

    async def drive():
        driver = RtFaultDriver(harness)
        driver.schedule(plan)
        await asyncio.sleep(0.01)
        await driver.drain()

    asyncio.run(drive())
    assert harness.calls == [
        ("set_link_loss", "m1", "p0", 0.5),
        ("set_partition", (("p0",), ("p1", "p2"))),
        ("crash_process", "p2"),
        ("heal_partition",),
    ]
    assert harness.crashed == ["p2"]


class _Refuser:
    """A harness that refuses every fault: ``set_link_loss`` on the call,
    ``crash_process`` when its kill is awaited."""

    def set_link_loss(self, *args):
        raise FaultError(f"no link {args[0]!r} -> {args[1]!r}")

    def crash_process(self, name):
        async def kill():
            raise FaultError(f"cannot crash {name!r}: not running")
        return kill()


@pytest.mark.parametrize("plan", [
    FaultPlan().set_link_loss("ghost", "p0", 0.5, at=0.0),
    FaultPlan().crash("p0", at=0.0),
], ids=["sync", "async"])
def test_drain_raises_the_fault_the_harness_refused(plan):
    async def drive():
        driver = RtFaultDriver(_Refuser())
        driver.schedule(plan)
        await asyncio.sleep(0.01)
        await driver.drain()

    with pytest.raises(FaultError):
        asyncio.run(drive())
