"""Drive a declarative :class:`~repro.sim.faults.FaultPlan` against a real cluster.

The simulator applies fault plans in virtual time; this driver applies the
same plans to an :class:`~repro.rt.harness.RtHarness` — a
:class:`~repro.rt.cluster.LocalCluster` or a
:class:`~repro.rt.proc.ProcessHome` — in *wall-clock* time. An action's
kind is the harness method it calls, as on the simulated
:class:`~repro.core.home.Home`; only the mechanism differs:

====================  =====================================================
plan action           rt mechanism
====================  =====================================================
``crash_process``     crash-stop the node (SIGKILL in subprocess harnesses)
``set_partition``     proxy swallows frames crossing group boundaries
``heal_partition``    proxy forwards everything again
``set_link_loss``     sensor->process: drop injections at ``emit``;
                      process->process: seeded frame drops in the proxy,
                      both directions
====================  =====================================================

Actions the real runtime cannot perform yet (process recovery, soft device
faults — there is no simulated device to degrade) raise
:class:`UnsupportedFaultAction` at scheduling time: an rt campaign silently
ignoring half its plan would "agree" with anything. A fault the harness
refuses when it fires (a :class:`~repro.sim.faults.FaultError`, or a crash
that fails) is kept, and :meth:`RtFaultDriver.drain` raises it, as
``run_until`` does on the simulator. Supporting one more kind is one
harness method of that name plus one :data:`SUPPORTED_ACTIONS` entry.
"""

from __future__ import annotations

import asyncio
import inspect

from repro.rt.harness import RtHarness
from repro.sim.faults import FaultPlan


class UnsupportedFaultAction(ValueError):
    """The fault plan asks for something the rt harness cannot inject."""


#: Plan action kinds the driver can realize against a live cluster.
SUPPORTED_ACTIONS = frozenset({
    "crash_process", "set_partition", "heal_partition", "set_link_loss",
})


class RtFaultDriver:
    """Schedules a fault plan's actions on the cluster's event loop."""

    def __init__(self, cluster: RtHarness) -> None:
        self.cluster = cluster
        self._handles: list[asyncio.TimerHandle] = []
        self._tasks: set[asyncio.Task] = set()
        self._error: Exception | None = None

    def schedule(self, plan: FaultPlan) -> None:
        """Arm every action ``action.at`` seconds from now; refuse the whole
        plan if it holds a kind the harness cannot inject."""
        unsupported = sorted({a.kind for a in plan.actions} - SUPPORTED_ACTIONS)
        if unsupported:
            raise UnsupportedFaultAction(
                f"rt harness cannot inject {unsupported} "
                f"(supported: {sorted(SUPPORTED_ACTIONS)})"
            )
        loop = asyncio.get_running_loop()
        for action in plan.actions:
            self._handles.append(
                loop.call_later(action.at, self._fire, action.kind, action.args)
            )

    def cancel(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    async def drain(self) -> None:
        """Wait for any in-flight crash, then raise the first fault that
        failed, if one did."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._error is not None:
            raise self._error

    def _fire(self, kind: str, args: tuple) -> None:
        try:
            result = getattr(self.cluster, kind)(*args)
        except Exception as exc:
            self._fail(exc)
            return
        if inspect.isawaitable(result):
            task = asyncio.ensure_future(result)
            self._tasks.add(task)
            task.add_done_callback(self._settled)

    def _settled(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._fail(task.exception())

    def _fail(self, exc: Exception) -> None:
        if self._error is None:
            self._error = exc
