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
:class:`UnsupportedFaultAction` at scheduling time, or are skipped and
reported when ``skip_unsupported=True``. Failing loudly by default keeps
cross-validation honest: an rt campaign silently ignoring half its plan
would "agree" with anything. Supporting one more kind is one harness
method of that name plus one :data:`SUPPORTED_ACTIONS` entry.
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

    def __init__(
        self,
        cluster: RtHarness,
        *,
        time_scale: float = 1.0,
        skip_unsupported: bool = False,
    ) -> None:
        self.cluster = cluster
        self.time_scale = time_scale
        self.skip_unsupported = skip_unsupported
        self.skipped: list[tuple[float, str]] = []
        self._handles: list[asyncio.TimerHandle] = []
        self._tasks: set[asyncio.Task] = set()

    def schedule(self, plan: FaultPlan) -> None:
        """Arm every supported action at ``action.at * time_scale`` seconds."""
        loop = asyncio.get_running_loop()
        for action in plan.actions:
            if action.kind not in SUPPORTED_ACTIONS:
                if self.skip_unsupported:
                    self.skipped.append((action.at, action.kind))
                    continue
                raise UnsupportedFaultAction(
                    f"rt harness cannot inject {action.kind!r} "
                    f"(supported: {sorted(SUPPORTED_ACTIONS)})"
                )
            delay = action.at * self.time_scale
            handle = loop.call_later(delay, self._fire, action.kind, action.args)
            self._handles.append(handle)

    def cancel(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    async def drain(self) -> None:
        """Wait for any in-flight awaitable action (a crash) to finish."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def _fire(self, kind: str, args: tuple) -> None:
        result = getattr(self.cluster, kind)(*args)
        if inspect.isawaitable(result):
            task = asyncio.ensure_future(result)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
