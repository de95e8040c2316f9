"""One Rivulet node as a real OS process: ``python -m repro.rt.child``.

The subprocess harness (:mod:`repro.rt.proc`) spawns one of these per
declared process, passing a JSON spec on the command line::

    python -m repro.rt.child --spec '{"scenario": "smoke3", "node": "p0", ...}'

The child boots an :class:`~repro.rt.node.AsyncRivuletNode` from the named
scenario in :data:`repro.apps.scenarios.SCENARIOS` and then serves the parent's
control messages on the node's ordinary wire port (control frames are
regular versioned frames, just with ``ctl/*`` kinds the protocol core
never uses):

- ``ctl/emit`` — inject one sensor :class:`~repro.core.events.Event`, as
  a local device adapter would;
- ``ctl/report`` — atomically write a JSON observation report (membership
  view, per-sensor delivery modes, activity counts) to the path the
  parent chose — cheap enough for quiescence polling;
- ``ctl/shutdown`` — stop the node and exit 0.

Being a real process is the point: the parent can SIGKILL it mid-run and
the survivors must detect the death over real TCP silence. Observations
must survive that kill, so the child does what a real deployment does:
every trace record and actuation is appended to an on-disk journal
(line-buffered, one JSON line per record). SIGKILL loses at most a
partially written final line — the page cache keeps the rest — and the
parent merges all journals, dead children's included, into the final
:class:`~repro.core.invariants.RunRecord`. The write happens *before*
any downstream protocol effect (watermark replication, acks), so a
record another process acts upon is always on disk. The journal is the
child's only full record: its in-memory trace keeps no record and only
counts, which is all a report reads.

The spec's ``origin`` is the parent's run-clock zero on ``loop.time()``
(``CLOCK_MONOTONIC``, machine-global), so the child stamps records,
poll readings and actuations on the parent's run clock.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
from typing import Any

from repro.apps.scenarios import scenario_named
from repro.core.events import Command
from repro.core.stack import RT_STACK
from repro.rt import wire
from repro.rt.cluster import QUIESCE_KINDS, thermometer_reading
from repro.rt.node import AsyncRivuletNode
from repro.sim.tracing import Trace

#: Activity kinds summarized in light reports: what ``LocalCluster.quiesce``
#: watches, minus the poll replies (steady-state traffic never settles).
LIGHT_COUNT_KINDS: tuple[str, ...] = tuple(
    kind for kind in QUIESCE_KINDS if kind != "poll_served"
)

#: Per-process offset that keeps poll sequence numbers globally unique
#: when a poll epoch straddles a coordinator change.
POLL_SEQ_STRIDE = 1_000_000


def _atomic_write_json(path: str, payload: dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


#: One journal line: plain ``json.dumps`` layout, the frames' tag table.
_journal_line = json.JSONEncoder(default=wire.tag_default).encode


class JournalTrace(Trace):
    """An aggregate-only Trace that appends every record to a line-buffered
    journal: the file keeps the records, memory only the counts.

    Line buffering flushes each record to the OS on the newline, so a
    SIGKILL loses nothing already recorded (the page cache survives the
    process); only a torn final line is possible, which readers skip.
    """

    def __init__(self, path: str) -> None:
        super().__init__(keep_kinds=set())
        self._journal = open(path, "a", encoding="utf-8", buffering=1)

    def record(self, time: float, kind: str, /, **fields: Any) -> None:
        super().record(time, kind, **fields)
        self._journal.write(_journal_line(["trace", time, kind, fields]) + "\n")

    def journal_actuation(self, time: float, actuator: str, command_id: tuple,
                          action: str, value: Any) -> None:
        self._journal.write(_journal_line(
            ["actuation", time, actuator, command_id, action, value]) + "\n")


class _ChildNode:
    """The node plus the parent-facing control surface."""

    def __init__(self, spec: dict[str, Any]) -> None:
        scenario = scenario_named(spec["scenario"])
        self.name = spec["node"]
        self.stop_event = asyncio.Event()
        self._origin = spec["origin"]
        trace_path = spec.get("trace_path")
        self.trace = JournalTrace(trace_path) if trace_path else Trace(keep_kinds=set())
        self._poll_seq = POLL_SEQ_STRIDE * scenario.processes.index(self.name)
        plan, device_info = scenario.rt_deployment()
        self.node = AsyncRivuletNode(
            self.name,
            spec["port"],
            {name: tuple(addr) for name, addr in spec["addresses"].items()},
            plan,
            device_info,
            dataclasses.replace(RT_STACK, **scenario.stack_fields()),
            seed=spec.get("seed", 42),
            on_actuate=self._on_actuate,
            poll_handler=self._serve_poll,
            trace=self.trace,
            origin=self._origin,
        )

    # -- device plumbing ---------------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_event_loop().time() - self._origin

    def _on_actuate(self, command: Command) -> None:
        if isinstance(self.trace, JournalTrace):
            self.trace.journal_actuation(
                self._now(), command.actuator_id, command.command_id,
                command.action, command.value,
            )

    def _serve_poll(self, sensor: str, respond) -> None:
        self._poll_seq += 1
        seq = self._poll_seq
        event = thermometer_reading(sensor, seq, self._now())
        self.trace.record(self._now(), "poll_served", sensor=sensor, seq=seq)
        respond(event)

    # -- control handlers --------------------------------------------------------

    def _ctl_emit(self, message) -> None:
        self.node.inject_event(message.payload["event"])

    def _ctl_report(self, message) -> None:
        payload = message.payload
        _atomic_write_json(payload["path"], self._report(payload["token"]))

    def _ctl_shutdown(self, message) -> None:
        self.stop_event.set()

    def _report(self, token: str) -> dict[str, Any]:
        """The live-state snapshot: view, delivery modes, activity counts.

        Trace records and actuations are NOT here — they flow through the
        on-disk journal so they survive SIGKILL.
        """
        node = self.node
        return {
            "token": token,
            "node": self.name,
            "view": sorted(node.heartbeat.view.members) if node.heartbeat else [],
            "counts": {kind: self.trace.count(kind) for kind in LIGHT_COUNT_KINDS},
            "sensor_modes": (
                {sensor: instance.guarantee_name
                 for sensor, instance in node.delivery.instances.items()}
                if node.delivery is not None else {}
            ),
        }

    # -- lifecycle --------------------------------------------------------------

    async def run(self) -> None:
        node = self.node
        node.register_handler("ctl/emit", self._ctl_emit)
        node.register_handler("ctl/report", self._ctl_report)
        node.register_handler("ctl/shutdown", self._ctl_shutdown)
        await node.start()
        try:
            await self.stop_event.wait()
        finally:
            await node.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.rt.child")
    parser.add_argument("--spec", required=True,
                        help="JSON node spec from the parent harness")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    asyncio.run(_ChildNode(spec).run())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
