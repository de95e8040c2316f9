"""ProcessHome: one OS subprocess per Rivulet node, faults via real SIGKILL.

The strongest form of the rt harness: each declared process runs as a
separate Python interpreter (:mod:`repro.rt.child`), connected over real
localhost TCP — optionally through the :class:`~repro.rt.proxy.FaultProxy`
so links can be degraded per peer pair. Crashing a node is an actual
``SIGKILL``: no atexit handlers, no goodbye frames, just TCP silence that
the surviving processes must detect through missed keep-alives.

The parent is the observer. It records device-side trace kinds
(``sensor_emit``, ``crash``, ``partition``) plus the proxy's ``net_send``
/ ``net_drop`` accounting. Each child appends its own trace records and
actuations to an on-disk journal (see :class:`repro.rt.child.JournalTrace`)
that survives SIGKILL, so the merged record keeps the evidence of work a
dead node demonstrably did — just like reading a bricked hub's log file
post-mortem. Live-state facts that cannot outlive a process (membership
view, negotiated delivery modes) are harvested from surviving children's
reports only.

Timestamps merge cleanly because ``loop.time()`` is ``CLOCK_MONOTONIC``,
which is machine-global on Linux: the parent hands each child its start
instant as the spec's ``origin``, so parent and children all stamp on one
run clock, and the merged record is run-relative as written. The parent's
trace, like every rt harness's, keeps only the oracle kinds; the merge
re-records the kept and journaled records once, in time order, and adds
the parent's counts of the rest (the proxy's ``net_send``/``net_drop``).

It shares :class:`~repro.rt.harness.RtHarness` with
:class:`~repro.rt.cluster.LocalCluster` — one ``emit`` (a
:class:`ProcessNode` injects an event as a ``ctl/emit`` frame), one fault
surface, one ``wait_for`` — and answers ``nodes`` / ``quiesce`` /
``run_record`` the same way, so :class:`~repro.rt.faults.RtFaultDriver`
and the scenario driver in :mod:`repro.eval.rt` work on either harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import uuid
from typing import Any

import repro
from repro.apps.scenarios import SCENARIOS
from repro.core.events import Event
from repro.core.invariants import ORACLE_TRACE_KINDS, GroundTruth, RunRecord
from repro.core.scenario import Scenario
from repro.net.message import Message
from repro.rt import wire
from repro.rt.cluster import bound_socket
from repro.rt.harness import RtHarness
from repro.sim.tracing import Trace


def _read_journal(path: str) -> list[list]:
    """Parse a child's journal, skipping a torn (SIGKILL-cut) final line."""
    entries: list[list] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    entries.append(json.loads(line, object_hook=wire.untag_hook))
                except json.JSONDecodeError:
                    break  # torn tail: everything before it is intact
    except OSError:
        pass  # child died before writing anything
    return entries


class ProcessNode:
    """Parent-side handle for one child process."""

    def __init__(self, name: str, port: int, popen: subprocess.Popen,
                 stderr_path: str) -> None:
        self.name = name
        self.port = port
        self.popen = popen
        self.stderr_path = stderr_path
        self.alive = True
        self.writer: asyncio.StreamWriter | None = None

    @property
    def pid(self) -> int:
        return self.popen.pid

    def ctl(self, kind: str, payload: dict[str, Any]) -> None:
        """Fire one control frame at the child (best-effort, like a device)."""
        if self.writer is None or self.writer.is_closing():
            return
        frame = wire.encode_message(
            Message(kind=kind, src="parent", dst=self.name, payload=payload)
        )
        try:
            self.writer.write(frame)
        except (OSError, ConnectionError):
            pass

    def inject_event(self, event: Event) -> None:
        """Hand one sensor event to the child's delivery service."""
        self.ctl("ctl/emit", {"event": event})

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            with open(self.stderr_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                return fh.read()[-limit:]
        except OSError:
            return ""


class ProcessHome(RtHarness):
    """A scenario home where every Rivulet process is an OS process."""

    nodes: dict[str, ProcessNode]

    def __init__(
        self,
        scenario: Scenario,
        *,
        seed: int = 42,
        use_proxy: bool = True,
        python: str | None = None,
    ) -> None:
        if scenario.name not in SCENARIOS:
            raise ValueError(
                f"subprocess mode needs a registered scenario (a child "
                f"looks its home up by name), got {scenario.name!r}"
            )
        super().__init__(seed=seed, use_proxy=use_proxy)
        self.scenario = scenario
        self.python = python or sys.executable
        self._process_names = scenario.processes
        self._push_receivers = scenario.push_sensors
        self.workdir: str | None = None
        self._report_token = itertools.count(1)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.workdir = tempfile.mkdtemp(prefix="rivulet-rt-")
        # Every child's port stays bound here until the proxy has its own
        # ephemeral listeners, so it cannot be handed one of them; the
        # children bind theirs after the release.
        with contextlib.ExitStack() as held:
            addresses = {name: held.enter_context(bound_socket()).getsockname()
                         for name in self._process_names}
            await self._start_proxy(addresses)

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src_dir
        )
        for name in self._process_names:
            peer_addresses = self._peer_addresses(name, addresses)
            spec = {
                "scenario": self.scenario.name,
                "node": name,
                "port": addresses[name][1],
                "addresses": {p: list(a) for p, a in peer_addresses.items()},
                "seed": self.seed,
                "origin": self._t0,
                "trace_path": os.path.join(self.workdir, f"{name}.journal"),
            }
            stderr_path = os.path.join(self.workdir, f"{name}.stderr")
            with open(stderr_path, "wb") as stderr:  # the child keeps its copy
                popen = subprocess.Popen(
                    [self.python, "-m", "repro.rt.child", "--spec",
                     json.dumps(spec)],
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    env=env,
                )
            self.nodes[name] = ProcessNode(name, addresses[name][1], popen, stderr_path)
        for node in self.nodes.values():
            await self._connect_control(node)

    async def _connect_control(self, node: ProcessNode, *,
                               timeout: float = 15.0) -> None:
        """Dial the child's real port; this connection carries ctl frames."""
        deadline = self.now() + timeout
        while True:
            if node.popen.poll() is not None:
                raise RuntimeError(
                    f"child {node.name!r} exited at startup "
                    f"(rc={node.popen.returncode}):\n{node.stderr_tail()}"
                )
            try:
                _reader, node.writer = await asyncio.open_connection(
                    "127.0.0.1", node.port
                )
                return
            except OSError:
                if self.now() >= deadline:
                    raise RuntimeError(
                        f"child {node.name!r} did not open its port within "
                        f"{timeout}s:\n{node.stderr_tail()}"
                    ) from None
                await asyncio.sleep(0.05)

    async def stop(self) -> None:
        for node in self.nodes.values():
            if node.alive:
                node.ctl("ctl/shutdown", {})
        await asyncio.sleep(0)  # let writes flush before waiting
        for node in self.nodes.values():
            if node.popen.poll() is None:
                try:
                    await asyncio.wait_for(
                        asyncio.to_thread(node.popen.wait, timeout=3.0), 4.0
                    )
                except (subprocess.TimeoutExpired, asyncio.TimeoutError):
                    node.popen.kill()
                    await asyncio.to_thread(node.popen.wait)
            node.alive = False
            if node.writer is not None:
                node.writer.close()
                node.writer = None
        if self.proxy is not None:
            await self.proxy.stop()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    # -- fault injection -----------------------------------------------------------

    async def _kill(self, node: ProcessNode) -> None:
        """SIGKILL a child: no cleanup, no goodbye — real TCP silence."""
        node.popen.kill()
        node.alive = False
        await asyncio.to_thread(node.popen.wait)
        if node.writer is not None:
            node.writer.close()
            node.writer = None

    # -- observation ---------------------------------------------------------------

    async def _harvest(self, *, timeout: float = 6.0) -> dict[str, dict]:
        """Request a state report from every live child; return name -> report."""
        assert self.workdir is not None, "home not started"
        token = f"{next(self._report_token)}-{uuid.uuid4().hex[:8]}"
        paths: dict[str, str] = {}
        for name, node in self.nodes.items():
            if not node.alive:
                continue
            path = os.path.join(self.workdir, f"report-{name}-{token}.json")
            paths[name] = path
            node.ctl("ctl/report", {"path": path, "token": token})
        reports: dict[str, dict] = {}
        deadline = self.now() + timeout
        pending = dict(paths)
        while pending and self.now() < deadline:
            for name, path in list(pending.items()):
                if not self.nodes[name].alive:  # killed mid-harvest
                    del pending[name]
                    continue
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        report = json.load(fh)
                except (OSError, json.JSONDecodeError):
                    continue
                if report.get("token") == token:
                    reports[name] = report
                    del pending[name]
            if pending:
                await asyncio.sleep(0.05)
        if pending:
            raise TimeoutError(
                f"no report from {sorted(pending)} within {timeout}s"
            )
        return reports

    async def views(self) -> dict[str, list[str]]:
        """Live children's current membership views (one report each)."""
        reports = await self._harvest()
        return {name: report["view"] for name, report in reports.items()}

    async def quiesce(
        self,
        *,
        idle_for: float = 0.4,
        timeout: float = 10.0,
        poll: float = 0.25,
    ) -> bool:
        """True once children's activity counters stop moving for ``idle_for``."""
        async def counts() -> dict[str, dict]:
            reports = await self._harvest(timeout=max(2.0, poll * 4))
            return {name: report["counts"] for name, report in sorted(reports.items())}

        return await self._until_idle(
            counts, idle_for=idle_for, timeout=timeout, poll=poll,
        )

    async def run_record(
        self,
        *,
        ground_truth: GroundTruth | None = None,
        fault_free: bool | None = None,
        lossless: bool | None = None,
    ) -> RunRecord:
        """Harvest the survivors and assemble the merged record."""
        from repro.core.records import build_run_record

        reports = await self._harvest(timeout=8.0)
        entries: list[tuple[float, str, dict]] = [
            (event.time, event.kind, event.fields) for event in self.trace.events
        ]
        actuations: list[tuple[str, tuple, float]] = []
        applied: list[tuple[str, str, Any, float]] = []
        alive = {name: node.alive for name, node in self.nodes.items()}
        views: dict[str, frozenset[str]] = {}
        sensor_modes: dict[str, str] = {}
        for name, report in sorted(reports.items()):
            views[name] = frozenset(report["view"])
            for sensor, mode in report.get("sensor_modes", {}).items():
                sensor_modes.setdefault(sensor, mode)
        # Journals survive SIGKILL: read every node's, dead ones included.
        for name in self._process_names:
            path = os.path.join(self.workdir or "", f"{name}.journal")
            for entry in _read_journal(path):
                if entry[0] == "trace":
                    _tag, t, kind, fields = entry
                    entries.append((t, kind, fields))
                elif entry[0] == "actuation":
                    _tag, t, actuator, command_id, action, value = entry
                    actuations.append((actuator, tuple(command_id), t))
                    applied.append((actuator, action, value, t))
        merged = Trace(keep_kinds=set(ORACLE_TRACE_KINDS))
        for t, kind, fields in sorted(entries, key=lambda item: item[0]):
            merged.record(t, kind, **fields)
        merged.add_counts(self.trace)
        return build_run_record(
            merged,
            apps=self.scenario.make_apps(),
            alive=alive,
            views=views,
            sensor_modes=sensor_modes,
            actuations=actuations,
            applied_actions=applied,
            ground_truth=ground_truth,
            fault_free=self._fault_free if fault_free is None else fault_free,
            lossless=self._lossless if lossless is None else lossless,
        )
