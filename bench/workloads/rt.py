"""``rt_closed`` and ``rt_open``: a 3-node home over real localhost TCP.

Both drive one in-process :class:`LocalCluster` behind the fault proxy
(the PR 10 chaos-tested configuration and the only rt network observer).
Sensors are received by ``p1`` and ``p2``; the apps and their actuators
live on ``p0``, so every event crosses the wire before it actuates. The
benchmark's own apps actuate the event's index, which is how an
actuation is matched to its emission using only public surface:
``LocalCluster.emit``, ``quiesce``, ``run_record``, ``node(..).actuations``,
``proxy.stats`` and a kind-scoped trace subscriber.

- ``rt_closed`` keeps 16 Gapless events outstanding until 8 000 are
  actuated: it saturates the single event loop, so it measures capacity.
  Every 500 completions are a slice.
- ``rt_open`` emits two sensors (``m1`` Gapless, ``d1`` Gap) at 200 ev/s
  each from a seeded script of jittered-periodic arrivals and times every
  event from when it was *due*: at ~15% of saturation only the critical
  path moves the median, and the generator's own lateness is reported
  beside it. Every 160 scripted events are a slice.

A repetition is a fresh cluster: built, started, one event actuated end to
end (that is its set-up), warmed with 200 events per sensor, then measured,
quiesced and judged by every oracle.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import gc
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.core import invariants
from repro.core.delivery import GAP, GAPLESS, Delivery
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.rt.cluster import LocalCluster

from bench.harness import (
    REFERENCE_SPIN_NS, Outcome, Sizing, Slice, percentile, spin_ns,
)

PROCESSES = ("p0", "p1", "p2")
RECEIVERS = ["p1", "p2"]
CLOSED_WINDOW = 16
CLOSED_EVENTS = 8_000
CLOSED_SLICE = 500
OPEN_RATE_PER_SENSOR = 200.0
OPEN_SECONDS = 2.4
OPEN_SLICE = 160
QUICK_CLOSED_EVENTS = 1_000
QUICK_OPEN_SECONDS = 1.2
WARMUP_EVENTS = 200
EDGE_SPINS = 5
#: Warm-up events carry values from here up, outside any ledger's indices.
WARMUP_BASE = 10**9

#: A repetition whose generator ran later than this (p99) would publish a
#: latency the generator caused, not the system: it is discarded and run
#: again, and a run that loses more than MAX_LATE_REPETITIONS is invalid.
MAX_GENERATOR_LAG_P99_MS = 20.0
MAX_LATE_REPETITIONS = 3
#: An event not actuated by the quiesce deadline counts as over any limit.
QUIESCE_TIMEOUT_S = 10.0
NEVER_MS = QUIESCE_TIMEOUT_S * 1e3


def _index_app(sensor: str, guarantee: Delivery) -> App:
    """Actuate ``a_<sensor>`` with the event's value (its index)."""
    actuator = f"a_{sensor}"

    def logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate(actuator, "set", events[-1].value)

    operator = Operator(f"Index_{sensor}", on_window=logic)
    operator.add_sensor(sensor, guarantee, CountWindow(1))
    operator.add_actuator(actuator, GAPLESS)
    # A second, never-used actuator on p0 lifts p0's placement score above
    # the receiving processes', pinning the app there (as the sim's
    # single_sensor_home does).
    operator.add_actuator(f"pin_{sensor}", GAPLESS)
    return App(f"app_{sensor}", operator)


def build_cluster(
    seed: int, sensors: dict[str, Delivery], *, use_proxy: bool = True
) -> LocalCluster:
    cluster = LocalCluster(seed=seed, use_proxy=use_proxy)
    for name in PROCESSES:
        cluster.add_process(name)
    for sensor, guarantee in sensors.items():
        cluster.add_push_sensor(sensor, receivers=list(RECEIVERS))
        cluster.add_actuator(f"a_{sensor}", hosts=["p0"])
        cluster.add_actuator(f"pin_{sensor}", hosts=["p0"])
        cluster.deploy(_index_app(sensor, guarantee))
    return cluster


async def _started_cluster(
    seed: int, sensors: dict[str, Delivery], use_proxy: bool
) -> LocalCluster:
    """Build a cluster and start it until every node sees every other.

    ``LocalCluster.start`` picks its node ports with ``free_port()`` and
    binds them only after the proxy has opened its own ephemeral listeners,
    so now and then (about one start in a few hundred) the kernel has handed
    a chosen port to someone else: on ``EADDRINUSE`` the cluster is built
    again.
    """
    everyone = frozenset(PROCESSES)
    attempts = 5
    while True:
        cluster = build_cluster(seed, sensors, use_proxy=use_proxy)
        try:
            await cluster.start()
            break
        except OSError as exc:
            attempts -= 1
            if exc.errno != errno.EADDRINUSE or not attempts:
                raise
            await cluster.stop()
    await cluster.wait_for(
        lambda: all(
            node.heartbeat is not None and node.heartbeat.view.members == everyone
            for node in cluster.nodes.values()
        ),
        timeout=15.0, poll=0.005,
    )
    return cluster


class _Ledger:
    """Emission/actuation bookkeeping for one run, indexed by event index."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.due_at = [0.0] * size
        self.emitted_at = [0.0] * size
        self.actuated_at = [0.0] * size
        self.actuations = [0] * size
        self.ident: list[tuple[str, int] | None] = [None] * size
        self.stray = 0
        #: Whether a slice boundary also reads the host's speed (closed loop).
        self.calibrate = False
        #: Per slice boundary (the start included): wall and process CPU when
        #: the slice before it ended, the calibration loop's ns/step there
        #: (None when not read), wall and CPU when the next slice began.
        self.checkpoints: list[tuple[float, float, float | None, float, float]] = []

    @property
    def exactly_once(self) -> int:
        return sum(1 for count in self.actuations if count == 1)

    def checkpoint(self) -> None:
        """A slice boundary; in a closed loop also a calibration loop.

        The loop blocks the event loop for ~7 ms. A closed loop has no
        schedule to fall behind, the 16 events in flight are 3% of a slice
        (its p50 and p90 do not see them), and the block is outside the
        slices' own time. Ten runs, same data: slices scaled by the loops
        around them ranged 5%, by loops at the repetition's edges 16%,
        unscaled 11%.
        """
        wall, cpu = time.perf_counter(), time.process_time()
        spin = spin_ns() if self.calibrate else None
        self.checkpoints.append(
            (wall, cpu, spin, time.perf_counter(), time.process_time()))

    def latency_ms(self, index: int, factor: float = 1.0) -> float:
        """Due time to actuation; the computing part divided by ``factor``.

        Waiting for the generator's timer does not get faster on a faster
        host, so only the time from emission to actuation is scaled.
        """
        if self.actuations[index] != 1:
            return NEVER_MS
        lag = self.emitted_at[index] - self.due_at[index]
        return (lag + (self.actuated_at[index] - self.emitted_at[index]) / factor) * 1e3

    def slices(self, key: str, size: int, edge_factor: float, paced: bool) -> list[Slice]:
        """One slice per checkpoint interval, with its own events' latencies.

        A slice is scaled by the calibration loops around it when the
        boundaries read them, else by the repetition's ``edge_factor``.
        """
        out: list[Slice] = []
        for k in range(len(self.checkpoints) - 1):
            _, _, spin0, wall0, cpu0 = self.checkpoints[k]
            wall1, cpu1, spin1, _, _ = self.checkpoints[k + 1]
            factor = (edge_factor if spin0 is None or spin1 is None
                      else (spin0 + spin1) / 2 / REFERENCE_SPIN_NS)
            own = [self.latency_ms(i, factor) for i in range(k * size, (k + 1) * size)]
            out.append(Slice(key, wall1 - wall0, cpu1 - cpu0, size, factor,
                             percentile(own, 0.5), percentile(own, 0.9), paced))
        return out

    def busy_share(self) -> float:
        """Process CPU over wall across the slices."""
        wall = cpu = 0.0
        for k in range(len(self.checkpoints) - 1):
            wall += self.checkpoints[k + 1][0] - self.checkpoints[k][3]
            cpu += self.checkpoints[k + 1][1] - self.checkpoints[k][4]
        return cpu / wall if wall else 0.0


class _ActuationTap:
    """Kind-scoped trace subscriber joining actuations to event indices.

    An emitted value is ``base + index``; ``base`` separates the warm-up's
    values from the measured run's, so a warm-up actuation can never be
    joined to a measured event.
    """

    def __init__(self, cluster: LocalCluster, loop: asyncio.AbstractEventLoop) -> None:
        self._cluster = cluster
        self._loop = loop
        self.ledger: _Ledger | None = None
        self.base = 0
        self.on_hit = None
        cluster.trace.subscribe(self._on_actuation, kinds=("actuation",))

    def watch(self, ledger: "_Ledger | None", base: int = 0) -> None:
        self.ledger = ledger
        self.base = base

    def _on_actuation(self, record) -> None:
        ledger = self.ledger
        if ledger is None:
            return
        now = self._loop.time()
        # The node appends the command before it records the actuation.
        command = self._cluster.node(record["process"]).actuations[-1]
        index = command.value - self.base if isinstance(command.value, int) else -1
        if not 0 <= index < ledger.size:
            ledger.stray += 1
            return
        ledger.actuations[index] += 1
        if ledger.actuations[index] == 1:
            ledger.actuated_at[index] = now
        if self.on_hit is not None:
            self.on_hit(index)


async def _closed_loop(
    cluster: LocalCluster, tap: _ActuationTap, sensor: str, ledger: _Ledger,
    *, base: int = 0, drop_index: int | None = None, timeout: float = 120.0,
) -> None:
    """Keep CLOSED_WINDOW events outstanding until the ledger is actuated."""
    loop = asyncio.get_running_loop()
    finished = asyncio.Event()
    count = ledger.size
    state = {"next": 0, "done": 0, "target": count}

    def emit_next() -> None:
        index = state["next"]
        if index >= count:
            return
        state["next"] = index + 1
        ledger.due_at[index] = ledger.emitted_at[index] = loop.time()
        if index == drop_index:
            # Self-test fault: the generator "loses" this event.
            state["target"] -= 1
            emit_next()
            return
        event = cluster.emit(sensor, base + index)
        ledger.ident[index] = (sensor, event.seq)

    def on_hit(_index: int) -> None:
        state["done"] += 1
        if state["done"] % CLOSED_SLICE == 0:
            ledger.checkpoint()
        if state["done"] >= state["target"]:
            finished.set()
        else:
            loop.call_soon(emit_next)

    tap.watch(ledger, base)
    tap.on_hit = on_hit
    ledger.checkpoint()
    for _ in range(min(CLOSED_WINDOW, count)):
        emit_next()
    try:
        async with asyncio.timeout(timeout):
            await finished.wait()
    except TimeoutError:
        pass  # the missing events count as failed operations
    tap.on_hit = None


def arrival_script(seed: int, sensors: list[str], seconds: float) -> list[tuple[float, str]]:
    """Seeded jittered-periodic arrivals per sensor, merged in due-time order.

    Event ``i`` of a sensor is due at a seeded uniform point of its own
    period, the way periodically reporting devices drift against each
    other: two sensors collide now and then, yet every slice of the script
    carries the same load.
    """
    script: list[tuple[float, str]] = []
    period = 1.0 / OPEN_RATE_PER_SENSOR
    for sensor in sensors:
        rng = random.Random(f"{seed}/{sensor}")
        for i in range(round(OPEN_RATE_PER_SENSOR * seconds)):
            script.append(((i + rng.random()) * period, sensor))
    script.sort()
    return script


async def _open_loop(
    cluster: LocalCluster, script: list[tuple[float, str]], ledger: _Ledger,
    drop_index: int | None,
) -> None:
    """Emit every scripted event at its due time, never drifting.

    Each wake-up sleeps until the next *absolute* due time and then emits
    everything already due, so one late wake-up does not delay the rest of
    the script.
    """
    loop = asyncio.get_running_loop()
    origin = loop.time()
    position = 0
    total = len(script)
    while position < total:
        wait = origin + script[position][0] - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        now = loop.time()
        while position < total and origin + script[position][0] <= now:
            if position % OPEN_SLICE == 0:
                ledger.checkpoint()
            due, sensor = script[position]
            ledger.due_at[position] = origin + due
            ledger.emitted_at[position] = now = loop.time()
            if position != drop_index:
                event = cluster.emit(sensor, position)
                ledger.ident[position] = (sensor, event.seq)
            position += 1
    ledger.checkpoint()


class LoopStallTicker:
    """A 5 ms ticker; its worst overshoot is the loop's longest stall."""

    PERIOD_S = 0.005

    def __init__(self) -> None:
        self.max_stall_s = 0.0
        self._task: asyncio.Task | None = None

    async def _tick(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.PERIOD_S)
            stall = loop.time() - before - self.PERIOD_S
            if stall > self.max_stall_s:
                self.max_stall_s = stall

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._tick())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass


def _hop_means(record, ledger: _Ledger) -> dict[str, float]:
    """Mean emit→ingest→logic→actuation hop times joined on (sensor, seq)."""
    emit: dict[tuple[str, int], float] = {}
    ingest: dict[tuple[str, int], float] = {}
    logic: dict[tuple[str, int], float] = {}
    for event in record.trace.of_kind("sensor_emit"):
        emit[(event["sensor"], event["seq"])] = event.time
    for event in record.trace.of_kind("ingest"):
        ingest.setdefault((event["sensor"], event["seq"]), event.time)
    for event in record.trace.of_kind("logic_delivery"):
        logic.setdefault((event["sensor"], event["seq"]), event.time)
    actuated: dict[tuple[str, int], float] = {}
    for _actuator, _action, value, at in record.applied_actions:
        if isinstance(value, int) and 0 <= value < ledger.size:
            ident = ledger.ident[value]
            if ident is not None:
                actuated.setdefault(ident, at)
    hops = [0.0, 0.0, 0.0]
    joined = 0
    for ident, at in actuated.items():
        if ident in emit and ident in ingest and ident in logic:
            hops[0] += ingest[ident] - emit[ident]
            hops[1] += logic[ident] - ingest[ident]
            hops[2] += at - logic[ident]
            joined += 1
    if not joined:
        return {}
    return {
        "rt.hop.emit_to_ingest_ms": hops[0] / joined * 1e3,
        "rt.hop.ingest_to_logic_ms": hops[1] / joined * 1e3,
        "rt.hop.logic_to_actuation_ms": hops[2] / joined * 1e3,
    }


def _journal_cost(record, events: int, scratch_dir) -> dict[str, float]:
    """Replay the run's records through ``JournalTrace.record`` into a file.

    The plain ``Trace.record`` replay is subtracted, so the figure is what
    the on-disk journal adds per record in a subprocess node.
    """
    from repro.rt.child import JournalTrace
    from repro.sim.tracing import Trace

    kept = list(record.trace.events)
    if not kept:
        return {}
    scratch_dir.mkdir(parents=True, exist_ok=True)
    path = scratch_dir / "journal-replay.jsonl"
    plain = Trace()
    start = time.perf_counter()
    for event in kept:
        plain.record(event.time, event.kind, **event.fields)
    plain_s = time.perf_counter() - start
    journal = JournalTrace(str(path))
    try:
        start = time.perf_counter()
        for event in kept:
            journal.record(event.time, event.kind, **event.fields)
        journal_s = time.perf_counter() - start
    finally:
        journal._journal.close()
        path.unlink(missing_ok=True)
    return {
        "rt.child.journal_us_per_record": max(journal_s - plain_s, 0.0) / len(kept) * 1e6,
        "rt.child.journal_records_per_event": len(kept) / max(events, 1),
    }


def _edge_spin(tracer) -> float:
    if tracer is not None:
        return REFERENCE_SPIN_NS
    return sum(spin_ns() for _ in range(EDGE_SPINS)) / EDGE_SPINS


@contextlib.contextmanager
def _root_span(tracer):
    """The timed region as the traced pass's root span (no-op untraced)."""
    if tracer is not None:
        tracer.start()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.stop()


@dataclass
class _Repetition:
    """What one fresh cluster's run yields."""

    setup_s: float
    ledger: _Ledger
    host_factor: float
    late: bool
    """The open-loop generator ran late (lag p99 over the limit): whatever
    latency this repetition saw is the generator's, so it is not used."""

    layer: dict[str, float]
    errors: list[str]


async def _repetition(
    mode: str, seed: int, sizing: Sizing, *, use_proxy: bool, probes: bool,
    drop_index: int | None, scratch_dir, tracer,
) -> _Repetition:
    loop = asyncio.get_running_loop()
    sensors = {"m1": GAPLESS} if mode == "closed" else {"m1": GAPLESS, "d1": GAP}

    # Set-up: build, listen, and actuate one event end to end, which dials
    # the TCP streams the event path uses.
    start = time.perf_counter()
    cluster = await _started_cluster(seed, sensors, use_proxy)
    tap = _ActuationTap(cluster, loop)
    await _closed_loop(
        cluster, tap, "m1", _Ledger(1), base=WARMUP_BASE)
    setup_s = time.perf_counter() - start

    errors: list[str] = []
    layer: dict[str, float] = {}
    try:
        # Warm-up outside the timed region; its values sit above the
        # ledger's index range, so they never count as measured events.
        for sensor in sensors:
            await _closed_loop(
                cluster, tap, sensor, _Ledger(WARMUP_EVENTS),
                base=WARMUP_BASE + 1
            )
        tap.watch(None)
        gc.collect()

        stall = LoopStallTicker()
        if probes:
            stall.start()
        frames_before = _proxy_totals(cluster)
        # An open loop must not be blocked (a stall of the benchmark's own
        # making would be charged to every event it delays), so there the
        # host's speed is read right before the timed region and right after
        # the cluster went quiet. Several loops a side: one 7 ms sample of a
        # speed that jitters by 15% would put its noise on the repetition.
        spin_before = _edge_spin(tracer)
        if mode == "closed":
            ledger = _Ledger(QUICK_CLOSED_EVENTS if sizing.quick else CLOSED_EVENTS)
            # Not in the probes pass: its p99 and stall figures must not see
            # the calibration loop's own 7 ms blocks.
            ledger.calibrate = tracer is None and not probes
            with _root_span(tracer):
                await _closed_loop(cluster, tap, "m1", ledger, drop_index=drop_index)
        else:
            seconds = QUICK_OPEN_SECONDS if sizing.quick else OPEN_SECONDS
            script = arrival_script(seed, sorted(sensors), seconds)
            ledger = _Ledger(len(script))
            tap.watch(ledger)
            with _root_span(tracer):
                await _open_loop(cluster, script, ledger, drop_index)
        quiesced = await cluster.quiesce(timeout=QUIESCE_TIMEOUT_S)
        tap.watch(None)
        spin_after = _edge_spin(tracer)
        frames_after = _proxy_totals(cluster)
        if probes:
            await stall.stop()
            layer["rt.cluster.loop_stall_max_ms"] = stall.max_stall_s * 1e3
        if not quiesced:
            errors.append("quiesce timed out")

        start = time.perf_counter()
        record = cluster.run_record()
        layer["core.records.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        violations = invariants.check_all(record)
        layer["core.invariants.check_s"] = time.perf_counter() - start
        if violations:
            errors.append(f"{len(violations)} oracle violation(s): {violations[0]}")
        operator_errors = cluster.trace.count("operator_error")
        if operator_errors:
            errors.append(f"{operator_errors} operator_error record(s)")
        send_drops = cluster.trace.count("send_dropped")
    finally:
        await cluster.stop()

    actuated = ledger.exactly_once
    latencies = [ledger.latency_ms(i) for i in range(ledger.size)
                 if ledger.actuations[i] == 1]
    lags = [(ledger.emitted_at[i] - ledger.due_at[i]) * 1e3 for i in range(ledger.size)]
    lag_p99 = percentile(lags, 0.99)
    late = mode == "open" and lag_p99 > MAX_GENERATOR_LAG_P99_MS
    if ledger.stray:
        errors.append(f"{ledger.stray} actuation(s) with an unknown index")

    forwarded = frames_after[0] - frames_before[0]
    layer.update({
        "rt.cluster.latency_p99_ms": percentile(latencies, 0.99),
        "rt.cluster.latency_max_ms": max(latencies, default=0.0),
        "rt.cluster.generator_lag_p99_ms": lag_p99,
        "rt.cluster.cpu_share": ledger.busy_share(),
        "rt.node.send_queue_drops": float(send_drops),
        "rt.proxy.forwarded": float(forwarded),
        "rt.proxy.dropped": float(frames_after[1] - frames_before[1]),
        "rt.wire.frames_per_event": forwarded / max(actuated, 1),
        "rt.wire.bytes_per_event": (frames_after[2] - frames_before[2]) / max(actuated, 1),
    })
    for sensor, key in (("m1", "rt.cluster.gapless_latency_p50_ms"),
                        ("d1", "rt.cluster.gap_latency_p50_ms")):
        own = [ledger.latency_ms(i) for i in range(ledger.size)
               if ledger.actuations[i] == 1 and ledger.ident[i] is not None
               and ledger.ident[i][0] == sensor]
        if own:
            layer[key] = percentile(own, 0.5)
    if probes:
        hops = _hop_means(record, ledger)
        layer.update(hops)
        if hops and latencies:
            mean_latency = sum(latencies) / len(latencies)
            mean_lag = sum(lags) / len(lags)
            layer["rt.hop.residual_ms"] = mean_latency - mean_lag - sum(hops.values())
        layer.update(_journal_cost(record, actuated, scratch_dir))
    factor = (spin_before + spin_after) / 2 / REFERENCE_SPIN_NS
    return _Repetition(setup_s, ledger, factor, late, layer, errors)


def _proxy_totals(cluster: LocalCluster) -> tuple[int, int, int]:
    if cluster.proxy is None:
        return 0, 0, 0
    stats = cluster.proxy.stats.values()
    return (
        sum(s.forwarded for s in stats),
        sum(s.dropped for s in stats),
        sum(s.bytes_forwarded for s in stats),
    )


def measure(
    mode: str, seed: int, sizing: Sizing, *, use_proxy: bool = True,
    probes: bool = False, fault: bool = False, scratch_dir: Any = None,
    tracer: Any = None,
) -> Outcome:
    key, size = ("events", CLOSED_SLICE) if mode == "closed" else ("script", OPEN_SLICE)
    setup_samples: list[float] = []
    slices: list[Slice] = []
    errors: list[str] = []
    attempted = failed = valid = discarded = 0
    while valid < sizing.repetitions and discarded <= MAX_LATE_REPETITIONS:
        # One event loop per repetition, as one deployment would have.
        done = asyncio.run(_repetition(
            mode, seed, sizing, use_proxy=use_proxy, probes=probes,
            drop_index=3 if fault and valid == 0 else None,
            scratch_dir=scratch_dir, tracer=tracer,
        ))
        if done.late:
            discarded += 1
            continue
        valid += 1
        setup_samples.append(done.setup_s)
        own = done.ledger.slices(key, size, done.host_factor, paced=mode == "open")
        slices.extend(own)
        attempted += done.ledger.size
        failed += done.ledger.size - done.ledger.exactly_once
        errors.extend(f"repetition {valid}: {error}" for error in done.errors)
    if valid < sizing.repetitions:
        errors.append(
            f"generator lag p99 over {MAX_GENERATOR_LAG_P99_MS:.0f} ms in "
            f"{discarded} repetitions: run invalid")
    done.layer["rt.cluster.late_repetitions"] = float(discarded)
    return Outcome(
        repetitions=max(valid, 1),
        setup_samples=setup_samples or [done.setup_s],
        slices=slices,
        attempted=max(attempted, 1),
        failed=failed,
        region_wall_s=sum(piece.wall_s for piece in own) if valid else 0.0,
        exact={"events_per_repetition": done.ledger.size,
               "all_actuated_once": failed == 0},
        layer=done.layer,
        errors=errors,
    )
