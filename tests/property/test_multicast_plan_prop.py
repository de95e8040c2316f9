"""Keep-alives on the multicast plan are indistinguishable from per-message sends.

The heartbeat registers its piggyback with the transport when it changes
and offers every fan-out to ``HomeNetwork.send_multicast``; the transport
re-payloads its cached plan in place. Two copies of one home run the same
random interleaving of payload changes (same wire size and not), ticks,
crashes with copies in flight, sender crash + recovery, partitions, late
endpoint registrations and liveness changes: one rides the lane, the other
has a ``send_multicast`` that always refuses, so every keep-alive takes
``RivuletProcess.multicast`` -> ``HomeNetwork.send``. Digest, aggregates and
the order in which receivers see which payload must agree, with the trace
hashing (the lane stages digest bytes per copy) and without (the lane only
counts); without a digest, aggregates and receive order must agree.

A third home runs a ``LatencyModel`` subclass that only defers to the stock
``message_delay``: the lane refuses it, so its keep-alives take ``send``,
which asks the model once per copy. It must match the stock home's digest,
aggregates and receive order, which holds the inline formula in ``send``
and the plan's cached delay to the model bit for bit.
"""

from hypothesis import given, settings, strategies as st

from repro.core.home import Home, HomeConfig
from repro.net.latency import LatencyModel

PROCESSES = ("p0", "p1", "p2")
#: 0.0005 s lands while the copies of a tick are in flight (a hop is ~1.5 ms).
GAPS = (0.0005, 0.1, 0.25, 0.5, 1.3)
SAME_SIZE = st.integers(0, 2**40)             # an int is 8 bytes whatever its value
OTHER_SIZE = st.text("ab", min_size=1, max_size=40)

process = st.sampled_from(PROCESSES)
ops = st.one_of(
    st.tuples(st.just("payload"), process, SAME_SIZE | OTHER_SIZE | st.just("")),
    st.tuples(st.just("crash"), process),
    st.tuples(st.just("recover"), process),
    st.tuples(st.just("partition"), st.integers(1, 2)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("register")),
    st.tuples(st.just("liveness"), st.integers(0, 3)),
    st.tuples(st.just("subscribe")),
)
schedules = st.lists(st.tuples(st.sampled_from(GAPS), ops), max_size=25)


class Gossip:
    """A provider the schedule drives: a new object per change, as the
    piggyback contract demands; a falsy value is left out of the payload."""

    def __init__(self) -> None:
        self.value = {}

    def set(self, value) -> None:
        self.value = {"v": value} if value != "" else {}

    def __call__(self):
        return self.value


class Bystander:
    """A late-registered endpoint: it only counts towards congestion."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True

    def deliver(self, message) -> None:  # pragma: no cover - nobody sends to it
        raise AssertionError(message)


class DeferringLatency(LatencyModel):
    """A subclass in name only: every delay is the stock model's."""

    def message_delay(self, wire_bytes, live_processes=2, rng=None):
        return super().message_delay(wire_bytes, live_processes, rng)


class Rig:
    def __init__(
        self, *, lane: bool, digest: bool = True, latency: LatencyModel | None = None
    ) -> None:
        self.digest = digest
        self.home = home = Home(HomeConfig(
            seed=5, heartbeat_interval=0.5, failure_detection_s=2.0,
            keep_trace_kinds=set(), trace_digest=digest,
            latency=latency or LatencyModel(),
        ))
        for name in PROCESSES:
            home.add_process(name, adapters=("ip",))
        if not lane:
            home.network.send_multicast = lambda src, dsts, kind: False
        home.start()
        self.seen: list[tuple] = []
        self.gossip = {name: Gossip() for name in PROCESSES}
        self.bystanders: list[Bystander] = []
        for name in PROCESSES:
            self.wire(name)

    def wire(self, name: str) -> None:
        """What ``ExecutionService.start`` does after every boot."""
        heartbeat = self.home.processes[name].heartbeat
        heartbeat.add_payload_provider("g", self.gossip[name])
        heartbeat.add_payload_consumer(
            "g", lambda sender, value, receiver=name: self.seen.append(
                (self.home.scheduler.now, receiver, sender, value))
        )

    def apply(self, op: tuple) -> None:
        home = self.home
        kind, *args = op
        if kind == "payload":
            self.gossip[args[0]].set(args[1])
        elif kind == "crash":
            if home.processes[args[0]].alive:
                home.crash_process(args[0])
        elif kind == "recover":
            if not home.processes[args[0]].alive:
                home.recover_process(args[0])
                self.wire(args[0])
        elif kind == "partition":
            home.set_partition([PROCESSES[:args[0]], PROCESSES[args[0]:]])
        elif kind == "heal":
            home.heal_partition()
        elif kind == "register":
            self.bystanders.append(Bystander(f"x{len(self.bystanders)}"))
            home.network.register(self.bystanders[-1])
        elif kind == "liveness":
            if args[0] < len(self.bystanders):
                bystander = self.bystanders[args[0]]
                bystander.alive = not bystander.alive
                home.network.liveness_changed()
        else:
            home.trace.subscribe(lambda event: None, kinds=("net_send",))

    def run(self, schedule) -> dict:
        home = self.home
        for gap, op in schedule:
            home.run_for(gap)
            self.apply(op)
        home.run_for(3.0)
        trace = home.trace
        message_kinds = ("net_send", "net_deliver", "net_drop")
        return {
            "digest": trace.digest() if self.digest else None,
            "counts": trace.counts,
            "bytes": {kind: trace.bytes_of_kind(kind) for kind in message_kinds},
            "tallies": {(kind, sub): trace.tally(kind, sub)
                        for kind in message_kinds for sub in trace.sub_kinds(kind)},
            "pairs": {kind: trace.pair_counts(kind) for kind in message_kinds},
            "seen": self.seen,
        }


@settings(max_examples=120, deadline=None)
@given(schedules, st.booleans())
def test_lane_and_refused_lane_homes_agree(schedule, digest):
    assert (Rig(lane=True, digest=digest).run(schedule)
            == Rig(lane=False, digest=digest).run(schedule))


@settings(max_examples=40, deadline=None)
@given(schedules)
def test_a_deferring_latency_subclass_matches_the_stock_home(schedule):
    deferring = Rig(lane=True, latency=DeferringLatency())
    assert deferring.run(schedule) == Rig(lane=True).run(schedule)
    assert deferring.home.stats()["plan_builds"] == 0


def test_a_directed_schedule_exercises_every_branch():
    """Not left to the draw: same-size and size-changing re-payloads, a
    crash with copies in flight, recovery with a registered payload, a
    partition and a plan rebuild on registration all happen, and the lane
    carries the payload-bearing keep-alives."""
    schedule = [
        (0.5, ("payload", "p0", 7)), (0.5, ("payload", "p0", 8)),
        (0.5, ("payload", "p0", "abc")), (0.5, ("payload", "p1", "abcdef")),
        (0.0005, ("crash", "p2")), (1.3, ("recover", "p2")),
        (0.5, ("crash", "p0")), (0.5, ("recover", "p0")),
        (0.5, ("partition", 1)), (0.5, ("payload", "p1", 3)), (0.5, ("heal",)),
        (0.5, ("register",)), (0.5, ("liveness", 0)), (0.5, ("payload", "p0", "")),
    ]
    lane, plain = Rig(lane=True), Rig(lane=False)
    outcome = lane.run(schedule)
    assert outcome == plain.run(schedule)
    assert Rig(lane=True, latency=DeferringLatency()).run(schedule) == outcome
    counted = Rig(lane=True, digest=False)
    assert counted.run(schedule) == {**outcome, "digest": None}
    assert counted.home.stats()["plan_builds"] == lane.home.stats()["plan_builds"]
    assert outcome["counts"]["net_drop"] > 0
    assert {value["v"] for *_, value in outcome["seen"]} == {7, 8, "abc", "abcdef", 3}
    stats = lane.home.stats()
    assert stats["lane_refusals"] == {
        "partition": stats["lane_refusals"]["partition"], "subscriber": 0, "kept": 0}
    assert 0 < stats["lane_refusals"]["partition"] < 10
    assert stats["plan_repayloads"] >= 6
    # 3 first builds + 3 after the bystander registers (+ one per recovery
    # at most): the payload changes above never rebuilt a plan.
    assert 6 <= stats["plan_builds"] <= 8
    assert plain.home.stats()["plan_builds"] == 0
