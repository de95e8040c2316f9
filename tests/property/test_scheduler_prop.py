"""The bucketed scheduler against a plain ``(when, seq)`` heap.

``Scheduler`` stores two entry shapes in per-timestamp buckets, cancels
lazily, drains solo buckets on an express path and memoises re-arm
buckets. :class:`Model` does none of that: one heap of
``(when, seq, entry)`` with a fresh ``seq`` for every push — including when a
repeating entry re-arms after its callback returns — and cancellation as a
flag checked at pop time. Random programs of every scheduling call, cancels
(before firing, from inside the entry's own callback, from an earlier entry
of the same instant, in bulk), same-instant scheduling from inside
callbacks and ``run_until`` / ``run`` drains run against both; the
``(label, now)`` firing order, ``now``, ``pending_events`` and
``processed_events`` must agree after every drain. ``run`` checks its
budget after each instant and between the passes of one instant: the first
pass is the entries due at the instant when it opens, each later pass the
entries the previous one scheduled at that instant.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.sim.scheduler import Scheduler, SimulationError

#: A coarse grid, so that entries collide on one instant all the time; 0.3
#: is not exactly representable and exercises re-arm arithmetic.
TIMES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
INTERVALS = (0.25, 0.3, 0.5, 1.0)
#: A program whose callbacks fire this often has a scheduler re-arming a
#: one-shot, or never letting go of an instant.
RUNAWAY = 5_000


class _ModelHandle:
    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry[2] = None


class Model:
    """The reference: a heap of ``(when, seq)``; a cancel is a flag."""

    def __init__(self) -> None:
        self.now = 0.0
        self.processed_events = 0
        self._heap: list = []
        self._seq = 0
        self._budget = None

    @property
    def pending_events(self) -> int:
        return sum(1 for _when, _seq, entry in self._heap if entry[2] is not None)

    def _arm(self, when, callback, args, interval):
        if when < self.now:
            raise SimulationError("in the past")
        entry = [callback, args, interval]
        self._push(when, entry)
        return _ModelHandle(entry)

    def _push(self, when, entry):
        heapq.heappush(self._heap, (when, self._seq, entry))
        self._seq += 1

    def call_at(self, when, callback, *args):
        return self._arm(when, callback, args, 0.0)

    def call_later(self, delay, callback, *args):
        return self._arm(self.now + delay, callback, args, 0.0)

    def post_at(self, when, callback, *args):
        self._arm(when, callback, args, 0.0)

    def post_repeating(self, interval, callback, *args, first_delay=None):
        delay = interval if first_delay is None else first_delay
        return self._arm(self.now + delay, callback, args, interval)

    call_repeating = post_repeating

    def run_until(self, deadline):
        if deadline < self.now:
            raise SimulationError("deadline in the past")
        heap = self._heap
        instant = pass_end = None
        while heap and heap[0][0] <= deadline:
            when, seq, entry = heap[0]
            if when != instant:
                instant, pass_end = when, self._seq
            elif seq >= pass_end:
                # Scheduled at this instant by one of its callbacks: the
                # next pass, and run's budget is checked before it.
                if self._budget is not None and self.processed_events >= self._budget:
                    raise SimulationError("budget")
                pass_end = self._seq
            heapq.heappop(heap)
            if entry[2] is None:
                continue
            self.now = when
            self.processed_events += 1
            entry[0](*entry[1])
            if entry[2]:
                self._push(when + entry[2], entry)
        self.now = deadline

    def run(self, max_events):
        self._budget = self.processed_events + max_events
        try:
            while self.pending_events:
                self.run_until(self._heap[0][0])
                if self.processed_events >= self._budget:
                    raise SimulationError("budget")
        finally:
            self._budget = None


class Runaway(Exception):
    pass


class Interpreter:
    """Runs one program against one scheduler and records what it saw.

    Every entry gets the next label and its handle (None for a post) is
    kept by label and in creation order, so a cancel names its victim by
    label offset or index; while both runs agree, both name the same entry.
    """

    def __init__(self, sched) -> None:
        self.sched = sched
        self.fired: list = []
        self.observed: list = []
        self.handles: list = []
        self.by_label: dict = {}
        self.acted: set = set()
        self.labels = itertools.count()

    def schedule(self, spec) -> None:
        """``spec``: (call, time, interval, actions) — ``time`` is absolute
        for call_at / post_at, a delay otherwise."""
        call, time, interval, actions = spec
        sched = self.sched
        label = next(self.labels)
        args = (label, actions)
        try:
            if call == "call_at":
                handle = sched.call_at(time, self.fire, *args)
            elif call == "call_later":
                handle = sched.call_later(time, self.fire, *args)
            elif call == "post_at":
                sched.post_at(time, self.fire, *args)
                handle = None
            else:
                handle = getattr(sched, call)(interval, self.fire, *args,
                                              first_delay=time)
        except SimulationError:
            self.observed.append(("refused", label))
            return
        self.handles.append(handle)
        self.by_label[label] = handle

    def cancel(self, handle) -> None:
        if handle is not None:
            handle.cancel()

    def fire(self, label, actions) -> None:
        self.fired.append((label, self.sched.now))
        if len(self.fired) > RUNAWAY:
            raise Runaway(label)
        if label in self.acted:
            return  # a repeating entry acts on its first firing only
        self.acted.add(label)
        for action in actions:
            if action[0] == "cancel":
                # By label offset: 0 is the entry itself, +1 the entry
                # scheduled right after it (often due at the same instant).
                self.cancel(self.by_label.get(label + action[1]))
            else:  # ("schedule", spec): same-instant when its time is 0
                call, time, interval = action[1]
                if call in ("call_at", "post_at"):
                    time += self.sched.now
                self.schedule((call, time, interval, ()))

    def run(self, program) -> list:
        for op in program:
            kind = op[0]
            if kind == "schedule":
                self.schedule(op[1])
            elif kind == "cancel":
                if self.handles:
                    self.cancel(self.handles[op[1] % len(self.handles)])
            elif kind == "bulk":
                # In bulk: schedule many one-shots, then cancel all but
                # every ``keep``-th of them.
                _, count, keep, time = op
                first = len(self.handles)
                for i in range(count):
                    self.schedule(("call_later", time + 0.25 * (i % 3), 0.0, ()))
                for i, handle in enumerate(self.handles[first:]):
                    if i % keep:
                        handle.cancel()
            else:
                try:
                    if kind == "run_until":
                        self.sched.run_until(self.sched.now + op[1])
                    else:
                        self.sched.run(max_events=op[1])
                except SimulationError:
                    self.observed.append(("budget",))
                sched = self.sched
                self.observed.append((
                    list(self.fired), sched.now,
                    sched.pending_events, sched.processed_events,
                ))
        return self.observed


calls = st.sampled_from(
    ("call_at", "call_later", "post_at", "post_repeating", "call_repeating")
)
times = st.sampled_from(TIMES)
intervals = st.sampled_from(INTERVALS)
child = st.tuples(calls, times, intervals)
actions = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), child),
        st.tuples(st.just("cancel"), st.integers(-3, 3)),
    ),
    max_size=3,
)
spec = st.tuples(calls, times, intervals, actions)
program = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), spec),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("bulk"), st.integers(65, 140), st.integers(2, 9), times),
        st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5))),
        st.tuples(st.just("run"), st.integers(1, 400)),
    ),
    max_size=30,
)


#: An entry due at 0.0 whose callback schedules another at that instant.
_REPOSTS = ("schedule", ("call_at", 0.0, 0.25, [("schedule", ("call_later", 0.0, 0.25))]))


@settings(max_examples=300, deadline=None)
@given(program)
# Budget spent in the first pass of a two-entry instant: both fire, and
# run raises before the two entries they scheduled at that instant.
@example([_REPOSTS, _REPOSTS, ("run", 1)])
# The same after a solo first pass, then a resumed run that finishes it.
@example([_REPOSTS, ("run", 1), ("run", 5)])
# A budget raise mid-instant with a later instant pending: the next run
# finishes the open instant (one more entry joined it meanwhile) and
# raises before it reaches 1.0.
@example([_REPOSTS, _REPOSTS, ("schedule", ("call_at", 1.0, 0.25, [])), ("run", 1),
          ("schedule", ("call_later", 0.0, 0.25, [])), ("run", 3)])
# A lone post whose callback posts, then arms a one-shot, at its own
# instant: the bare post is promoted to a list while it runs.
@example([("schedule", ("post_at", 0.25, 0.25, [("schedule", ("post_at", 0.0, 0.25)),
                                                ("schedule", ("call_at", 0.0, 0.25))])),
          ("run_until", 0.5)])
# Repeating timers re-armed onto an instant holding a lone post: a lone
# tick (the solo re-arm) and two aligned ticks (the re-arm memo).
@example([("schedule", ("post_repeating", 0.5, 0.5, [])),
          ("schedule", ("post_at", 1.0, 0.25, [])),
          ("schedule", ("post_repeating", 1.0, 0.5, [])),
          ("schedule", ("call_repeating", 1.0, 0.5, [])),
          ("schedule", ("post_at", 1.5, 0.25, [])),
          ("run_until", 2.5)])
# A bulk cancel while lone posts are stored, one of them sharing an
# instant with the doomed timers and one of those instants left with no
# live entry at all.
@example([("schedule", ("post_at", 3.0, 0.25, [])),
          ("schedule", ("post_at", 1.5, 0.25, [])),
          ("bulk", 140, 9, 1.0),
          ("run", 400)])
def test_scheduler_matches_the_reference_heap(ops):
    ops = ops + [("run_until", 5.0)]
    expected = Interpreter(Model()).run(ops)
    assert Interpreter(Scheduler()).run(ops) == expected
