"""Time-ordered callback scheduler — the heart of the simulator.

The scheduler keeps one slot per *distinct* firing time: the heap holds
bare ``when`` floats, and ``_buckets[when]`` is the only place that
instant's entries live. An entry has one of two shapes:

- a bare ``(callback, args)`` tuple, stored by :meth:`Scheduler.post_at`
  for fire-and-forget posts that are never cancelled;
- a ``[callback, args, interval, in_bucket]`` list for every cancellable
  timer: :meth:`Scheduler.call_at` / :meth:`~Scheduler.call_later` store
  it with ``interval`` 0.0 (a one-shot), :meth:`Scheduler.post_repeating`
  with the repeat period. A :class:`TimerHandle` wraps the list for
  ``cancel()``; the drain loop never touches the handle.

A ``_buckets`` value is either a *bare post* — an instant holding exactly
one post and nothing else stores that tuple itself — or a *list bucket* of
entries in scheduling order. Every insert follows the same three cases: an
empty instant stores the post bare (a timer as ``[entry]``) and pushes
``when``; a bare post is promoted to ``[post, new]``; a list is appended
to. Most keep-alive and delivery copies land on an instant of their own,
so they cost one float in the heap and one dict slot, nothing else.

Because a timestamp appears in the heap at most once, the heap never
compares two entries beyond their ``when`` floats, and all same-instant
callbacks drain in one heap pop, in exactly the order they were scheduled.
That preserves the classic ``(when, seq)`` tie-break semantics without a
per-entry sequence number, and it makes the fleet's aligned timer edges (N
homes' heartbeats all firing at t = 60k) cost one pop + one push per edge
instead of one per home.

Simulated time is a ``float`` number of seconds since the start of the run.

Hot-path design (see docs/performance.md):

- ``pending_events`` is O(1): a live-entry counter is maintained on push,
  pop and cancel instead of scanning the heap;
- cancelling nulls the entry's ``interval`` slot and leaves the entry in
  its bucket (lazy cancel); the drain skips it at its instant, so a
  cancelled timer holds no more memory than one that was never cancelled;
- a callback that schedules more work at the *current* instant appends to
  the bucket being drained and runs within the same batch, exactly as a
  fresh ``seq`` would have ordered it; a bare post whose callback does so
  has been promoted to a list, which the drain notices when it pops the
  slot and finishes from index 1;
- a repeating entry is re-armed in place by the drain loop after its
  callback returns, at ``when + interval`` — the arithmetic of a callback
  that re-arms itself with ``call_later(interval, ...)``; a period too
  small to advance the clock at that instant is a :class:`SimulationError`
  at arm and re-arm time, not an endless loop;
- there is one drain, :meth:`Scheduler.run_until` (express paths for a
  bare post and a solo timer) plus ``_drain_open`` (any list bucket
  holding more than one entry); it batches its ``processed``/``live``
  counter updates per bucket and memoises the re-arm bucket across
  consecutive same-interval repeating entries, so a fleet edge of N
  aligned ticks pays one dictionary resolve (and at most one heap push)
  for all N re-arms. :meth:`Scheduler.run` is ``run_until`` of the next
  timestamp, in a loop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

# Timer entry layout (a bare list, the mutable sibling of the post_at
# tuple): [callback, args, interval, in_bucket]. ``interval`` is 0.0 for a
# one-shot, the period for a repeating timer and None once cancelled;
# ``in_bucket`` tracks whether the entry is currently stored in a heap
# bucket (False once drained, and while its callback is running), which is
# what lets cancel() keep the live counter exact from either side.
_INTERVAL = 2
_IN_BUCKET = 3


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


def _stalled(interval: float, when: float) -> SimulationError:
    """The error for a repeating period that no longer advances the clock:
    below the float resolution at ``when``, every re-arm would land on the
    instant being drained, forever."""
    return SimulationError(
        f"repeating interval {interval!r} does not advance the clock at "
        f"t={when!r}: it is below the float resolution there"
    )


class TimerHandle:
    """The cancel handle of a timer entry.

    Returned by :meth:`Scheduler.call_at`, :meth:`~Scheduler.call_later`,
    :meth:`~Scheduler.post_repeating` and :meth:`~Scheduler.call_repeating`.
    The scheduled entry itself is a bare 4-slot list in the heap buckets;
    the handle only wraps it. Cancelling twice, or cancelling a one-shot
    that already ran, is a no-op; cancelling a repeating timer from inside
    its own callback suppresses the re-arm that would follow its return.
    """

    __slots__ = ("_entry", "_scheduler")

    def __init__(self, entry: list, scheduler: "Scheduler") -> None:
        self._entry = entry
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent any further firing."""
        entry = self._entry
        interval = entry[_INTERVAL]
        if interval is None or not (interval or entry[_IN_BUCKET]):
            return
        entry[_INTERVAL] = None
        if entry[_IN_BUCKET]:
            self._scheduler._live -= 1

    @property
    def cancelled(self) -> bool:
        return self._entry[_INTERVAL] is None

    @property
    def fired(self) -> bool:
        """True once a one-shot timer's callback has run (or is running)."""
        entry = self._entry
        return entry[_INTERVAL] == 0.0 and not entry[_IN_BUCKET]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        callback, _args, interval, in_bucket = self._entry
        state = ("cancelled" if interval is None
                 else "armed" if in_bucket else "fired")
        kind = "repeating " if interval else ""
        return f"<{kind}TimerHandle {state} cb={callback!r}>"


class Scheduler:
    """Discrete-event scheduler with a virtual clock.

    The clock only advances when events are processed; there is no wall-clock
    component anywhere, which is what makes experiment runs reproducible.
    """

    #: The processed-count ceiling of an active :meth:`run`, else None. One
    #: instant can hold any number of callbacks (a callback that re-posts
    #: itself at delay 0 never leaves its instant), so ``_drain_open``
    #: checks it too. A class default, set on the instance only while
    #: ``run`` is active, so a pickled scheduler carries no budget.
    _budget: int | None = None

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[float] = []
        # when -> a bare post or a list bucket; a key is present iff it is
        # in the heap or is currently being drained. Scheduling into an
        # existing key is a promotion or a list append — no heap operation
        # at all.
        self._buckets: dict[float, tuple | list] = {}
        # The bucket being drained by _drain_open (popped from the heap but
        # still accepting same-instant appends), plus the resume cursor a
        # raising callback leaves behind for the next run_until.
        self._draining: list | None = None
        self._drain_when = 0.0
        self._drain_idx = 0
        self._processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (for tests and budgets)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled entries (O(1))."""
        return self._live

    # -- scheduling ----------------------------------------------------------------

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Scheduling in the past is an error: it would silently reorder
        causality.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when:.6f}, time is already t={self._now:.6f}"
            )
        entry = [callback, args, 0.0, True]
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [entry]
            heapq.heappush(self._heap, when)
        elif type(bucket) is tuple:
            buckets[when] = [bucket, entry]
        else:
            bucket.append(entry)
        self._live += 1
        return TimerHandle(entry, self)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def post_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`call_at`: no handle is returned.

        The hot transport/radio delivery paths schedule hundreds of
        thousands of callbacks that are never cancelled; this lane stores a
        bare ``(callback, args)`` pair — no list entry, no handle, and on an
        instant of its own no bucket list either. Bucket position preserves
        scheduling order, so ordering and tie-breaking are identical to
        :meth:`call_at`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when:.6f}, time is already t={self._now:.6f}"
            )
        post = (callback, args)
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = post
            heapq.heappush(self._heap, when)
        elif type(bucket) is tuple:
            buckets[when] = [bucket, post]
        else:
            bucket.append(post)
        self._live += 1

    def post_repeating(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: float | None = None,
    ) -> TimerHandle:
        """Run ``callback(*args)`` every ``interval`` seconds until cancelled.

        The first firing happens after ``first_delay`` seconds (default:
        ``interval``); each subsequent firing is scheduled at exactly
        ``previous_when + interval``, matching the arithmetic of a callback
        that re-arms itself with ``call_later(interval, ...)`` — so
        converting self-rescheduling timers preserves determinism. The one
        entry is re-armed in place for every firing: no per-tick allocation.
        """
        if interval <= 0:
            raise SimulationError(f"repeating interval must be > 0, got {interval!r}")
        delay = interval if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        when = self._now + delay
        if when + interval <= when:
            raise _stalled(interval, when)
        handle = self.call_at(when, callback, *args)
        handle._entry[_INTERVAL] = interval
        return handle

    def call_repeating(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: float | None = None,
    ) -> TimerHandle:
        """Another name for :meth:`post_repeating`."""
        return self.post_repeating(interval, callback, *args, first_delay=first_delay)

    # -- execution -------------------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Process all events with ``when <= deadline``; clock ends at deadline.

        The clock is advanced to ``deadline`` even if the last event fires
        earlier, so back-to-back ``run_until`` calls behave like a continuous
        timeline.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline t={deadline:.6f} is in the past (now t={self._now:.6f})"
            )
        if self._draining is not None:
            # Finish a bucket a raising callback left open before touching
            # the heap.
            self._now = self._drain_when
            self._drain_open()
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        buckets = self._buckets
        # Local aliases for the list-entry slot indices: the solo timer
        # path reads them up to four times per event.
        INTERVAL = _INTERVAL
        IN_BUCKET = _IN_BUCKET
        # Executed-callback and live-entry deltas are tallied in locals for
        # the whole run and folded into the instance counters once, in the
        # outer finally. Callbacks that schedule or cancel work bump the
        # instance counters directly, which commutes with the deferred
        # deltas. The one mid-drain reader is
        # ``_drain_open``'s budget check, so a solo callback's count is
        # folded before its bucket is handed over.
        ran = 0
        live_delta = 0
        try:
            while True:
                try:
                    when = pop(heap)
                except IndexError:
                    break
                if when > deadline:
                    # Past the horizon: restore the (untouched) slot.
                    push(heap, when)
                    break
                # The express paths: jittered delivery and timer timestamps
                # rarely collide, so nearly every post and timer — and,
                # outside fleet-aligned edges, every repeating tick — drains
                # alone, with no resume-cursor loop and drain state only
                # published when a same-instant append actually happens.
                # A lone callback that raises has spent its entry, as in
                # the general drain (a repeating timer loses its re-arm);
                # _abandon then leaves whatever it scheduled at the same
                # instant open for the next run_until.
                bucket = buckets[when]
                if type(bucket) is tuple:
                    # A bare post. Its slot stays mapped while it runs, so
                    # a same-instant schedule promotes it to a list: that
                    # is what the pop below finds instead of the post.
                    self._now = when
                    ran += 1
                    live_delta -= 1
                    cb, cb_args = bucket
                    try:
                        cb(*cb_args)
                    except BaseException:
                        self._abandon(when)
                        raise
                    promoted = buckets.pop(when)
                    if promoted is not bucket:
                        buckets[when] = promoted
                        self._draining = promoted
                        self._drain_when = when
                        self._drain_idx = 1
                        self._processed += ran
                        ran = 0
                        self._drain_open()
                    continue
                if len(bucket) == 1:
                    # A lone timer: every insert stores a lone post bare.
                    item = bucket[0]
                    # One unpack instead of three subscript reads.
                    cb, cb_args, interval, _ = item
                    if interval is None:
                        del buckets[when]
                        continue
                    self._now = when
                    item[IN_BUCKET] = False
                    ran += 1
                    try:
                        cb(*cb_args)
                    except BaseException:
                        live_delta -= 1
                        self._abandon(when)
                        raise
                    # Re-read: the callback may have cancelled its own
                    # entry, which must suppress the re-arm.
                    interval = item[INTERVAL]
                    if not interval:
                        # A one-shot, or a cancelled repeating timer.
                        live_delta -= 1
                        if len(bucket) == 1:
                            del buckets[when]
                        else:
                            # Same-instant appends: drain them in order.
                            self._draining = bucket
                            self._drain_when = when
                            self._drain_idx = 1
                            self._processed += ran
                            ran = 0
                            self._drain_open()
                        continue
                    nxt = when + interval
                    if nxt <= when:
                        # Retired; the rest of the instant stays open
                        # for the next drain.
                        live_delta -= 1
                        item[INTERVAL] = None
                        self._draining = bucket
                        self._drain_when = when
                        self._drain_idx = 1
                        raise _stalled(interval, when)
                    if len(bucket) == 1:
                        del buckets[when]
                        # Single-lookup re-arm: on a fresh timestamp the
                        # drained bucket (still exactly [item]) moves to
                        # its new slot; on a collision the entry joins
                        # what is there.
                        other = buckets.setdefault(nxt, bucket)
                        if other is bucket:
                            push(heap, nxt)
                        elif type(other) is tuple:
                            buckets[nxt] = [other, item]
                        else:
                            other.append(item)
                        item[IN_BUCKET] = True
                        continue
                    other = buckets.get(nxt)
                    if other is None:
                        buckets[nxt] = [item]
                        push(heap, nxt)
                    elif type(other) is tuple:
                        buckets[nxt] = [other, item]
                    else:
                        other.append(item)
                    item[IN_BUCKET] = True
                    self._draining = bucket
                    self._drain_when = when
                    self._drain_idx = 1
                    self._processed += ran
                    ran = 0
                    self._drain_open()
                    continue
                # Multi-entry bucket: a fleet-aligned tick edge, a burst.
                self._draining = bucket
                self._drain_when = when
                self._drain_idx = 0
                self._now = when
                self._drain_open()
        finally:
            self._processed += ran
            self._live += live_delta
        self._now = deadline

    def _abandon(self, when: float) -> None:
        """Tidy up after a lone callback raised on an express path.

        Its entry is spent. Whatever it scheduled at its own instant
        before raising follows it in ``_buckets[when]``; that instant has
        no heap slot any more, so it is left open as the draining bucket,
        resumed after the spent entry, exactly where the general drain
        leaves a bucket whose callback raised. With nothing else there,
        the instant is unmapped.
        """
        rest = self._buckets[when]
        if type(rest) is tuple or len(rest) == 1:
            del self._buckets[when]
        else:
            self._draining = rest
            self._drain_when = when
            self._drain_idx = 1

    def _drain_open(self) -> None:
        """Drain the currently-open bucket (``self._draining``) to the end.

        The general path shared by multi-entry buckets, lone entries that
        grew a same-instant append, and the resume after a raising
        callback. ``self._now`` is already the bucket's timestamp. Counter
        deltas are batched per bucket and folded in the ``finally`` so they
        stay exact when a callback raises.
        """
        bucket = self._draining
        when = self._drain_when
        buckets = self._buckets
        heap = self._heap
        push = heapq.heappush
        INTERVAL = _INTERVAL
        IN_BUCKET = _IN_BUCKET
        idx = self._drain_idx
        budget = self._budget
        ran = 0
        live_delta = 0
        # Re-arm memo: repeating entries of one bucket sharing an interval
        # (a fleet edge of aligned heartbeat ticks across tenants) resolve
        # their next bucket once and append — heap and dict traffic is paid
        # per edge, not per tenant.
        memo_when = -1.0
        memo_bucket: list | None = None
        try:
            # Appends made by callbacks at this same instant extend the
            # bucket while we drain it: drain it in passes, each up to the
            # length the previous pass left, checking the budget between.
            while True:
                end = len(bucket)
                if idx >= end:
                    break
                if budget is not None and self._processed + ran >= budget:
                    raise SimulationError(
                        f"exceeded event budget at t={when:.6f}: callbacks "
                        "keep scheduling at the current instant"
                    )
                while idx < end:
                    item = bucket[idx]
                    idx += 1
                    if type(item) is tuple:
                        # The one-shot post lane: the hottest entry shape
                        # (every transport/radio delivery), nothing but the
                        # call itself.
                        ran += 1
                        live_delta -= 1
                        cb, cb_args = item
                        cb(*cb_args)
                        continue
                    cb, cb_args, interval, _ = item
                    item[IN_BUCKET] = False
                    if interval is None:
                        continue
                    ran += 1
                    live_delta -= 1
                    cb(*cb_args)
                    # Re-read: the callback may have cancelled its own
                    # entry, which must suppress the re-arm.
                    interval = item[INTERVAL]
                    if interval:
                        nxt = when + interval
                        if nxt == memo_when:
                            memo_bucket.append(item)
                        else:
                            if nxt <= when:
                                item[INTERVAL] = None
                                raise _stalled(interval, when)
                            memo_bucket = buckets.get(nxt)
                            if memo_bucket is None:
                                buckets[nxt] = memo_bucket = [item]
                                push(heap, nxt)
                            elif type(memo_bucket) is tuple:
                                buckets[nxt] = memo_bucket = [memo_bucket, item]
                            else:
                                memo_bucket.append(item)
                            memo_when = nxt
                        item[IN_BUCKET] = True
                        live_delta += 1
        finally:
            # Keep the resume cursor and counters honest even when a
            # callback raises, so a caller that catches can continue.
            self._drain_idx = idx
            self._processed += ran
            self._live += live_delta
        self._draining = None
        # Within an active drain the dict always maps `when` to the drained
        # bucket, so no identity re-check is needed.
        del buckets[when]

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (or the safety budget is exhausted).

        :meth:`run_until` of the next timestamp, one timestamp at a time
        (the clock ends at the last one that ran a callback); the budget is
        checked after each one, and between the passes of one instant. The
        first pass runs the entries the instant holds when it opens (or
        resumes); each later pass runs what the previous pass scheduled at
        that same instant, so a callback that keeps re-posting itself at
        delay 0 raises too.
        """
        budget = self._budget = self._processed + max_events
        heap = self._heap
        try:
            while self._live and (heap or self._draining is not None):
                # An open bucket (a callback raised, or the budget ran out
                # mid-instant) finishes alone, at its own instant.
                self.run_until(
                    heap[0] if heap and self._draining is None else self._now
                )
                if self._processed >= budget:
                    raise SimulationError(f"exceeded event budget of {max_events}")
        finally:
            del self._budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheduler t={self._now:.6f} pending={self.pending_events}>"
