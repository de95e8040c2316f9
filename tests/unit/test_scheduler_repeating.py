"""Repeating-entry edge cases: cancellation timing, zero first delay, and
ordering against one-shot posts sharing the same bucket.

Both names are covered — ``post_repeating`` and ``call_repeating``, which
delegates to it — so either spelling keeps the same semantics.
"""

import pytest

from repro.sim.scheduler import Scheduler, SimulationError


def test_post_repeating_cancel_inside_own_callback_suppresses_rearm():
    sched = Scheduler()
    fired = []
    box = {}

    def tick():
        fired.append(sched.now)
        if len(fired) == 2:
            box["h"].cancel()

    box["h"] = sched.post_repeating(1.0, tick)
    sched.run_until(10.0)
    assert fired == [1.0, 2.0]
    assert sched.pending_events == 0


def test_call_repeating_cancel_inside_own_callback_suppresses_rearm():
    sched = Scheduler()
    fired = []
    box = {}

    def tick():
        fired.append(sched.now)
        if len(fired) == 2:
            box["h"].cancel()

    box["h"] = sched.call_repeating(1.0, tick)
    sched.run_until(10.0)
    assert fired == [1.0, 2.0]
    assert sched.pending_events == 0


def test_cancel_while_same_timestamp_bucket_mid_drain():
    """A one-shot post earlier in the bucket cancels the repeating entry
    scheduled for the same instant: the entry must not fire, and nothing
    may leak into the pending count."""
    sched = Scheduler()
    fired = []
    box = {}

    sched.post_at(1.0, lambda: box["h"].cancel())
    box["h"] = sched.post_repeating(1.0, fired.append, "tick", first_delay=1.0)
    sched.run_until(5.0)
    assert fired == []
    assert sched.pending_events == 0


def test_cancel_mid_drain_spares_earlier_firing_same_bucket():
    """Two repeating entries in one bucket: the first cancels the second
    from its own callback, after both were already due at this instant."""
    sched = Scheduler()
    fired = []
    box = {}

    def first():
        fired.append(("first", sched.now))
        box["second"].cancel()

    sched.post_repeating(1.0, first, first_delay=1.0)
    box["second"] = sched.post_repeating(
        1.0, lambda: fired.append(("second", sched.now)), first_delay=1.0
    )
    sched.run_until(2.0)
    # At t=1.0 the first entry fires and cancels the second before the
    # drain reaches it; only the first keeps repeating.
    assert fired == [("first", 1.0), ("first", 2.0)]


def test_first_delay_zero_fires_immediately_then_on_interval():
    sched = Scheduler()
    fired = []
    sched.post_repeating(1.0, lambda: fired.append(sched.now), first_delay=0.0)
    sched.run_until(2.5)
    assert fired == [0.0, 1.0, 2.0]


def test_call_repeating_first_delay_zero_matches_post_lane():
    sched = Scheduler()
    fired = []
    sched.call_repeating(1.0, lambda: fired.append(sched.now), first_delay=0.0)
    sched.run_until(2.5)
    assert fired == [0.0, 1.0, 2.0]


def test_repeating_interleaves_with_post_at_in_submission_order():
    sched = Scheduler()
    order = []

    sched.post_at(2.0, order.append, "post-a")
    sched.post_repeating(2.0, lambda: order.append(f"tick@{sched.now:g}"))
    sched.post_at(2.0, order.append, "post-b")
    sched.run_until(4.0)
    # Same timestamp: submission order within the bucket; the re-armed
    # tick then fires alone at 4.0.
    assert order == ["post-a", "tick@2", "post-b", "tick@4"]


def test_post_repeating_rejects_nonpositive_interval_and_negative_delay():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.post_repeating(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.post_repeating(1.0, lambda: None, first_delay=-0.1)


def test_cancel_twice_is_a_noop_and_counts_stay_exact():
    sched = Scheduler()
    fired = []
    handle = sched.post_repeating(1.0, fired.append, "x")
    sched.post_at(3.5, fired.append, "y")
    handle.cancel()
    handle.cancel()
    assert handle.cancelled
    sched.run_until(10.0)
    assert fired == ["y"]
    assert sched.pending_events == 0
