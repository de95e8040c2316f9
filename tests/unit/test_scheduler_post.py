"""post_at — the fire-and-forget scheduling lane — must order exactly like
call_at while mixing freely with timer entries in the same heap."""

import pytest

from repro.sim.scheduler import Scheduler, SimulationError


def test_post_at_orders_with_call_at_by_time_then_submission():
    sched = Scheduler()
    order = []
    sched.call_at(2.0, order.append, "call@2")
    sched.post_at(1.0, order.append, "post@1")
    sched.post_at(2.0, order.append, "post@2a")
    sched.call_at(2.0, order.append, "call@2b")
    sched.post_at(2.0, order.append, "post@2c")
    sched.run()
    assert order == ["post@1", "call@2", "post@2a", "call@2b", "post@2c"]


def test_post_at_rejects_the_past():
    sched = Scheduler()
    sched.call_at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.post_at(4.0, lambda: None)


def test_post_at_counts_as_pending_and_processed():
    sched = Scheduler()
    fired = []
    sched.post_at(1.0, fired.append, 1)
    sched.post_at(2.0, fired.append, 2)
    assert sched.pending_events == 2
    sched.run_until(10.0)
    assert fired == [1, 2]
    assert sched.pending_events == 0
    assert sched.processed_events == 2


def test_posted_entries_survive_compaction():
    sched = Scheduler()
    fired = []
    handles = [sched.call_at(5.0, fired.append, i) for i in range(200)]
    sched.post_at(6.0, fired.append, "posted")
    for handle in handles:
        handle.cancel()  # a bulk cancel, skipped lazily at 5.0
    sched.run_until(10.0)
    assert fired == ["posted"]


def test_posted_callback_can_post_more_work():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sched.post_at(sched.now + 1.0, chain, n + 1)

    sched.post_at(0.0, chain, 0)
    sched.run_until(10.0)
    assert fired == [0, 1, 2, 3]


# -- same-timestamp semantics pinned before the batched-dispatch change ---------


def test_rearmed_repeating_runs_after_preexisting_posts_at_same_time():
    """A repeating timer's re-arm happens while its tick runs, so at the
    *next* shared timestamp it must run after anything already queued there."""
    sched = Scheduler()
    order = []
    sched.call_repeating(1.0, lambda: order.append(f"tick@{sched.now:g}"))
    sched.post_at(1.0, order.append, "post@1")
    sched.post_at(2.0, order.append, "post@2")
    sched.run_until(2.5)
    assert order == ["tick@1", "post@1", "post@2", "tick@2"]


def test_post_at_now_during_drain_joins_the_current_batch():
    sched = Scheduler()
    order = []

    def first():
        order.append("first")
        sched.post_at(sched.now, order.append, "same-instant")

    sched.post_at(5.0, first)
    sched.call_at(5.0, order.append, "second")
    sched.run_until(5.0)
    assert order == ["first", "second", "same-instant"]


def test_cancel_of_a_later_entry_in_the_same_batch():
    sched = Scheduler()
    order = []
    handles = {}
    handles["victim"] = None

    def canceller():
        order.append("canceller")
        handles["victim"].cancel()

    sched.call_at(3.0, canceller)
    handles["victim"] = sched.call_at(3.0, order.append, "victim")
    sched.post_at(3.0, order.append, "post")
    sched.run_until(4.0)
    assert order == ["canceller", "post"]


def test_heavy_cancellation_keeps_equal_timestamp_order_for_survivors():
    sched = Scheduler()
    order = []
    doomed = []
    for i in range(300):
        if i % 3 == 0:
            sched.post_at(7.0, order.append, i)
        else:
            handle = sched.call_at(7.0, order.append, i)
            if i % 3 == 1:
                doomed.append(handle)
    for handle in doomed:
        handle.cancel()  # a bulk cancel inside one bucket
    assert sched.pending_events == 200
    sched.run_until(7.0)
    assert order == [i for i in range(300) if i % 3 != 1]
    assert sched.pending_events == 0


def test_pending_events_counts_posts_and_handles_through_compaction():
    sched = Scheduler()
    for i in range(10):
        sched.post_at(50.0, lambda: None)
    handles = [sched.call_at(float(i + 1), lambda: None) for i in range(200)]
    assert sched.pending_events == 210
    for handle in handles:
        handle.cancel()
    assert sched.pending_events == 10
    sched.run_until(100.0)
    assert sched.processed_events == 10
