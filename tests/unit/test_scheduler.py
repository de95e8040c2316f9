"""Unit tests for the discrete-event scheduler."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sim.scheduler import Scheduler, SimulationError

SRC = Path(__file__).resolve().parents[2] / "src"


def test_time_starts_at_zero():
    assert Scheduler().now == 0.0


def test_call_later_runs_in_time_order():
    sched = Scheduler()
    order = []
    sched.call_later(2.0, order.append, "b")
    sched.call_later(1.0, order.append, "a")
    sched.call_later(3.0, order.append, "c")
    sched.run()
    assert order == ["a", "b", "c"]


def test_same_time_runs_in_scheduling_order():
    sched = Scheduler()
    order = []
    for tag in ("first", "second", "third"):
        sched.call_at(5.0, order.append, tag)
    sched.run()
    assert order == ["first", "second", "third"]


def test_now_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.call_later(1.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [1.5]


def test_run_until_stops_at_deadline():
    sched = Scheduler()
    ran = []
    sched.call_later(1.0, ran.append, 1)
    sched.call_later(5.0, ran.append, 5)
    sched.run_until(2.0)
    assert ran == [1]
    assert sched.now == 2.0
    sched.run_until(10.0)
    assert ran == [1, 5]


def test_run_until_deadline_is_inclusive():
    sched = Scheduler()
    ran = []
    sched.call_at(2.0, ran.append, "x")
    sched.run_until(2.0)
    assert ran == ["x"]


def test_cancelled_timer_does_not_fire():
    sched = Scheduler()
    ran = []
    handle = sched.call_later(1.0, ran.append, "x")
    handle.cancel()
    sched.run()
    assert ran == []
    assert handle.cancelled
    assert not handle.fired


def test_cancel_after_fire_is_noop():
    sched = Scheduler()
    handle = sched.call_later(0.5, lambda: None)
    sched.run()
    assert handle.fired
    handle.cancel()  # must not raise
    assert handle.fired and not handle.cancelled


def test_scheduling_in_the_past_rejected():
    sched = Scheduler()
    sched.call_later(1.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Scheduler().call_later(-0.1, lambda: None)


def test_run_until_past_deadline_rejected():
    sched = Scheduler()
    sched.run_until(5.0)
    with pytest.raises(SimulationError):
        sched.run_until(2.0)


def test_callbacks_can_schedule_more_work():
    sched = Scheduler()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sched.call_later(1.0, chain, n + 1)

    sched.call_later(1.0, chain, 1)
    sched.run()
    assert seen == [1, 2, 3]
    assert sched.now == 3.0


def test_event_budget_guards_infinite_loops():
    sched = Scheduler()

    def forever():
        sched.call_later(0.1, forever)

    sched.call_later(0.1, forever)
    with pytest.raises(SimulationError):
        sched.run(max_events=100)


def test_event_budget_guards_a_loop_at_one_instant():
    # A callback that re-posts itself at delay 0 never leaves its instant,
    # so the budget must hold inside the drain too. Run in a subprocess: a
    # scheduler without that bound spins forever instead of raising.
    program = textwrap.dedent("""
        from repro.sim.scheduler import Scheduler, SimulationError

        sched = Scheduler()

        def again():
            sched.call_later(0.0, again)

        sched.call_later(1.0, again)
        try:
            sched.run(max_events=1000)
        except SimulationError:
            assert sched.processed_events == 1000, sched.processed_events
            assert sched.now == 1.0
            print("raised")
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("run(max_events=1000) spun at one instant instead of raising")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


def test_a_repeating_period_below_the_clock_resolution_raises():
    # At t = 1e7 a 1e-10 period is below the float resolution: every re-arm
    # would land on the instant being drained. Arming such a timer is
    # refused. At 2**53 - 1 a 0.6 period advances the clock once (to 2**53,
    # where the spacing is 2) and then no more: the re-arm raises, on the
    # lone-timer path and on the multi-entry path (once per timer), through
    # run and run_until alike. In a subprocess: without the check both spin
    # forever.
    program = textwrap.dedent("""
        from repro.sim.scheduler import Scheduler, SimulationError

        sched = Scheduler()
        sched.run_until(1e7)
        try:
            sched.post_repeating(1e-10, print)
        except SimulationError:
            print("armed: refused")
        sched.run(max_events=1000)
        assert sched.pending_events == 0

        edge = 2.0 ** 53 - 1
        for timers in (1, 2):
            for drain in ("run", "run_until"):
                sched = Scheduler()
                sched.run_until(edge)
                fired = []
                handles = [sched.post_repeating(0.6, fired.append, i, first_delay=0.0)
                           for i in range(timers)]
                try:
                    if drain == "run":
                        sched.run(max_events=1000)
                    else:
                        sched.run_until(edge + 10.0)
                except SimulationError:
                    assert sched.now == edge + 1, sched.now
                    assert len(fired) == timers + 1, fired
                    assert handles[0].cancelled
                    print(f"{timers} {drain}: raised")
                # The scheduler stays usable: the rest of the instant runs,
                # and each other timer stalled there raises in turn.
                for _ in range(timers - 1):
                    try:
                        sched.run_until(edge + 10.0)
                    except SimulationError:
                        pass
                sched.run_until(edge + 10.0)
                assert fired == [*range(timers), *range(timers)], fired
                assert sched.pending_events == 0
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a repeating timer that no longer advances the clock spun")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:-1] == [
        "armed: refused", "1 run: raised", "1 run_until: raised",
        "2 run: raised", "2 run_until: raised",
    ]


def test_budget_does_not_outlive_run():
    sched = Scheduler()
    sched.call_later(0.0, lambda: None)
    sched.run(max_events=10)
    assert "_budget" not in vars(sched)
    ran = []
    for i in range(50):
        sched.call_at(1.0, ran.append, i)
    sched.run_until(1.0)  # no budget outside run()
    assert len(ran) == 50


def test_pending_and_processed_counters():
    sched = Scheduler()
    sched.call_later(1.0, lambda: None)
    handle = sched.call_later(2.0, lambda: None)
    handle.cancel()
    assert sched.pending_events == 1
    sched.run()
    assert sched.processed_events == 1


# -- call_repeating ------------------------------------------------------------


def test_call_repeating_fires_every_interval():
    sched = Scheduler()
    times = []
    sched.call_repeating(1.0, lambda: times.append(sched.now))
    sched.run_until(4.5)
    assert times == [1.0, 2.0, 3.0, 4.0]


def test_call_repeating_first_delay():
    sched = Scheduler()
    times = []
    sched.call_repeating(1.0, lambda: times.append(sched.now), first_delay=0.25)
    sched.run_until(3.0)
    assert times == [0.25, 1.25, 2.25]


def test_call_repeating_cancel_stops_ticks():
    sched = Scheduler()
    times = []
    handle = sched.call_repeating(1.0, lambda: times.append(sched.now))
    sched.run_until(2.5)
    handle.cancel()
    sched.run_until(10.0)
    assert times == [1.0, 2.0]
    assert sched.pending_events == 0


def test_call_repeating_cancel_from_inside_callback():
    sched = Scheduler()
    fired = []
    handle = sched.call_repeating(1.0, lambda: (fired.append(sched.now),
                                                handle.cancel()))
    sched.run_until(5.0)
    assert fired == [1.0]


def test_call_repeating_matches_rearming_call_later_exactly():
    """Converting a self-re-arming timer must not perturb fire times."""
    interval = 0.3  # deliberately not exactly representable
    a, b = Scheduler(), Scheduler()
    times_a, times_b = [], []

    def rearm():
        times_a.append(a.now)
        a.call_later(interval, rearm)

    a.call_later(interval, rearm)
    b.call_repeating(interval, lambda: times_b.append(b.now))
    a.run_until(10.0)
    b.run_until(10.0)
    assert times_a == times_b  # bit-for-bit, not approximately


def test_call_repeating_rejects_bad_interval():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.call_repeating(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.call_repeating(-1.0, lambda: None)


# -- O(1) pending + lazy cancel -----------------------------------------------


def test_pending_events_tracks_cancellations():
    sched = Scheduler()
    handles = [sched.call_later(float(i + 1), lambda: None) for i in range(10)]
    assert sched.pending_events == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sched.pending_events == 6
    handles[0].cancel()  # double-cancel is a no-op
    assert sched.pending_events == 6
    sched.run_until(20.0)
    assert sched.pending_events == 0
    assert sched.processed_events == 6


def test_mass_cancellation_is_lazy():
    """Cancelling leaves the entry where it is stored; the drain skips it
    at its instant. Nothing sweeps the heap in between."""
    sched = Scheduler()
    keep = [sched.call_later(1000.0 + i, lambda: None) for i in range(5)]
    doomed = [sched.call_later(float(i + 1), lambda: None) for i in range(500)]
    for handle in doomed:
        handle.cancel()
    assert len(sched._heap) == 505
    assert sched.pending_events == 5
    sched.run_until(2000.0)
    assert sched.processed_events == 5
    assert all(h.fired for h in keep)
    assert not sched._heap and not sched._buckets


def test_cancelled_entries_skipped_after_compaction():
    sched = Scheduler()
    fired = []
    sched.call_later(5.0, lambda: fired.append("kept"))
    doomed = [sched.call_later(1.0, lambda: fired.append("no")) for _ in range(200)]
    for handle in doomed:
        handle.cancel()
    sched.run_until(10.0)
    assert fired == ["kept"]


def _boom() -> None:
    raise RuntimeError("boom")


@pytest.mark.parametrize("entry", ["post_at", "call_at"])
def test_a_lone_callback_that_raises_leaves_its_instant_usable(entry):
    """A lone post and a solo one-shot run on run_until's express paths.
    When the callback raises, its instant must not stay mapped without a
    heap slot: work scheduled there later runs, and nothing is left
    pending."""
    sched = Scheduler()
    log = []
    getattr(sched, entry)(1.0, _boom)
    with pytest.raises(RuntimeError):
        sched.run_until(2.0)
    assert sched.pending_events == 0
    sched.post_at(sched.now, log.append, "x")
    sched.run_until(3.0)
    assert log == ["x"]
    assert sched.pending_events == 0


@pytest.mark.parametrize("entry", ["post_at", "call_at", "post_repeating"])
def test_what_a_raising_lone_callback_scheduled_at_its_instant_still_runs(entry):
    """Same-instant work scheduled before the raise resumes on the next
    run_until, in order, as the general drain resumes a bucket; a
    repeating timer that raised is spent (no re-arm), as it is there."""
    sched = Scheduler()
    log = []

    def schedule_then_raise():
        sched.post_at(sched.now, log.append, "a")
        sched.call_at(sched.now, log.append, "b")
        raise RuntimeError("boom")

    if entry == "post_repeating":
        sched.post_repeating(1.0, schedule_then_raise)
    else:
        getattr(sched, entry)(1.0, schedule_then_raise)
    with pytest.raises(RuntimeError):
        sched.run_until(2.0)
    assert log == [] and sched.pending_events == 2
    sched.run_until(2.0)
    assert log == ["a", "b"]
    assert sched.pending_events == 0 and not sched._buckets and not sched._heap
