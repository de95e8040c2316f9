"""Crash-recovery semantics of the process runtime (Section 3.1)."""

import pytest


def test_crashed_process_sends_and_receives_nothing(make_home):
    home, _ = make_home(receiving=["p1"])
    home.run_until(2.0)
    home.crash_process("p2")
    sent_before = len([e for e in home.trace.of_kind("net_send")
                       if e["src"] == "p2"])
    home.run_until(10.0)
    sent_after = len([e for e in home.trace.of_kind("net_send")
                      if e["src"] == "p2"])
    assert sent_after == sent_before
    # Messages addressed to it are dropped at delivery.
    drops = [e for e in home.trace.of_kind("net_drop") if e["dst"] == "p2"]
    assert drops


@pytest.mark.parametrize("method", ["schedule", "defer"])
def test_timers_from_old_incarnation_do_not_fire(make_home, method):
    home, _ = make_home(receiving=["p1"])
    home.run_until(2.0)
    process = home.processes["p2"]
    fired = []
    getattr(process, method)(5.0, fired.append, "old-incarnation")
    home.crash_process("p2")
    home.run_until(4.0)
    home.recover_process("p2")
    home.run_until(12.0)
    assert fired == [], "a pre-crash timer fired after recovery"


def test_crash_and_recovery_inside_one_heartbeat_interval():
    """The old incarnation's tick is inert from the crash on and retires
    itself at its next instant; the new incarnation's is the only one
    that sends, so each peer hears one keep-alive per interval."""
    from repro.core.home import Home

    home = Home(seed=1)
    for i in range(3):
        home.add_process(f"p{i}")
    home.run_until(2.1)  # ticks at 0.0, 0.5, ..., 2.0; the next is at 2.5
    process = home.processes["p2"]
    old_tick = process.heartbeat._tick_handle
    home.crash_process("p2")
    home.run_until(2.3)
    home.recover_process("p2")  # the new incarnation ticks at once, at 2.3
    home.run_until(2.1 + process.heartbeat.interval)
    assert old_tick.cancelled
    stored = [entry for bucket in home.scheduler._buckets.values()
              if type(bucket) is list for entry in bucket]
    assert not any(entry is old_tick._entry for entry in stored)
    home.run_until(5.0)
    sent = [(round(e.time, 6), e["dst"]) for e in home.trace.of_kind("net_send")
            if e["src"] == "p2" and e["kind"] == "keepalive" and e.time > 2.0]
    assert not [t for t, _ in sent if t < 2.3], "the crashed incarnation sent"
    ticks = [round(2.3 + 0.5 * k, 6) for k in range(6)]  # 2.3 ... 4.8
    assert sent == [(t, dst) for t in ticks for dst in ("p0", "p1")]


def test_double_crash_and_double_recover_raise_fault_error(make_home):
    import pytest

    from repro.sim.faults import FaultError

    home, _ = make_home(receiving=["p1"])
    home.run_until(1.0)
    process = home.processes["p3"]
    home.crash_process("p3")
    with pytest.raises(FaultError, match="already crashed"):
        home.crash_process("p3")
    assert not process.alive
    home.recover_process("p3")
    incarnation_once = process._incarnation
    with pytest.raises(FaultError, match="is live"):
        home.recover_process("p3")
    assert process._incarnation == incarnation_once
    assert process.alive
    # The runtime's own crash()/recover() stay idempotent; only the Home
    # fault-injection surface validates.
    process.crash()
    process.crash()
    process.recover()
    process.recover()
    assert process.alive


def test_event_journal_survives_crash(make_home):
    home, _ = make_home(receiving=[f"p{i}" for i in range(5)])
    home.run_until(1.0)
    sensor = home.sensor("s1")
    for _ in range(5):
        sensor.emit(True)
    home.run_until(3.0)
    before = home.processes["p2"].store.total_events()
    assert before == 5
    home.crash_process("p2")
    home.run_until(8.0)
    home.recover_process("p2")
    assert home.processes["p2"].store.total_events() == before


def test_soft_state_is_rebuilt_fresh_on_recovery(make_home):
    home, _ = make_home(receiving=["p1"])
    home.run_until(2.0)
    process = home.processes["p1"]
    old_delivery = process.delivery
    old_heartbeat = process.heartbeat
    home.crash_process("p1")
    home.run_until(6.0)
    home.recover_process("p1")
    assert process.delivery is not old_delivery
    assert process.heartbeat is not old_heartbeat


def test_radio_events_ignored_while_crashed(make_home):
    home, collected = make_home(receiving=["p1"])
    home.run_until(1.0)
    home.crash_process("p1")  # the only process hearing the sensor
    home.run_for(0.5)
    home.sensor("s1").emit("lost-forever")
    home.run_until(10.0)
    # Nobody ingested: even Gapless cannot deliver a never-received event.
    assert home.trace.count("ingest") == 0
    assert collected.events == []


def test_local_clock_skew_is_visible(make_home):
    from repro.core.home import Home
    home = Home(seed=1)
    home.add_process("p0", clock_skew=0.5)
    home.add_process("p1")
    home.start()
    home.run_until(10.0)
    assert home.processes["p0"].local_time() - 10.0 == 0.5
    assert home.processes["p1"].local_time() == 10.0
