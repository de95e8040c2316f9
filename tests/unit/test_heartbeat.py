"""Unit tests for the keep-alive failure detector, on FakeEnv loopback."""

import pytest

from repro.membership.heartbeat import HeartbeatService
from repro.sim.scheduler import Scheduler
from tests.helpers import FakeEnv


def make_pair(interval=0.5, timeout=2.0):
    sched = Scheduler()
    a = FakeEnv("a", sched)
    b = FakeEnv("b", sched)
    a.link(b)
    ha = HeartbeatService(a, interval=interval, timeout=timeout)
    hb = HeartbeatService(b, interval=interval, timeout=timeout)
    return sched, a, b, ha, hb


def test_timeout_must_exceed_interval():
    env = FakeEnv("a")
    with pytest.raises(ValueError):
        HeartbeatService(env, interval=1.0, timeout=0.5)


def test_starts_optimistic():
    sched, a, b, ha, hb = make_pair()
    ha.start()
    assert "b" in ha.view
    assert ha.is_alive("b")
    assert ha.is_alive("a")


def test_keepalives_flow_both_ways():
    sched, a, b, ha, hb = make_pair()
    ha.start()
    hb.start()
    sched.run_until(5.0)
    assert len(a.sent_of_kind("keepalive")) >= 9
    assert "a" in hb.view and "b" in ha.view


def test_silent_peer_gets_suspected():
    sched, a, b, ha, hb = make_pair()
    ha.start()  # b never starts its own service
    sched.run_until(5.0)
    assert "b" not in ha.view


def test_suspect_then_unsuspect_on_recovery():
    sched, a, b, ha, hb = make_pair()
    changes = []
    ha.add_view_listener(lambda view, added, removed: changes.append((set(added), set(removed))))
    ha.start()
    hb.start()
    sched.run_until(2.0)

    hb.stop()
    sched.run_until(6.0)
    assert "b" not in ha.view
    assert (set(), {"b"}) in changes

    hb2 = HeartbeatService(b, interval=0.5, timeout=2.0)
    hb2.start()
    sched.run_until(8.0)
    assert "b" in ha.view
    assert ({"b"}, set()) in changes


def test_detection_within_timeout_plus_interval():
    sched, a, b, ha, hb = make_pair(interval=0.5, timeout=2.0)
    ha.start()
    hb.start()
    sched.run_until(10.0)
    hb.stop()
    suspect_times = []
    ha.add_view_listener(lambda *_: suspect_times.append(sched.now))
    sched.run_until(20.0)
    assert suspect_times, "peer was never suspected"
    # Last keep-alive was at ~10.0; detection needs > timeout but should not
    # take much longer than timeout + one check interval.
    assert 12.0 <= suspect_times[0] <= 13.1


def test_payload_piggyback_roundtrip():
    sched, a, b, ha, hb = make_pair()
    received = []
    ha.add_payload_provider("wm", lambda: {"app": 7})
    hb.add_payload_consumer("wm", lambda sender, value: received.append((sender, value)))
    ha.start()
    hb.start()
    sched.run_until(2.0)
    assert ("a", {"app": 7}) in received


def test_empty_payloads_not_piggybacked():
    sched, a, b, ha, hb = make_pair()
    ha.add_payload_provider("wm", dict)
    ha.start()
    sched.run_until(1.0)
    assert all("wm" not in m.payload for m in a.sent_of_kind("keepalive"))


def test_stop_halts_ticks():
    sched, a, b, ha, hb = make_pair()
    ha.start()
    sched.run_until(1.0)
    sent_before = len(a.sent)
    ha.stop()
    sched.run_until(5.0)
    assert len(a.sent) == sent_before


def test_suspicion_trace_pinned_under_watermark_scan():
    """The suspicion-scan watermark is a pure fast-out: the suspect and
    unsuspect records of a silence/recovery cycle must be exactly the ones
    the per-tick full scan produced (same times, same peers)."""
    sched, a, b, ha, hb = make_pair(interval=0.5, timeout=2.0)
    ha.start()
    hb.start()
    sched.run_until(3.0)
    hb.stop()
    sched.run_until(10.0)
    hb.start()
    sched.run_until(15.0)
    records = [
        (r.time, r.kind, dict(r.fields))
        for r in a.trace_log
        if r.kind in ("suspect", "unsuspect")
    ]
    # b's last keep-alive lands at t=3.0; its deadline (3.0 + timeout) is
    # crossed at the t=5.5 scan tick. The restart's first keep-alive
    # arrives one link delay after t=10.0 and clears the suspicion.
    assert records == [
        (5.5, "suspect", {"process": "a", "peers": ["b"]}),
        (10.001, "unsuspect", {"process": "a", "peer": "b"}),
    ]


def test_returning_peer_resets_watermark_for_prompt_redetection():
    """After every peer was suspected the watermark sits far in the future;
    a returning peer must pull it back so a second silence is still
    detected within timeout + interval."""
    sched, a, b, ha, hb = make_pair(interval=0.5, timeout=2.0)
    ha.start()
    hb.start()
    sched.run_until(3.0)
    hb.stop()
    sched.run_until(10.0)
    assert "b" not in ha.view
    hb.start()
    sched.run_until(12.0)
    assert "b" in ha.view
    hb.stop()          # second silence
    sched.run_until(12.0 + 2.0 + 0.5 + 0.001)
    assert "b" not in ha.view


def test_assembled_payload_is_reused_until_a_provider_hands_back_a_new_object():
    sched, a, b, ha, hb = make_pair()
    value = {"app": 7}
    current = [value]
    received = []
    ha.add_payload_provider("wm", lambda: current[0])
    ha.add_payload_provider("none", dict)  # a fresh empty dict every tick
    hb.add_payload_consumer("wm", lambda sender, v: received.append(v))
    ha.start()
    hb.start()
    sched.run_until(3.0)
    # "none" changes identity every tick, so this pair rebuilds per tick...
    assert ha.payload_builds == len(a.sent_of_kind("keepalive"))
    assert all(v is value for v in received)

    # ...and with only same-object providers the payload is assembled once.
    sched, a, b, ha, hb = make_pair()
    ha.add_payload_provider("wm", lambda: current[0])
    hb.add_payload_consumer("wm", lambda sender, v: received.append(v))
    ha.start()
    hb.start()
    sched.run_until(3.0)
    assert ha.payload_builds == 1
    assembled = ha._payload
    sched.run_until(5.0)
    assert ha._payload is assembled and ha.payload_builds == 1
    # A changed value is a new object, and goes out on the next tick.
    current[0] = {"app": 8}
    del received[:]
    sched.run_until(6.0)
    assert ha.payload_builds == 2 and ha._payload is not assembled
    assert assembled == {"wm": {"app": 7}}  # the sent one was not edited
    assert received[-1] is current[0]
    # A provider going empty drops its key again.
    current[0] = {}
    sched.run_until(7.0)
    assert ha._payload == {} and ha.payload_builds == 3


def test_returning_peer_order_is_unsuspect_then_consumers_then_listeners():
    sched, a, b, ha, hb = make_pair(interval=0.5, timeout=2.0)
    order = []
    hb.add_payload_provider("wm", lambda: {"app": 7})
    ha.add_payload_consumer("wm", lambda sender, v: order.append(
        ("consumer", a.trace_log.count("unsuspect"))))
    ha.add_view_listener(lambda view, added, removed: order.append(
        ("listener", tuple(added), tuple(removed))))
    ha.start()
    hb.start()
    sched.run_until(3.0)
    hb.stop()
    sched.run_until(10.0)
    del order[:]
    hb.start()
    sched.run_until(10.01)
    # One keep-alive from the returning peer: its unsuspect record is
    # already written when the consumer runs, and the view listeners (which
    # may promote/demote on what the consumer merged) come last.
    assert order == [("consumer", 1), ("listener", ("b",), ())]
    sched.run_until(11.0)
    assert order[2:] and all(step == ("consumer", 1) for step in order[2:])
