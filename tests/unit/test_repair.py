"""Unit tests for the app-level repair layer (core.repair)."""

import heapq
import itertools

import pytest

from repro.core.events import Event
from repro.core.repair import RepairPolicy, RepairSession


class FakeHandle:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeEnv:
    """Minimal RuntimeEnv stand-in: clock, timers, trace sink."""

    def __init__(self):
        self._now = 0.0
        self._timers = []
        self._counter = itertools.count()
        self.traces = []

    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        handle = FakeHandle()
        heapq.heappush(
            self._timers, (self._now + delay, next(self._counter), fn, args, handle)
        )
        return handle

    defer = schedule

    def trace(self, kind, **fields):
        self.traces.append((kind, fields))

    def advance(self, to):
        while self._timers and self._timers[0][0] <= to:
            at, _, fn, args, handle = heapq.heappop(self._timers)
            self._now = at
            if not handle.cancelled:
                fn(*args)
        self._now = to

    def decisions(self, decision=None):
        picked = [f for k, f in self.traces if k == "repair"]
        if decision is None:
            return picked
        return [f for f in picked if f["decision"] == decision]


def make_session(policy, env=None):
    env = env or FakeEnv()
    delivered = []
    session = RepairSession(
        policy, "app", env, lambda sensor, event: delivered.append((sensor, event))
    )
    return session, env, delivered


_SEQ = itertools.count(1)


def ev(sensor, value, at=0.0):
    return Event(sensor_id=sensor, seq=next(_SEQ), emitted_at=at,
                 value=value, size_bytes=8)


# -- policy validation ------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        RepairPolicy(stuck_after=1)
    with pytest.raises(ValueError):
        RepairPolicy(retry_timeout_s=0.0)
    with pytest.raises(ValueError):
        RepairPolicy(quarantine_after=0)
    with pytest.raises(ValueError):
        RepairPolicy(echo_timeout_s=-1.0)
    with pytest.raises(ValueError):
        RepairPolicy(echo_lead_s=-0.1)
    with pytest.raises(ValueError):
        RepairPolicy(correlation_max_age_s=0.0)
    with pytest.raises(ValueError):
        RepairPolicy(valid_range={"t1": (5.0, 5.0)})


# -- stuck detection --------------------------------------------------------------------


STUCK = RepairPolicy(correlations={"m1": ("m2",)}, stuck_after=3)


def test_healthy_readings_pass_through_unchanged():
    session, env, _ = make_session(STUCK)
    event = ev("m1", True)
    assert session.admit("m1", event) is event
    assert env.decisions() == []


def test_benign_constancy_without_disagreeing_backup_passes():
    session, env, _ = make_session(STUCK)
    for t in range(10):
        env.advance(float(t))
        assert session.admit("m2", ev("m2", True, float(t))) is not None
        assert session.admit("m1", ev("m1", True, float(t))) is not None
    assert env.decisions() == []


def test_stuck_with_fresh_disagreeing_backup_substitutes():
    session, env, _ = make_session(STUCK)
    for t in range(4):
        env.advance(float(t))
        session.admit("m2", ev("m2", False, float(t)))
        repaired = session.admit("m1", ev("m1", True, float(t)))
        if t < 2:
            assert repaired.value is True  # run not long enough yet
        else:
            assert repaired.value is False  # substituted from m2
    assert len(env.decisions("substitute")) == 2


def test_backup_is_never_stuck_suspect():
    session, env, _ = make_session(STUCK)
    for t in range(6):
        env.advance(float(t))
        # m1 varies (never a run), m2 repeats forever and disagrees with
        # m1 half the time — but m2 has no correlations entry, so its
        # constancy is never judged.
        session.admit("m1", ev("m1", t % 2 == 0, float(t)))
        repaired = session.admit("m2", ev("m2", True, float(t)))
        assert repaired.value is True
    assert env.decisions() == []


def test_stale_backup_does_not_trigger_suspicion():
    session, env, _ = make_session(
        RepairPolicy(correlations={"m1": ("m2",)}, stuck_after=3,
                     correlation_max_age_s=10.0)
    )
    session.admit("m2", ev("m2", False, 0.0))
    # m2's only reading is older than correlation_max_age_s by the time
    # m1's run gets long enough to matter: no suspicion.
    for t in range(12, 60, 3):
        env.advance(float(t))
        assert session.admit("m1", ev("m1", True, float(t))).value is True
    assert env.decisions() == []


def test_suspect_without_repair_options_drops():
    session, env, _ = make_session(
        RepairPolicy(correlations={"m1": ("m2",)}, stuck_after=2,
                     substitute=False)
    )
    session.admit("m2", ev("m2", False))
    session.admit("m1", ev("m1", True))
    assert session.admit("m1", ev("m1", True)) is None
    assert len(env.decisions("drop")) == 1


def test_hold_last_known_good():
    # Hold pays off for range faults: the out-of-range reading never
    # became last-good, so the app keeps seeing the last sane value.
    session, env, _ = make_session(
        RepairPolicy(valid_range={"t1": (10.0, 35.0)}, substitute=False,
                     hold_last_known_good=True)
    )
    assert session.admit("t1", ev("t1", 21.0)).value == 21.0
    held = session.admit("t1", ev("t1", 99.0))
    assert held.value == 21.0
    assert len(env.decisions("hold")) == 1


# -- quarantine -------------------------------------------------------------------------


def test_quarantine_alerts_and_requalifies():
    session, env, _ = make_session(
        RepairPolicy(correlations={"m1": ("m2",)}, stuck_after=2,
                     quarantine_after=3)
    )
    for t in range(5):
        env.advance(float(t))
        session.admit("m2", ev("m2", False, float(t)))
        session.admit("m1", ev("m1", True, float(t)))
    assert session.quarantined == {"m1"}
    alerts = [f for k, f in env.traces if k == "alert"]
    assert len(alerts) == 1 and alerts[0]["sensor"] == "m1"
    # The sensor recovers and agrees with its backup again.
    env.advance(5.0)
    session.admit("m2", ev("m2", False, 5.0))
    session.admit("m1", ev("m1", False, 5.0))
    assert session.quarantined == frozenset()
    assert len(env.decisions("requalified")) == 1


def test_quarantined_backup_is_not_a_substitution_source():
    session, env, _ = make_session(
        RepairPolicy(correlations={"m1": ("m2",), "m2": ("m1",)},
                     stuck_after=2, quarantine_after=1, substitute=False)
    )
    # Quarantine m2 (m1 disagrees while m2 repeats).
    session.admit("m1", ev("m1", False))
    session.admit("m2", ev("m2", True))
    session.admit("m2", ev("m2", True))
    assert "m2" in session.quarantined
    # m1's readings must not be judged against the quarantined m2.
    for t in range(4):
        env.advance(float(t + 1))
        assert session.admit("m1", ev("m1", False)).value is False


# -- range checks and retry -------------------------------------------------------------


RANGE = RepairPolicy(valid_range={"t1": (10.0, 35.0)}, retry_timeout_s=5.0,
                     hold_last_known_good=True)


def test_in_range_passes_out_of_range_buffers_then_holds():
    session, env, delivered = make_session(RANGE)
    assert session.admit("t1", ev("t1", 21.0)).value == 21.0
    assert session.admit("t1", ev("t1", 99.0, 0.0)) is None  # buffered
    assert env.decisions("retry_wait")
    env.advance(6.0)  # retry expires: escalate to hold
    assert len(delivered) == 1
    assert delivered[0][1].value == 21.0
    assert env.decisions("hold")


def test_retry_superseded_by_good_reading():
    session, env, delivered = make_session(RANGE)
    session.admit("t1", ev("t1", 21.0))
    assert session.admit("t1", ev("t1", 99.0, 0.0)) is None
    env.advance(2.0)
    assert session.admit("t1", ev("t1", 22.0, 2.0)).value == 22.0
    env.advance(10.0)  # expired timer must not fire
    assert delivered == []
    assert env.decisions("retry_superseded")


def test_booleans_are_exempt_from_range_checks():
    session, env, _ = make_session(RepairPolicy(valid_range={"t1": (10.0, 35.0)}))
    assert session.admit("t1", ev("t1", True)).value is True


def test_close_cancels_pending_retries():
    session, env, delivered = make_session(RANGE)
    session.admit("t1", ev("t1", 21.0))
    session.admit("t1", ev("t1", 99.0))
    session.close()
    env.advance(10.0)
    assert delivered == []


# -- echo synthesis ---------------------------------------------------------------------


ECHO = RepairPolicy(correlations={"m1": ("m2",)}, stuck_after=3,
                    echo_timeout_s=5.0, echo_lead_s=2.0)


def test_silent_primary_gets_backup_echo():
    session, env, delivered = make_session(ECHO)
    session.admit("m1", ev("m1", False, 0.0))
    env.advance(100.0)  # m1 goes silent
    session.admit("m2", ev("m2", True, 100.0))
    env.advance(106.0)
    assert len(delivered) == 1
    sensor, event = delivered[0]
    assert sensor == "m1" and event.value is True
    assert event.seq < 0  # synthesized seqs never collide with real ones
    assert env.decisions("synthesize")


def test_fresh_primary_suppresses_echo():
    session, env, delivered = make_session(ECHO)
    session.admit("m1", ev("m1", True, 0.0))
    env.advance(1.0)
    session.admit("m2", ev("m2", True, 1.0))  # m1 spoke 1s ago: fresh
    env.advance(10.0)
    assert delivered == []


def test_primary_speaking_just_before_burst_does_not_block_echo():
    session, env, delivered = make_session(ECHO)
    env.advance(97.0)
    session.admit("m1", ev("m1", False, 97.0))  # last word before silence
    env.advance(100.0)
    session.admit("m2", ev("m2", True, 100.0))  # 3s later: beyond the lead
    env.advance(106.0)
    assert len(delivered) == 1


def test_one_echo_per_backup_reading():
    session, env, delivered = make_session(ECHO)
    env.advance(100.0)
    session.admit("m2", ev("m2", True, 100.0))
    session.admit("m2", ev("m2", True, 100.5))
    env.advance(110.0)
    # The first check synthesizes and marks m1 heard; the second skips.
    assert len(delivered) == 1


def test_echoes_require_opt_in():
    session, env, delivered = make_session(STUCK)  # no echo_timeout_s
    env.advance(100.0)
    session.admit("m2", ev("m2", True, 100.0))
    env.advance(200.0)
    assert delivered == []
