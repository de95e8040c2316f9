"""Subprocess harness: real OS processes, real SIGKILL, real detection.

Each test spawns actual ``python -m repro.rt.child`` interpreters, so the
whole suite is rt-marked (excluded from tier-1; run with ``-m rt``).
"""

import asyncio

import pytest

from repro.apps.scenarios import FAILURE_DETECTION_S, scenario_named
from repro.eval.rt import run_rt_case
from repro.rt.proc import ProcessHome
from tests.helpers import resource_warnings_are_errors

pytestmark = pytest.mark.rt


def run(coro):
    return asyncio.run(coro)


def test_sigkill_detected_within_failure_detection_time():
    async def scenario():
        home = ProcessHome(scenario_named("smoke3"), seed=7)
        async with home:
            loop = asyncio.get_event_loop()
            # Wait for full membership first.
            deadline = loop.time() + 8.0
            everyone = {"p0", "p1", "p2"}
            while loop.time() < deadline:
                views = await home.views()
                if all(set(v) >= everyone for v in views.values()):
                    break
                await asyncio.sleep(0.1)
            else:
                pytest.fail(f"membership never converged: {views}")

            killed_at = loop.time()
            await home.crash_process("p2")  # actual SIGKILL, no goodbye
            assert home.nodes["p2"].popen.poll() is not None

            # Survivors must evict p2 within the detection threshold
            # (plus report-harvest slack: views are sampled over TCP).
            slack = 2.0
            while loop.time() < killed_at + FAILURE_DETECTION_S + slack:
                views = await home.views()
                if all("p2" not in v for v in views.values()):
                    break
                await asyncio.sleep(0.05)
            else:
                pytest.fail(f"p2 still in a survivor view: {views}")
            detect_elapsed = loop.time() - killed_at
            assert detect_elapsed <= FAILURE_DETECTION_S + slack

    run(scenario())


def test_smoke3_full_case_passes_all_oracles():
    """The acceptance scenario: SIGKILL + proxy loss, 0 violations."""
    record, _emitted, violations, metrics, diagnostics = run_rt_case(
        scenario_named("smoke3"), seed=42, duration=5.0, mode="subprocess",
    )
    assert violations == [], [str(v) for v in violations]
    # The SIGKILL actually happened and is in the record.
    assert record.alive == {"p0": True, "p1": True, "p2": False}
    assert record.trace.count("crash") == 1
    # The proxy loss episode actually dropped frames on the real wire.
    assert record.trace.count("net_drop") > 0
    assert metrics["delivered_fraction"] >= 0.9
    # One run clock: parent and children stamp run-relative seconds.
    assert all(0.0 <= e.time < 60.0 for e in record.trace.events)
    assert diagnostics is None  # the nodes' counters live in the children


def test_emit_loss_drops_device_injections():
    """Start / emit / stop, with ``ResourceWarning`` as an error: the
    parent keeps no handle on a child's stderr file once it is spawned."""
    async def scenario():
        home = ProcessHome(scenario_named("smoke3"), seed=11, use_proxy=False)
        async with home:
            home.set_link_loss("m1", "p0", 1.0)
            home.emit("m1", True)
            # The event still reaches p1 (m1's other receiver), so the
            # app processes it; p0 just never saw the radio frame.
            await home.quiesce(idle_for=0.3, timeout=8.0)
            record = await home.run_record()
            assert record.lossless is False
            assert record.trace.count("sensor_emit") == 1

    with resource_warnings_are_errors():
        run(scenario())


def test_startup_failure_reports_child_stderr():
    async def scenario():
        home = ProcessHome(scenario_named("smoke3"), seed=3,
                           python="/nonexistent/python")
        with pytest.raises((RuntimeError, OSError)):
            await home.start()
        await home.stop()

    run(scenario())
