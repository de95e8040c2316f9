"""End-to-end behaviour tests for the Table 1 applications under failures."""

import pytest

from repro.apps.catalog import TABLE1, run_catalog_app, spec_named
from repro.apps.energy import energy_billing
from repro.apps.hvac import temperature_hvac
from repro.apps.intrusion import intrusion_detection
from repro.core.home import Home


def test_all_catalog_apps_run_without_operator_errors():
    for spec in TABLE1:
        home = run_catalog_app(spec, duration=40.0)
        assert home.trace.count("operator_error") == 0, spec.key
        assert home.trace.count("logic_delivery") > 0, spec.key


@pytest.mark.parametrize("key, windows", [
    ("temperature-hvac", 4), ("activity-tracking", 1), ("energy-billing", 1),
])
def test_periodic_window_timers_do_not_grow_with_run_length(key, windows):
    home = run_catalog_app(spec_named(key), duration=900.0)
    active = [p.execution.runtimes[key] for p in home.processes.values()
              if p.execution.runtimes[key].active]
    assert len(active) == 1
    assert len(active[0]._periodic_timers) <= windows


@pytest.mark.parametrize("spec", TABLE1, ids=lambda s: s.key)
def test_catalog_delivery_types_match_table1(spec):
    home = Home(seed=1)
    home.add_process("hub")
    app = spec.setup(home)
    requirements = app.sensor_requirements()
    assert all(r.delivery is spec.delivery for r in requirements.values()), (
        f"{spec.key} must request {spec.delivery} for all sensors"
    )


def test_intrusion_detection_survives_n_minus_1_sensor_failures():
    home = Home(seed=2)
    for name in ("hub", "tv"):
        home.add_process(name)
    for i in (1, 2, 3):
        home.add_sensor(f"door{i}", kind="door")
    home.add_actuator("siren")
    app = intrusion_detection(["door1", "door2", "door3"], siren="siren")
    home.deploy(app)
    home.start()
    home.run_until(1.0)
    home.fail_sensor("door1")
    home.fail_sensor("door2")
    home.run_until(2.0)
    home.sensor("door3").emit(True)  # the single survivor
    home.run_until(5.0)
    assert home.trace.count("alert") == 1
    assert home.actuator("siren").state is True


def test_temperature_hvac_tolerates_byzantine_sensor():
    home = Home(seed=3)
    for name in ("hub", "tv", "fridge"):
        home.add_process(name)
    for i in (1, 2, 3, 4):
        home.add_sensor(f"temp{i}", kind="temperature")
    home.add_actuator("hvac", kind="hvac")
    app = temperature_hvac(
        [f"temp{i}" for i in (1, 2, 3, 4)], "hvac",
        epoch_s=2.0, window_s=2.0, threshold=25.0, arbitrary_failures=True,
    )
    home.deploy(app)
    home.start()
    # One sensor goes insane: reports 90 degrees. Marzullo must mask it and
    # keep the HVAC off (real temperature ~21 < threshold 25).
    home.sensor("temp1")._measure = lambda now, rng: 90.0
    home.run_until(30.0)
    hvac = home.actuator("hvac")
    assert hvac.state in (None, False)
    assert all(r.command.value is False for r in hvac.history)


def test_energy_billing_exact_under_gapless_with_loss():
    """The Gapless motivation: billing stays exact despite 30% link loss,
    because every event reaching any process reaches the app."""
    home = Home(seed=4)
    for name in ("hub", "tv", "fridge"):
        home.add_process(name)
    home.add_sensor("power1", kind="energy", loss_rate=0.3)
    app, billing = energy_billing("power1", report_interval_s=60.0)
    home.deploy(app)
    home.start()
    home.run_until(1.0)
    sensor = home.sensor("power1")
    emitted = 0
    for _ in range(200):
        if sensor.emit(10.0) is not None:  # 10 Wh per event
            emitted += 1
        home.run_for(0.1)
    home.run_for(5.0)
    ingested = len({e["seq"] for e in home.trace.of_kind("ingest")})
    assert billing.events_counted == ingested
    # With 3 independent 30%-lossy links, virtually everything is ingested.
    assert ingested >= emitted * 0.95
    assert billing.total_kwh == pytest.approx(ingested * 0.01)


def test_fall_alert_survives_app_process_crash():
    home = Home(seed=6)
    for name in ("hub", "tv", "fridge"):
        home.add_process(name)
    # A smartphone-based wearable streaming over WiFi: reachable by two
    # processes (a BLE-only wearable would lose pre-ingest events with its
    # single host, which even Gapless cannot guarantee — Section 4.1).
    home.add_sensor("watch", kind="wearable", technology="ip",
                    processes=["tv", "fridge"])
    home.add_actuator("siren", processes=["hub", "tv", "fridge"])
    from repro.apps.elder_care import fall_alert

    home.deploy(fall_alert("watch", siren="siren"))
    home.start()
    home.run_until(1.0)
    active = [n for n, p in home.processes.items()
              if p.execution.runtimes["fall-alert"].active]
    # Crash the active logic host, then the elder falls during detection.
    home.crash_process(active[0])
    home.run_for(0.5)
    home.sensor("watch").emit("fall")
    home.run_until(15.0)
    assert home.trace.count("alert") >= 1, "the fall must not be lost"
