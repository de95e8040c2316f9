"""Unit tests for the Home facade: builder validation, fault entry points,
and run_for/start idempotence."""

import pytest

from repro.core.delivery import GAPLESS
from repro.core.home import Home, HomeConfig
from repro.eval.workloads import noop_app, single_sensor_home
from repro.sim.faults import FaultError


def small_home(**overrides) -> Home:
    home = Home(**overrides)
    home.add_process("hub")
    home.add_process("tv")
    home.add_sensor("door1", kind="door", processes=["hub", "tv"])
    home.add_actuator("light1", processes=["hub"])
    home.deploy(noop_app("door1", GAPLESS, actuator="light1"))
    return home


# -- builder validation ---------------------------------------------------------------


def test_duplicate_process_name_rejected():
    home = Home()
    home.add_process("hub")
    with pytest.raises(ValueError, match="already in use"):
        home.add_process("hub")


def test_name_collision_across_categories_rejected():
    home = Home()
    home.add_process("hub")
    home.add_sensor("door1", kind="door")
    with pytest.raises(ValueError, match="already in use"):
        home.add_actuator("door1")
    with pytest.raises(ValueError, match="already in use"):
        home.add_sensor("hub", kind="motion")


def test_empty_name_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        Home().add_process("")


def test_unknown_sensor_kind_rejected():
    home = Home()
    with pytest.raises(KeyError, match="unknown sensor kind"):
        home.add_sensor("x1", kind="flux-capacitor")


def test_unknown_technology_rejected():
    home = Home()
    with pytest.raises(KeyError, match="unknown radio technology"):
        home.add_actuator("a1", technology="carrier-pigeon")


def test_nonpositive_compute_rejected():
    with pytest.raises(ValueError, match="compute"):
        Home().add_process("hub", compute=0.0)


def test_device_referencing_unknown_process_fails_at_start():
    home = Home()
    home.add_process("hub")
    home.add_sensor("door1", kind="door", processes=["ghost"])
    with pytest.raises(KeyError, match="unknown process 'ghost'"):
        home.start()


def test_config_and_overrides_are_mutually_exclusive():
    with pytest.raises(ValueError, match="not both"):
        Home(HomeConfig(seed=1), seed=2)


def test_start_requires_a_process():
    with pytest.raises(ValueError, match="at least one process"):
        Home().start()


def test_declaring_after_start_rejected():
    home = small_home()
    home.start()
    with pytest.raises(RuntimeError, match="already running"):
        home.add_process("late")
    with pytest.raises(RuntimeError, match="already running"):
        home.add_sensor("late1", kind="door")
    with pytest.raises(RuntimeError, match="already running"):
        home.deploy(noop_app("door1", GAPLESS, actuator="light1", name="late"))


def test_home_id_validation():
    with pytest.raises(ValueError, match="home_id"):
        Home(home_id="")
    with pytest.raises(ValueError, match="home_id"):
        Home(home_id="a/b")


# -- fault-injection entry points -----------------------------------------------------


def test_crash_recover_faulterror_paths():
    home = small_home()
    with pytest.raises(FaultError, match="unknown process"):
        home.crash_process("ghost")
    with pytest.raises(FaultError, match="process is live"):
        home.recover_process("hub")
    home.crash_process("hub")
    with pytest.raises(FaultError, match="already crashed"):
        home.crash_process("hub")
    home.recover_process("hub")
    assert home.process("hub").alive


def test_partition_unknown_process_rejected():
    home = small_home()
    with pytest.raises(FaultError, match="unknown process"):
        home.set_partition([["hub"], ["ghost"]])


def test_device_fault_unknown_names_rejected():
    home = small_home()
    with pytest.raises(FaultError, match="unknown sensor"):
        home.fail_sensor("ghost")
    with pytest.raises(FaultError, match="unknown actuator"):
        home.fail_actuator("ghost")


def test_link_loss_validation():
    home = small_home()
    home.start()
    with pytest.raises(FaultError, match=r"loss rate must be in \[0, 1\]"):
        home.set_link_loss("door1", "hub", 1.5)
    with pytest.raises(FaultError, match="no radio link"):
        home.set_link_loss("door1", "ghost", 0.1)
    home.set_link_loss("door1", "hub", 0.25)  # valid


# -- run_for / start idempotence ------------------------------------------------------


def drive(home, sensor) -> None:
    for i in range(20):
        home.scheduler.call_at(1.0 + i * 2.5, sensor.emit, i)


def test_start_is_idempotent():
    home = small_home()
    home.start()
    processes = dict(home.processes)
    home.start()
    assert home.processes == processes


def test_run_for_in_chunks_matches_one_run():
    whole, sensor_w = single_sensor_home(n_processes=3, receiving=2, seed=5)
    drive(whole, sensor_w)
    whole.run_for(60.0)

    chunked, sensor_c = single_sensor_home(n_processes=3, receiving=2, seed=5)
    drive(chunked, sensor_c)
    for _ in range(4):
        chunked.run_for(15.0)

    assert whole.scheduler.now == chunked.scheduler.now
    assert whole.trace.digest() == chunked.trace.digest()


def test_run_for_zero_is_a_no_op_between_chunks():
    home, sensor = single_sensor_home(n_processes=2, receiving=1, seed=5)
    drive(home, sensor)
    home.run_for(30.0)
    digest = home.trace.digest()
    home.run_for(0.0)
    assert home.trace.digest() == digest
