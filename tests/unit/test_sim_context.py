"""Unit tests for the fleet as the shared simulation context: seed
derivation, the tenant registry, the one timeline, per-home counters and
digest combination."""

import pytest

from repro.core.fleet import Fleet, combine_digests
from repro.core.home import Home
from repro.sim.random import RandomSource, derive_seed


def _hub_home(fleet: Fleet, home_id: str, seed: int) -> Home:
    home = fleet.add_home(home_id, seed=seed)
    home.add_process("hub")
    home.add_process("tv")
    home.add_sensor("door1", kind="door", processes=["hub"])
    return home


# -- seed derivation ------------------------------------------------------------------


def test_derive_seed_is_pure_and_stable():
    assert derive_seed(42, "home/h000") == derive_seed(42, "home/h000")
    assert derive_seed(42, "home/h000") != derive_seed(42, "home/h001")
    assert derive_seed(42, "home/h000") != derive_seed(43, "home/h000")


def test_derive_seed_matches_rng_child_streams():
    parent = RandomSource(7, name="root")
    assert parent.child("occupancy").seed == derive_seed(7, "occupancy")


def test_home_seed_is_independent_of_registration():
    expected = Fleet(seed=9).home_seed("h001")

    populated = Fleet(seed=9)
    for home_id in ("h000", "h002", "h003"):
        populated.add_home(home_id)
    assert populated.home_seed("h001") == expected == derive_seed(9, "home/h001")


def test_home_seed_never_draws_from_the_fleet_rng():
    """Asking for seeds draws from no stream: a home built after many
    ``home_seed`` calls draws what the same home draws in a fresh fleet."""
    busy = Fleet(seed=9)
    for index in range(50):
        busy.home_seed(f"h{index:03d}")
    quiet = Fleet(seed=9)
    draws = [fleet.add_home("h007").rng.child("x").random() for fleet in (busy, quiet)]
    assert draws[0] == draws[1]


# -- tenant registry ------------------------------------------------------------------


def test_register_and_lookup_by_home_id():
    fleet = Fleet(seed=1)
    b = fleet.add_home("b", seed=2)
    a = fleet.add_home("a", seed=1)
    assert fleet.home("a") is a
    assert fleet.home("b") is b
    assert fleet.home_ids == ["a", "b"]
    assert list(fleet.homes()) == [a, b]
    assert len(fleet) == 2


def test_duplicate_home_id_rejected():
    fleet = Fleet(seed=1)
    first = fleet.add_home("a", seed=1)
    with pytest.raises(ValueError, match="distinct home_id"):
        fleet.add_home("a", seed=2)
    assert fleet.home("a") is first and len(fleet) == 1


def test_unknown_home_lookup_raises():
    with pytest.raises(KeyError, match="unknown home"):
        Fleet().home("ghost")


# -- the one timeline -----------------------------------------------------------------


def test_run_until_and_run_for_advance_shared_time():
    fleet = Fleet(seed=1)
    a = fleet.add_home("a", seed=1).add_process("hub")
    b = fleet.add_home("b", seed=2).add_process("hub")
    fleet.run_until(10.0)
    assert fleet.now == 10.0
    assert a.scheduler is b.scheduler is fleet.scheduler
    fleet.run_for(5.0)
    assert fleet.now == 15.0


def test_a_solo_home_runs_on_its_own_scheduler():
    first, second = Home(seed=5), Home(seed=5)
    assert first.scheduler is not second.scheduler
    assert first.home_id is None


# -- aggregates and digests -----------------------------------------------------------


def test_counts_by_home_and_total():
    fleet = Fleet(seed=1)
    for home_id, seed in (("a", 1), ("b", 2)):
        _hub_home(fleet, home_id, seed)
    fleet.start()
    fleet.home("a").sensor("door1").emit(True)
    fleet.run_for(30.0)
    metrics = fleet.metrics()
    assert {home_id: row["events_emitted"] for home_id, row in metrics["homes"].items()} == {
        "a": 1, "b": 0,
    }
    assert metrics["fleet"]["events_emitted"] == 1
    for home_id, row in metrics["homes"].items():
        trace = fleet.home(home_id).trace
        assert row["net_messages"] == trace.count("net_send") > 0
        assert row["net_bytes"] == trace.bytes_of_kind("net_send")
    assert metrics["fleet"]["sim_time_s"] == 30.0 and metrics["fleet"]["homes"] == 2


def test_metrics_count_a_home_added_after_start():
    fleet = Fleet(seed=1)
    _hub_home(fleet, "a", 1)
    fleet.run_for(10.0)
    late = _hub_home(fleet, "b", 2)
    late.start()
    late.sensor("door1").emit(True)
    fleet.run_for(30.0)
    metrics = fleet.metrics()
    assert sorted(metrics["homes"]) == ["a", "b"] and metrics["fleet"]["homes"] == 2
    assert metrics["homes"]["b"]["events_emitted"] == 1
    assert metrics["homes"]["b"]["net_messages"] == late.trace.count("net_send") > 0
    assert metrics["fleet"]["net_messages"] == sum(
        home.trace.count("net_send") for home in fleet.homes()
    )


def test_combine_digests_is_order_insensitive():
    forward = {"a": "d1", "b": "d2"}
    backward = {"b": "d2", "a": "d1"}
    assert combine_digests(forward) == combine_digests(backward)
    assert combine_digests(forward) != combine_digests({"a": "d2", "b": "d1"})


def test_context_digest_combines_tenant_traces():
    fleet = Fleet(seed=1)
    for home_id, seed in (("a", 1), ("b", 2)):
        fleet.add_home(home_id, seed=seed).add_process("hub")
    fleet.run_for(60.0)
    expected = combine_digests({
        home_id: fleet.home(home_id).trace.digest() for home_id in fleet.home_ids
    })
    assert fleet.digest() == expected
