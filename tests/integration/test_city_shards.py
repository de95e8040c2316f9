"""Sharding invariance of the fleet sweep.

A fleet's digest is a property of the *simulation*, not the execution
schedule. Parallel-shard, sequential-shard and monolithic runs must all
produce the same fleet digest — and when the host cannot run process
pools, the sweep must degrade to the sequential schedule, not crash or
silently change results.
"""

from __future__ import annotations

import pytest

import repro.eval.parallel as parallel_mod
from repro.eval.fleet import run_fleet_sweep
from repro.eval.workloads import DAY_S, fleet_deployment, fleet_home_ids
from repro.sim.tracing import DIGEST_VERSION

HOMES = 6
DAYS = 0.05
SEED = 42


@pytest.fixture()
def monolithic_digest():
    fleet, _ = fleet_deployment(
        home_ids=fleet_home_ids(HOMES), seed=SEED, days=DAYS
    )
    fleet.run_until(DAYS * DAY_S)
    return fleet.digest()


def test_parallel_sequential_and_monolithic_digests_agree(monolithic_digest):
    sequential = run_fleet_sweep(
        HOMES, DAYS, seed=SEED, jobs=1, shards=3, cache=None
    )
    parallel = run_fleet_sweep(
        HOMES, DAYS, seed=SEED, jobs=2, shards=3, cache=None
    )
    assert sequential["summary"]["fleet_digest"] == monolithic_digest
    assert parallel["summary"]["fleet_digest"] == monolithic_digest
    # Beyond the fleet digest: the merged reports are byte-identical.
    assert parallel["digest"] == sequential["digest"]
    assert parallel["digest_version"] == DIGEST_VERSION


def test_run_sweep_pool_construction_failure_degrades_sequentially(
    monolithic_digest, monkeypatch, capsys
):
    def broken_executor(jobs):
        raise OSError("no semaphores on this host")

    monkeypatch.setattr(parallel_mod, "_make_executor", broken_executor)
    report = run_fleet_sweep(
        HOMES, DAYS, seed=SEED, jobs=4, shards=3, cache=None
    )
    assert report["summary"]["fleet_digest"] == monolithic_digest
    assert report["summary"]["errors"] == 0
    assert "process pools unavailable" in capsys.readouterr().err
