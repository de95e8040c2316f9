"""Fleet: N parameterized homes interleaved in one scheduler.

A :class:`Fleet` is the multi-tenant analogue of the ``Home`` facade and
the one holder of what its tenants share: the
:class:`~repro.sim.scheduler.Scheduler` (one virtual timeline), the fleet
seed and the registry of tenant homes keyed by ``home_id``. Each tenant
keeps its own trace, RNG root, transport and radio, so its trace is
bit-identical whether it runs solo or interleaved with any number of
siblings (see docs/fleet.md):

- **construction** — :meth:`Fleet.build` stamps out N homes
  ``h000``, ``h001``, ... (see :func:`default_id_format`) from a template
  callable; :meth:`add_home` adds one home with the seed
  :meth:`home_seed` derives from ``(fleet seed, home_id)`` (override it to
  pin a seed);
- **execution** — :meth:`run_until` / :meth:`run_for` start every home and
  drain the one scheduler, interleaving all tenants' events;
- **fault injection** — tenants share the scheduler, so a tenant's
  :class:`~repro.sim.faults.FaultPlan` applies to the tenant itself:
  ``plan.apply(fleet.home("h003"))``. A plan naming another home's
  process fails with that home's own ``FaultError``, and a heal cannot
  reach a sibling;
- **aggregation** — :meth:`metrics` reads per-home and fleet-level
  counters off the tenants' O(1) trace aggregates; :meth:`digest`
  combines per-home trace digests in sorted ``home_id`` order,
  byte-identical no matter how the fleet was sharded across worker
  processes (see :func:`combine_digests`).

Typical use::

    def template(home: Home, index: int) -> None:
        home.add_process("hub")
        home.add_sensor("door1", kind="door")
        home.add_actuator("light1", processes=["hub"])

    fleet = Fleet.build(10, template, seed=42)
    fleet.run_for(3600.0)
    fleet.metrics()["fleet"]["events_emitted"]
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterator

from repro.core.home import Home, HomeConfig
from repro.sim.random import derive_seed
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace

#: One simulated day: the fleet's digest-seal granularity.
DAY_S = 86_400.0

HomeTemplate = Callable[[Home, int], None]


def _home_counters(trace: Trace) -> dict[str, int]:
    """A tenant's :meth:`Fleet.metrics` row: five O(1) trace aggregates."""
    return {
        "events_emitted": trace.count("sensor_emit"),
        "radio_delivered": trace.count("radio_delivered"),
        "net_messages": trace.count("net_send"),
        "net_bytes": trace.bytes_of_kind("net_send"),
        "logic_deliveries": trace.count("logic_delivery"),
    }


def combine_digests(digests: dict[str, str]) -> str:
    """Fold per-home trace digests into one fleet digest.

    Entries are folded in sorted ``home_id`` order, so the result is
    independent of registration order and of which worker process computed
    each per-home digest — the property the ``--jobs 1`` == ``--jobs N``
    fleet-sharding guarantee is stated in terms of.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for home_id in sorted(digests):
        hasher.update(f"{home_id}={digests[home_id]}\n".encode("utf-8"))
    return hasher.hexdigest()


def default_id_format(n_homes: int) -> str:
    """The ``home_id`` pattern for an ``n_homes`` fleet.

    Zero-padded to whatever width the largest index needs (minimum three
    digits, so fleets up to 1000 homes keep their historical ids). A fixed
    ``:03d`` pad would interleave ``h1000`` between ``h100`` and ``h101``
    lexicographically, silently breaking the sorted-order == numeric-order
    property that fleet digests and reports rely on.
    """
    width = max(3, len(str(max(n_homes - 1, 0))))
    return f"h{{index:0{width}d}}"


class Fleet:
    """A set of independent homes sharing one scheduler."""

    def __init__(self, *, seed: int = 42) -> None:
        self.seed = int(seed)
        self.scheduler = Scheduler()
        self._homes: dict[str, Home] = {}
        self._started = False
        # Next simulated-day boundary at which run_until seals the
        # tenants' streaming digests (see _fold_day).
        self._next_fold = DAY_S

    @classmethod
    def build(
        cls,
        n_homes: int,
        template: HomeTemplate,
        *,
        seed: int = 42,
    ) -> "Fleet":
        """Stamp out ``n_homes`` homes from a template callable.

        ``template(home, index)`` declares each home's processes, devices
        and apps; each tenant's config carries just its derived per-home
        seed. Home ids follow :func:`default_id_format`, whose zero-pad
        width grows with the fleet so sorted ``home_id`` order always
        matches numeric order.
        """
        if n_homes < 1:
            raise ValueError(f"a fleet needs at least one home, got {n_homes}")
        id_format = default_id_format(n_homes)
        fleet = cls(seed=seed)
        for index in range(n_homes):
            template(fleet.add_home(id_format.format(index=index)), index)
        return fleet

    # -- construction ---------------------------------------------------------------

    def home_seed(self, home_id: str) -> int:
        """The seed a tenant derives from ``(fleet seed, home_id)``.

        A pure function of the two arguments, so the seed a home receives
        does not depend on how many siblings were added before it.
        """
        return derive_seed(self.seed, f"home/{home_id}")

    def add_home(
        self,
        home_id: str,
        *,
        config: HomeConfig | None = None,
        seed: int | None = None,
        **overrides: Any,
    ) -> Home:
        """Add one tenant home; its seed defaults to ``home_seed(home_id)``.

        The derived default makes sibling insensitivity automatic: the seed
        is a pure function of ``(fleet seed, home_id)``, never of how many
        homes exist. Pass ``seed=`` or a full ``config`` to pin it instead
        (two homes given the same seed then behave identically — solo or
        fleet, see tests/integration/test_fleet.py).
        """
        if config is not None and (seed is not None or overrides):
            raise ValueError(
                "pass either a HomeConfig or seed/keyword overrides, not both"
            )
        if home_id in self._homes:
            raise ValueError(
                f"fleet already has a home with home_id {home_id!r}; "
                "give each tenant a distinct home_id"
            )
        if config is None:
            if seed is None:
                seed = self.home_seed(home_id)
            config = HomeConfig(seed=seed, **overrides)
        home = Home(config, scheduler=self.scheduler, home_id=home_id)
        self._homes[home_id] = home
        return home

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "Fleet":
        if self._started:
            return self
        self._started = True
        for home in self.homes():
            home.start()
        return self

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run_until(self, deadline: float) -> "Fleet":
        """Run the interleaved fleet up to simulated time ``deadline``.

        The run is stepped day by day: at every crossed ``DAY_S`` boundary
        each tenant's streaming trace digest is sealed (see
        :meth:`repro.sim.tracing.Trace.seal`). Boundaries are absolute
        multiples of a day, so a fleet reaches the same seal points no
        matter how the run was segmented — monolithic, sharded across
        workers, or checkpointed and resumed — and digests stay
        byte-comparable across all three.
        """
        self.start()
        while self._next_fold <= deadline:
            self.scheduler.run_until(self._next_fold)
            self._fold_day()
            self._next_fold += DAY_S
        self.scheduler.run_until(deadline)
        return self

    def run_for(self, duration: float) -> "Fleet":
        return self.run_until(self.now + duration)

    def _fold_day(self) -> None:
        """A day boundary: seal every tenant's streaming digest."""
        for home in self.homes():
            if home.trace._hasher is not None:
                home.trace.seal()

    # -- access -----------------------------------------------------------------------

    @property
    def home_ids(self) -> list[str]:
        return sorted(self._homes)

    def home(self, home_id: str) -> Home:
        try:
            return self._homes[home_id]
        except KeyError:
            raise KeyError(f"unknown home {home_id!r}") from None

    def homes(self) -> Iterator[Home]:
        for home_id in sorted(self._homes):
            yield self._homes[home_id]

    def __len__(self) -> int:
        return len(self._homes)

    # -- aggregation -------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """Per-home and fleet-level counters, read off the tenants' O(1)
        trace aggregates."""
        homes = {home.home_id: _home_counters(home.trace) for home in self.homes()}
        fleet: dict[str, Any] = _home_counters(Trace())  # every counter at 0
        for row in homes.values():
            for name, value in row.items():
                fleet[name] += value
        fleet["homes"] = len(self._homes)
        fleet["sim_time_s"] = self.now
        fleet["scheduler_events"] = self.scheduler.processed_events
        return {"homes": homes, "fleet": fleet}

    def digest(self) -> str:
        """Combined per-home trace digest (sorted by ``home_id``)."""
        return combine_digests(
            {home_id: home.trace.digest() for home_id, home in self._homes.items()}
        )

    # -- checkpoint/restore ------------------------------------------------------------

    def checkpoint(self, path: Any, horizon_days: float | None = None) -> str:
        """Atomically snapshot the whole running fleet to ``path``.

        Captures the scheduler heap (pending timers and deliveries), every
        RNG stream's state, the tenant registry and the per-home sealed
        trace digests — everything :meth:`restore` needs to continue the
        run byte-identically. Must be called at a simulated-day boundary
        (right after ``run_until(k * DAY_S)``), where the streaming hash
        state has just been sealed; anywhere else the trace refuses to
        serialize. ``horizon_days`` goes into the header (see
        :mod:`repro.sim.snapshot`).
        """
        from repro.sim.snapshot import save_fleet

        return save_fleet(self, path, horizon_days)

    @classmethod
    def restore(cls, path: Any, horizon_days: float | None = None) -> "Fleet":
        """Load a :meth:`checkpoint` snapshot and return the live fleet;
        with ``horizon_days``, refuse one checkpointed for another horizon."""
        from repro.sim.snapshot import load_fleet

        return load_fleet(path, horizon_days)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fleet seed={self.seed} homes={len(self._homes)}>"
