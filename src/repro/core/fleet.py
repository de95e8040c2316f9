"""Fleet: N parameterized homes interleaved in one scheduler.

A :class:`Fleet` owns a :class:`~repro.sim.context.SimContext` and builds
tenant :class:`~repro.core.home.Home`\\ s inside it — one shared virtual
timeline, per-home traces and RNG roots. It is the multi-tenant analogue
of the ``Home`` facade:

- **construction** — :meth:`Fleet.build` stamps out N homes
  ``h000``, ``h001``, ... (see :func:`default_id_format`) from a template
  callable; :meth:`add_home` adds one home with a per-home seed derived
  from ``(fleet seed, home_id)`` (override it to pin a seed);
- **execution** — :meth:`run_until` / :meth:`run_for` start every home and
  drain the one scheduler, interleaving all tenants' events;
- **fault injection** — tenants share the scheduler, so a tenant's
  :class:`~repro.sim.faults.FaultPlan` applies to the tenant itself:
  ``plan.apply(fleet.home("h003"))``. A plan naming another home's
  process fails with that home's own ``FaultError``, and a heal cannot
  reach a sibling;
- **aggregation** — :meth:`metrics` reports per-home and fleet-level
  counters; :meth:`digest` combines per-home trace digests in sorted
  ``home_id`` order, byte-identical no matter how the fleet was sharded
  across worker processes (see :func:`repro.sim.context.combine_digests`).

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

from array import array
from typing import Any, Callable, Iterator, Sequence

from repro.core.home import Home, HomeConfig
from repro.sim.context import SimContext, combine_digests

#: One simulated day: the fleet's metric-fold / digest-seal granularity.
DAY_S = 86_400.0

HomeTemplate = Callable[[Home, int], None]


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


class FleetMetrics:
    """Struct-of-arrays per-home counter store.

    One zero-copy ``array`` per counter, indexed by sorted ``home_id``
    position — ~40 bytes of payload per home instead of the ~0.5 KB a
    per-home dict row costs, which is what keeps :meth:`Fleet.metrics`
    bookkeeping memory-flat at city scale. The arrays are refreshed from
    the tenants' O(1) trace aggregates at every simulated-day boundary
    (the *streaming fold*: a checkpoint written at a boundary carries the
    fleet's full metric state as five flat arrays) and on demand by
    :meth:`Fleet.metrics`, which derives the legacy dict-of-dicts view.
    """

    __slots__ = ("home_ids", "index", "events_emitted", "radio_delivered",
                 "net_messages", "net_bytes", "logic_deliveries",
                 "days_folded")

    def __init__(self, home_ids: Sequence[str]) -> None:
        self.home_ids: tuple[str, ...] = tuple(home_ids)
        self.index: dict[str, int] = {
            home_id: i for i, home_id in enumerate(self.home_ids)
        }
        zeros = bytes(8 * len(self.home_ids))
        self.events_emitted = array("q", zeros)
        self.radio_delivered = array("q", zeros)
        self.net_messages = array("q", zeros)
        self.net_bytes = array("q", zeros)
        self.logic_deliveries = array("q", zeros)
        self.days_folded = 0

    def fold(self, i: int, trace: Any) -> None:
        """Refresh home ``i``'s row from its trace's O(1) aggregates."""
        self.events_emitted[i] = trace.count("sensor_emit")
        self.radio_delivered[i] = trace.count("radio_delivered")
        self.net_messages[i] = trace.count("net_send")
        self.net_bytes[i] = trace.bytes_of_kind("net_send")
        self.logic_deliveries[i] = trace.count("logic_delivery")

    def home_row(self, home_id: str) -> dict[str, int]:
        i = self.index[home_id]
        return {
            "events_emitted": self.events_emitted[i],
            "radio_delivered": self.radio_delivered[i],
            "net_messages": self.net_messages[i],
            "net_bytes": self.net_bytes[i],
            "logic_deliveries": self.logic_deliveries[i],
        }

    def totals(self) -> dict[str, int]:
        return {
            "events_emitted": sum(self.events_emitted),
            "radio_delivered": sum(self.radio_delivered),
            "net_messages": sum(self.net_messages),
            "net_bytes": sum(self.net_bytes),
            "logic_deliveries": sum(self.logic_deliveries),
        }


class Fleet:
    """A set of independent homes sharing one simulation context."""

    def __init__(self, *, seed: int = 42, context: SimContext | None = None) -> None:
        self.context = context if context is not None else SimContext(seed=seed)
        self.seed = self.context.seed
        self._homes: dict[str, Home] = {}
        self._metrics: FleetMetrics | None = None
        self._started = False
        # Next simulated-day boundary at which run_until folds metrics and
        # seals the tenants' streaming digests (see _fold_day).
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
        if config is None:
            if seed is None:
                seed = self.context.home_seed(home_id)
            config = HomeConfig(seed=seed, **overrides)
        home = Home(config, context=self.context, home_id=home_id)
        self._homes[home_id] = home
        if self._metrics is not None:
            # Late add: rebuild the store with the new home set (rows are
            # recomputed from the traces' aggregates on the next fold).
            days = self._metrics.days_folded
            self._metrics = FleetMetrics(sorted(self._homes))
            self._metrics.days_folded = days
        return home

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "Fleet":
        if self._started:
            return self
        self._started = True
        if self._metrics is None:
            self._metrics = FleetMetrics(sorted(self._homes))
        for home_id in sorted(self._homes):
            self._homes[home_id].start()
        return self

    def run_until(self, deadline: float) -> "Fleet":
        """Run the interleaved fleet up to simulated time ``deadline``.

        The run is stepped day by day: at every crossed ``DAY_S`` boundary
        the per-home counters are folded into the :class:`FleetMetrics`
        arrays and each tenant's streaming trace digest is sealed (see
        :meth:`repro.sim.tracing.Trace.seal`). Boundaries are absolute
        multiples of a day, so a fleet reaches the same fold/seal points no
        matter how the run was segmented — monolithic, sharded across
        workers, or checkpointed and resumed — and digests stay
        byte-comparable across all three.
        """
        self.start()
        while self._next_fold <= deadline:
            self.context.run_until(self._next_fold)
            self._fold_day()
            self._next_fold += DAY_S
        self.context.run_until(deadline)
        return self

    def run_for(self, duration: float) -> "Fleet":
        return self.run_until(self.context.now + duration)

    def _fold_day(self) -> None:
        """A day boundary: fold counters, seal streaming digests."""
        metrics = self._metrics
        assert metrics is not None
        homes = self._homes
        for i, home_id in enumerate(metrics.home_ids):
            trace = homes[home_id].trace
            metrics.fold(i, trace)
            if trace._hasher is not None:
                trace.seal()
        metrics.days_folded += 1

    # -- access -----------------------------------------------------------------------

    @property
    def scheduler(self):
        """The one scheduler every tenant runs on."""
        return self.context.scheduler

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

    @property
    def fleet_metrics(self) -> FleetMetrics:
        """The struct-of-arrays counter store (created on first use)."""
        if self._metrics is None:
            self._metrics = FleetMetrics(sorted(self._homes))
        return self._metrics

    def metrics(self) -> dict[str, Any]:
        """Per-home and fleet-level counters (a dict view over the store).

        Counters live in the :class:`FleetMetrics` arrays; this refreshes
        every row from the traces' O(1) aggregates (covering the partial
        day since the last fold) and materializes the legacy dict shape.
        """
        store = self.fleet_metrics
        homes_by_id = self._homes
        for i, home_id in enumerate(store.home_ids):
            store.fold(i, homes_by_id[home_id].trace)
        homes = {home_id: store.home_row(home_id) for home_id in store.home_ids}
        fleet: dict[str, Any] = store.totals()
        fleet["homes"] = len(self._homes)
        fleet["sim_time_s"] = self.context.now
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
        RNG stream's state, the tenant registries and the per-home sealed
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
