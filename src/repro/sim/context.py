"""SimContext: the shared simulation substrate for one or many homes.

Historically every :class:`~repro.core.home.Home` privately constructed its
own :class:`~repro.sim.scheduler.Scheduler`, trace and root RNG, so one
simulation was one home by construction. A :class:`SimContext` lifts that
substrate out of the home: it owns the scheduler (one virtual timeline),
the fleet-root :class:`~repro.sim.random.RandomSource`, and a registry of
tenant homes keyed by ``home_id``. N homes sharing one context interleave
in a single event loop — the enabling step for fleet-scale simulation.

Determinism contract (see docs/fleet.md):

- each tenant keeps its **own** :class:`~repro.sim.tracing.Trace` and its
  own per-home RNG root, so a home's trace is bit-identical whether it
  runs solo or interleaved with any number of siblings;
- per-home seeds derive from ``(fleet seed, home_id)`` via
  :func:`~repro.sim.random.derive_seed` — adding or removing a home never
  perturbs a sibling's draw sequence;
- :meth:`digest` combines the tenants' trace digests in sorted ``home_id``
  order, so a fleet digest is independent of construction order and of how
  the fleet was sharded across worker processes.

A sole-tenant ``Home`` constructs a private context when none is passed,
which keeps every existing call site (and the pinned golden determinism
digest) unchanged.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterator

from repro.sim.random import RandomSource, derive_seed
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.home import Home

#: The namespace under which per-home seeds hang off the fleet seed.
HOME_SEED_NAMESPACE = "home"


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


class SimContext:
    """Scheduler + fleet-root RNG + tenant registry + virtual-time facade."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = int(seed)
        self.scheduler = Scheduler()
        self.rng = RandomSource(self.seed, name="fleet")
        self._homes: dict[str, "Home"] = {}

    # -- tenant registry ---------------------------------------------------------

    def register_home(self, home: "Home") -> None:
        """Called by ``Home.__init__``; keyed on ``home_id`` ("" when solo)."""
        key = home.home_id or ""
        if key in self._homes:
            raise ValueError(
                f"context already has a tenant with home_id {key!r}; "
                "give each home sharing a context a distinct home_id"
            )
        self._homes[key] = home

    def home(self, home_id: str = "") -> "Home":
        try:
            return self._homes[home_id]
        except KeyError:
            raise KeyError(f"unknown home {home_id!r}") from None

    @property
    def home_ids(self) -> list[str]:
        return sorted(self._homes)

    def tenants(self) -> Iterator["Home"]:
        """The registered homes, in sorted ``home_id`` order."""
        for home_id in sorted(self._homes):
            yield self._homes[home_id]

    def __len__(self) -> int:
        return len(self._homes)

    # -- per-home randomness -----------------------------------------------------

    def home_seed(self, home_id: str) -> int:
        """The seed a tenant derives from ``(fleet seed, home_id)``.

        A pure function of the two arguments — never a draw from
        :attr:`rng` — so the seed a home receives does not depend on how
        many siblings were added before it.
        """
        return derive_seed(self.seed, f"{HOME_SEED_NAMESPACE}/{home_id}")

    # -- virtual-time facade -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run_until(self, deadline: float) -> "SimContext":
        self.scheduler.run_until(deadline)
        return self

    def run_for(self, duration: float) -> "SimContext":
        self.scheduler.run_until(self.scheduler.now + duration)
        return self

    # -- fleet-level aggregates -----------------------------------------------------

    def count(self, kind: str) -> int:
        """Total records of ``kind`` across every tenant's trace."""
        return sum(home.trace.count(kind) for home in self._homes.values())

    def counts_by_home(self, kind: str) -> dict[str, int]:
        return {
            home_id: self._homes[home_id].trace.count(kind)
            for home_id in sorted(self._homes)
        }

    def digest(self) -> str:
        """A stable hash over all tenants' traces (sorted by ``home_id``)."""
        return combine_digests(
            {home_id: home.trace.digest() for home_id, home in self._homes.items()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimContext seed={self.seed} homes={len(self._homes)} "
            f"t={self.scheduler.now:.6f}>"
        )
