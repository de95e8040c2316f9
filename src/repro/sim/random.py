"""Named, hierarchical random streams.

Every source of randomness in an experiment (each sensor's firing process,
each link's loss coin, each poll jitter, ...) draws from its own named child
stream of a single root seed. This gives two properties the evaluation
harness relies on:

1. **Reproducibility** — one root seed determines the whole run.
2. **Insensitivity** — adding a new consumer of randomness does not perturb
   the draws seen by existing consumers (streams are independent by name,
   not by draw order).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(parent: int, name: str) -> int:
    """The child seed a stream named ``name`` derives from ``parent``.

    This is the one seed-derivation rule in the simulator: child streams
    (:meth:`RandomSource.child`) and per-home fleet seeds
    (:meth:`repro.core.fleet.Fleet.home_seed`) both use it, so a
    ``(parent seed, name)`` pair always maps to the same stream no matter
    who derives it or in what order.
    """
    digest = hashlib.sha256(f"{parent}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_derive_seed = derive_seed  # the historical private name


class RandomSource:
    """A seeded random stream that can spawn independent named children."""

    __slots__ = ("seed", "name", "_rng")

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        # _rng is created lazily on first draw (see __getattr__): many
        # sources only ever act as parents of named children or are wired
        # up for legs that never fire, and a Mersenne Twister state is
        # ~2.5 KB — at fleet scale that is most of a home's RNG footprint.
        # Laziness cannot perturb determinism: Random(seed) yields the same
        # draw sequence whether constructed at wiring time or first use.

    def __getattr__(self, attr: str):
        if attr == "_rng":
            rng = random.Random(self.seed)
            self._rng = rng
            return rng
        raise AttributeError(attr)

    def child(self, name: str) -> "RandomSource":
        """An independent stream derived from this one by ``name``."""
        return RandomSource(_derive_seed(self.seed, name), name=f"{self.name}/{name}")

    # -- thin conveniences over random.Random ---------------------------------

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(population, k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def chance(self, probability: float) -> bool:
        """True with the given probability (Bernoulli trial)."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def jittered(self, base: float, fraction: float) -> float:
        """``base`` perturbed uniformly by up to ``+/- fraction * base``.

        The expansion below is ``uniform(-fraction, fraction)`` with the
        interpreter-level call inlined — same arithmetic, same single draw,
        so it is bit-identical to the obvious form (determinism digests
        depend on that) while skipping a Python frame on the hottest
        per-message path in the simulator.
        """
        u = -fraction + (fraction - -fraction) * self._rng.random()
        return base * (1.0 + u)

    def weighted_choice(self, items: Iterable[tuple[T, float]]) -> T:
        pairs = list(items)
        values = [item for item, _ in pairs]
        weights = [weight for _, weight in pairs]
        return self._rng.choices(values, weights=weights, k=1)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomSource {self.name!r} seed={self.seed}>"
