"""Local views: one process's belief about who is currently available.

A view always contains the owning process ("p_i always exists in v_i since
process p_i never suspects itself"). Ring order — used by the Gapless
protocol — is the sorted cyclic order of member names, which every process
can compute locally without agreement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


@dataclass(frozen=True)
class LocalView:
    """An immutable snapshot of one process's membership belief.

    The sorted ring and the owner's successor are computed on first use and
    kept on the instance (outside equality, hash and repr): a view never
    changes, so whoever holds one may memoise on its identity.
    """

    owner: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        if self.owner not in self.members:
            raise ValueError(
                f"view of {self.owner!r} must contain itself (got {set(self.members)})"
            )

    @staticmethod
    def of(owner: str, members: Iterable[str]) -> "LocalView":
        return LocalView(owner=owner, members=frozenset(members) | {owner})

    def ring_successor(self, name: str | None = None) -> str | None:
        """The next member after ``name`` in sorted cyclic order.

        Returns ``None`` when the view has a single member (no ring). The
        reference member defaults to the view owner. ``name`` need not be a
        member — the successor is then the first member sorting after it,
        which lets a process route around peers it has just removed.
        """
        if name is None:
            return self._own_successor
        ring = self.ring
        successor = ring[bisect_right(ring, name) % len(ring)]
        return successor if successor != name else None

    @cached_property
    def ring(self) -> tuple[str, ...]:
        """Members in ring (sorted) order. Iterate this, not ``members``,
        wherever the order can be observed (sends, trace records)."""
        return tuple(sorted(self.members))

    @cached_property
    def _own_successor(self) -> str | None:
        return self.ring_successor(self.owner)

    def merged_with(self, names: Iterable[str]) -> frozenset[str]:
        """Union of this view's members with other process names."""
        return self.members | frozenset(names)

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.ring)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalView {self.owner}: {sorted(self.members)}>"
