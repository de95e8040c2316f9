"""Compact integer interval sets.

Used to track which per-sensor sequence numbers a process has seen. Sensor
streams are dense integer sequences with rare holes (link loss), so a list
of disjoint inclusive ``[lo, hi]`` ranges stays tiny even after days of
simulated operation — and it is exactly the summary the Gapless successor
synchronization exchanges ("computes the set of events that need to be sent
to the new successor", Section 4.1).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator


class IntervalSet:
    """A set of ints stored as sorted, disjoint, inclusive ranges."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Iterable[tuple[int, int]] = ()) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        for lo, hi in ranges:
            self.add_range(lo, hi)

    # -- mutation ---------------------------------------------------------------

    def add(self, value: int) -> bool:
        """Insert ``value``; True iff it was not in the set.

        The next value of a dense stream (last end + 1) extends the last
        range in place, at constant cost; any other value goes through
        :meth:`add_range`.
        """
        ends = self._ends
        if ends and ends[-1] + 1 == value:
            ends[-1] = value
            return True
        if value in self:
            return False
        self.add_range(value, value)
        return True

    def add_range(self, lo: int, hi: int) -> None:
        """Insert all integers in [lo, hi], merging with adjacent ranges."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        # Find all existing ranges overlapping or adjacent to [lo-1, hi+1].
        left = bisect.bisect_left(self._ends, lo - 1)
        right = bisect.bisect_right(self._starts, hi + 1)
        if left < right:
            lo = min(lo, self._starts[left])
            hi = max(hi, self._ends[right - 1])
        self._starts[left:right] = [lo]
        self._ends[left:right] = [hi]

    def merge(self, other: "IntervalSet") -> None:
        for lo, hi in other.ranges():
            self.add_range(lo, hi)

    # -- queries ---------------------------------------------------------------------

    def __contains__(self, value: int) -> bool:
        index = bisect.bisect_right(self._starts, value) - 1
        return index >= 0 and self._ends[index] >= value

    def ranges(self) -> list[tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    @property
    def max_value(self) -> int | None:
        return self._ends[-1] if self._ends else None

    @property
    def min_value(self) -> int | None:
        return self._starts[0] if self._starts else None

    def missing_between(self, lo: int, hi: int) -> list[int]:
        """Integers in [lo, hi] not in the set (holes)."""
        if lo > hi:
            return []
        missing: list[int] = []
        cursor = lo
        for start, end in zip(self._starts, self._ends):
            if end < cursor:
                continue
            if start > hi:
                break
            missing.extend(range(cursor, min(start, hi + 1)))
            cursor = max(cursor, end + 1)
            if cursor > hi:
                break
        missing.extend(range(cursor, hi + 1))
        return missing

    def difference_values(self, other: "IntervalSet") -> Iterator[int]:
        """Values present here but absent from ``other``."""
        for lo, hi in self.ranges():
            for value in range(lo, hi + 1):
                if value not in other:
                    yield value

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in zip(self._starts, self._ends))

    def __iter__(self) -> Iterator[int]:
        for lo, hi in zip(self._starts, self._ends):
            yield from range(lo, hi + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in self.ranges()
        )
        return f"IntervalSet({{{parts}}})"
