"""Space-Saving: approximate top-k tracking over a stream.

The paper identifies per-proxy hotspots with "a state of the art stream
analysis algorithm [28] that permits to track the top-k most frequent
items of a stream in an approximate, but very efficient manner" — the
Space-Saving algorithm of Metwally, Agrawal and El Abbadi.  This is a
from-scratch implementation with the algorithm's classic guarantees:

* at most ``capacity`` counters are kept, regardless of stream size;
* every estimated count *over*-estimates: ``true <= estimate``;
* the over-estimation error of any tracked item is at most
  ``n / capacity`` where ``n`` is the stream length;
* any item with true frequency above ``n / capacity`` is guaranteed to
  be tracked.

The min-counter needed on eviction is found through a lazy min-heap:
stale heap entries are skipped on pop, giving amortized O(log capacity)
updates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

from repro.common.errors import ConfigurationError

ItemT = TypeVar("ItemT", bound=Hashable)


@dataclass
class _Counter:
    count: int
    error: int


@dataclass(frozen=True)
class TopKEntry(Generic[ItemT]):
    """One tracked item with its estimated count and error bound.

    The true count lies in ``[count - error, count]``.
    """

    item: ItemT
    count: int
    error: int

    @property
    def guaranteed_count(self) -> int:
        return self.count - self.error


class SpaceSaving(Generic[ItemT]):
    """Fixed-memory frequent-items sketch."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("SpaceSaving capacity must be >= 1")
        self._capacity = capacity
        self._counters: dict[ItemT, _Counter] = {}
        # Lazy min-heap of (count, tiebreak, item); entries may be stale.
        self._heap: list[tuple[int, int, ItemT]] = []
        self._tiebreak = itertools.count()
        self._total = 0

    # -- updates -----------------------------------------------------------

    def update(self, item: ItemT, weight: int = 1) -> None:
        """Observe ``weight`` occurrences of ``item``."""
        if weight < 1:
            raise ConfigurationError("weight must be >= 1")
        self._total += weight
        counter = self._counters.get(item)
        if counter is not None:
            counter.count += weight
        elif len(self._counters) < self._capacity:
            counter = _Counter(count=weight, error=0)
            self._counters[item] = counter
        else:
            evicted_count = self._evict_min()
            counter = _Counter(count=evicted_count + weight, error=evicted_count)
            self._counters[item] = counter
        heapq.heappush(
            self._heap, (counter.count, next(self._tiebreak), item)
        )

    def _evict_min(self) -> int:
        """Remove the minimum-count item; return its count."""
        while self._heap:
            count, _tiebreak, item = heapq.heappop(self._heap)
            counter = self._counters.get(item)
            if counter is not None and counter.count == count:
                del self._counters[item]
                return count
        raise AssertionError("heap drained while counters remain")

    # -- queries ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total(self) -> int:
        """Total stream weight observed."""
        return self._total

    @property
    def tracked_count(self) -> int:
        return len(self._counters)

    def __contains__(self, item: ItemT) -> bool:
        return item in self._counters

    def estimate(self, item: ItemT) -> int:
        """Estimated count (0 if untracked); never underestimates."""
        counter = self._counters.get(item)
        return counter.count if counter is not None else 0

    def entries(self) -> list[TopKEntry[ItemT]]:
        """All tracked items, most frequent first."""
        ordered = sorted(
            self._counters.items(), key=lambda kv: kv[1].count, reverse=True
        )
        return [
            TopKEntry(item=item, count=counter.count, error=counter.error)
            for item, counter in ordered
        ]

    def top(self, k: int) -> list[TopKEntry[ItemT]]:
        """The ``k`` items with the highest estimated counts."""
        if k < 0:
            raise ConfigurationError("k must be >= 0")
        return self.entries()[:k]

    def clear(self) -> None:
        self._counters.clear()
        self._heap.clear()
        self._total = 0
