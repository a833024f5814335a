"""The paper's counting Bloom filter (Section V-A), as a reference model.

SLIMSTORE's full-vision restore cache asks a counting Bloom filter whether
a chunk is referenced again later in the recipe, because the distinct
fingerprints of a 100 GB recipe would not fit in memory.  The restore
cache here keeps exact remaining counts instead (the whole resolved recipe
is in memory already), so the filter left ``repro.kvstore.bloom``.  It is
kept beside the tests as the approximation the exact counts are checked
against: ``tests/core/test_full_vision_exact.py`` restores through it and
through the exact counts and compares every read.

Slots come from the same double-hashed :func:`repro.kvstore.bloom._positions`
as the plain filter, one digest per touch.
"""

from __future__ import annotations

from array import array

from repro.kvstore.bloom import _positions, optimal_parameters


class CountingBloomFilter:
    """Bloom filter with per-slot counters supporting remove and count query.

    The paper's restore cache uses it to answer two questions about a
    fingerprint: "does this chunk appear again later in the recipe?" and
    "roughly how many references remain?".  Counts are estimates (minimum
    over the item's slots), exact enough because decrement mirrors
    increment.
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        self._slots, self._hashes = optimal_parameters(expected_items, false_positive_rate)
        self._counters = array("L", bytes(array("L").itemsize * self._slots))

    def add(self, item: bytes, times: int = 1) -> None:
        """Add ``times`` references to ``item``."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        counters = self._counters
        for position in _positions(item, self._hashes, self._slots):
            counters[position] += times

    def remove(self, item: bytes) -> int:
        """Drop one reference; removing an absent item is an error.

        Returns what :meth:`count` would answer next: the minimum read back
        from the item's slots after the decrement (an item whose slots
        collide decrements one slot twice, so it is not ``before - 1``).
        """
        counters = self._counters
        positions = _positions(item, self._hashes, self._slots)
        for index, position in enumerate(positions):
            if not counters[position]:
                # Also reached by the second visit to a slot holding 1.
                for undone in positions[:index]:
                    counters[undone] += 1
                raise KeyError(f"item not present in counting bloom filter: {item!r}")
            counters[position] -= 1
        return min(counters[p] for p in positions)

    def count(self, item: bytes) -> int:
        """Upper-bound estimate of remaining references to ``item``."""
        counters = self._counters
        return min(counters[p] for p in _positions(item, self._hashes, self._slots))

    def __contains__(self, item: bytes) -> bool:
        return self.count(item) > 0
