"""In-memory write buffer of the LSM store.

A memtable absorbs writes until it crosses its size budget, then flushes to
an immutable SSTable.  Deletes are recorded as tombstones so they shadow
older SSTable entries until compaction drops them.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator

#: Sentinel marking a deleted key until compaction reclaims it.
TOMBSTONE = b"\x00__repro_tombstone__\x00"


class MemTable:
    """A size-bounded, sorted-on-flush write buffer."""

    def __init__(self, capacity_bytes: int = 1 << 20) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: dict[bytes, bytes] = {}
        self._bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        previous = self._entries.get(key)
        if previous is not None:
            self._bytes -= len(key) + len(previous)
        self._entries[key] = value
        self._bytes += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        self.put(key, TOMBSTONE)

    def get(self, key: bytes) -> bytes | None:
        """Value for ``key``; the tombstone sentinel if deleted here."""
        return self._entries.get(key)

    def is_full(self) -> bool:
        """True once buffered bytes reach the capacity budget."""
        return self._bytes >= self.capacity_bytes

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def byte_size(self) -> int:
        """Approximate buffered payload size in bytes."""
        return self._bytes

    def items(self) -> ItemsView[bytes, bytes]:
        """All entries, unordered (tombstones included)."""
        return self._entries.items()

    def sorted_items(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order (tombstones included), for flushing."""
        return iter(sorted(self._entries.items()))

    def load(self, entries: dict[bytes, bytes]) -> None:
        """Replace the contents with ``entries`` (a replayed WAL segment),
        sizing them once instead of per :meth:`put`."""
        self._entries = entries
        self._bytes = sum(map(len, entries)) + sum(map(len, entries.values()))

    def clear(self) -> None:
        """Drop every entry (called after a successful flush)."""
        self._entries.clear()
        self._bytes = 0
