"""The LSM store tying memtable, WAL, SSTables and compaction together.

Writes land in the WAL — one record object per batch — and then the
memtable; full memtables flush to new SSTables on OSS, and the flush
empties the WAL.  Reads consult the memtable, then SSTables newest-first
with Bloom prefilters.  Size-tiered compaction merges all tables when their count
exceeds a threshold, discarding shadowed values and tombstones.  The store
exposes ``recover()`` to rebuild state from OSS after a simulated crash.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import OP_PUT, WriteAheadLog, latest_entries
from repro.oss.object_store import ObjectStorageService


class LSMStore:
    """A persistent key-value store with the Rocks-OSS access pattern.

    Parameters
    ----------
    oss, bucket:
        Object store and bucket holding SSTables and WAL records.
    name:
        Namespace prefix, so several stores can share one bucket.
    memtable_bytes:
        Flush threshold for the in-memory write buffer.
    compaction_threshold:
        Number of live SSTables that triggers a full merge.
    """

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str,
        name: str = "default",
        memtable_bytes: int = 1 << 20,
        compaction_threshold: int = 8,
    ) -> None:
        if compaction_threshold < 2:
            raise ValueError(f"compaction_threshold must be >= 2: {compaction_threshold}")
        self._oss = oss
        self._bucket = bucket
        self._name = name
        self._prefix = f"sst/{name}/"
        self._memtable = MemTable(memtable_bytes)
        self._wal = WriteAheadLog(oss, bucket, name)
        self._sstables: list[SSTable] = []  # oldest first
        self._next_table_id = 0
        self.compaction_threshold = compaction_threshold
        oss.create_bucket(bucket)

    # --- basic operations ---------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``; may trigger a flush."""
        self.put_many([(key, value)])

    def delete(self, key: bytes) -> None:
        """Delete ``key`` (tombstone shadows older SSTable entries)."""
        self._wal.log_delete(key)
        self._memtable.delete(key)
        if self._memtable.is_full():
            self.flush()

    def get(self, key: bytes) -> bytes | None:
        """Current value for ``key`` or None if absent/deleted."""
        value = self._memtable.get(key)
        if value is not None:
            return None if value == TOMBSTONE else value
        for table in reversed(self._sstables):
            value = table.get(key)
            if value is not None:
                return None if value == TOMBSTONE else value
        return None

    def get_many(self, keys: list[bytes]) -> dict[bytes, bytes | None]:
        """Batched point lookups; every requested key appears in the result.

        The memtable answers first; the remainder goes to the SSTables
        newest-first via :meth:`SSTable.get_many`, which coalesces index
        blocks into ranged GETs — far fewer OSS round trips than calling
        :meth:`get` per key.
        """
        results: dict[bytes, bytes | None] = {}
        unresolved: list[bytes] = []
        for key in dict.fromkeys(keys):
            value = self._memtable.get(key)
            if value is not None:
                results[key] = None if value == TOMBSTONE else value
            else:
                unresolved.append(key)
        for table in reversed(self._sstables):
            if not unresolved:
                break
            found = table.get_many(unresolved)
            if not found:
                continue
            for key, value in found.items():
                results[key] = None if value == TOMBSTONE else value
            unresolved = [key for key in unresolved if key not in found]
        for key in unresolved:
            results[key] = None
        return results

    def put_many(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        """Insert or overwrite a batch of keys atomically: the whole batch is
        one WAL record (one PUT), then it lands in the memtable (may flush)."""
        items = list(items)
        if any(value == TOMBSTONE for _, value in items):
            raise ValueError("value collides with the tombstone sentinel")
        if not items:
            return
        self._wal.log([(OP_PUT, key, value) for key, value in items])
        for key, value in items:
            self._memtable.put(key, value)
        if self._memtable.is_full():
            self.flush()

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # --- maintenance ---------------------------------------------------------
    def flush(self) -> SSTable | None:
        """Persist the memtable as a new SSTable (None if empty)."""
        if len(self._memtable) == 0:
            return None
        object_key = f"{self._prefix}{self._next_table_id:012d}.sst"
        table = SSTable.write(
            self._oss, self._bucket, object_key, self._memtable.sorted_items()
        )
        self._next_table_id += 1
        self._sstables.append(table)
        self._memtable.clear()
        self._wal.truncate()
        if len(self._sstables) >= self.compaction_threshold:
            self.compact()
        return table

    def compact(self) -> None:
        """Merge every SSTable into one, dropping shadowed and deleted keys."""
        if len(self._sstables) <= 1:
            return
        merged: dict[bytes, bytes] = {}
        for table in self._sstables:  # oldest first; newer overwrite older
            merged.update(table.iter_items())
        survivors = sorted(
            (key, value) for key, value in merged.items() if value != TOMBSTONE
        )
        old_tables = self._sstables
        self._sstables = []
        if survivors:
            object_key = f"{self._prefix}{self._next_table_id:012d}.sst"
            self._next_table_id += 1
            self._sstables.append(
                SSTable.write(self._oss, self._bucket, object_key, survivors)
            )
        for table in old_tables:
            self._oss.delete_object(self._bucket, table.object_key)

    def fold_wal(self) -> None:
        """Fold the WAL's records into its checkpoint (attach housekeeping)."""
        self._wal.fold_if_logged()

    def recover(self) -> None:
        """Rebuild state from OSS: reopen SSTables, replay the WAL."""
        self._sstables = []
        for object_key in self._oss.list_objects(self._bucket, self._prefix):
            self._sstables.append(SSTable.open(self._oss, self._bucket, object_key))
        if self._sstables:
            last = self._sstables[-1].object_key
            stem = last[len(self._prefix) :].split(".")[0]
            self._next_table_id = int(stem) + 1
        self._memtable.load(latest_entries(self._wal.read()))

    # --- introspection ---------------------------------------------------------
    @property
    def sstable_count(self) -> int:
        """Number of live SSTables."""
        return len(self._sstables)

    def live_keys(self) -> dict[bytes, bytes]:
        """Newest value of every live key, unordered (expensive: reads every
        SSTable whole); iterating it lists the keys."""
        merged: dict[bytes, bytes] = {}
        for table in self._sstables:
            merged.update(table.iter_items())
        merged.update(self._memtable.items())
        return {key: value for key, value in merged.items() if value != TOMBSTONE}

    def iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        """All live key/value pairs in key order (expensive: full scan)."""
        return iter(sorted(self.live_keys().items()))
