"""The global fingerprint index (Section III-B, VI-A).

"Global index maintains the information of all chunks of a user, it saves
the mapping from the fingerprint of chunk to the container where it is
stored.  Global index is stored in Rocks-OSS...  Global index will be used
for G-node to accurately identify duplicates in the global scope."

Backed by the from-scratch LSM store in :mod:`repro.kvstore`, and since the
sharding refactor split into ``shard_count`` independent LSM stores keyed
by fingerprint prefix, each with its own in-memory Bloom filter ("a global
bloom filter is used to quickly filter out unique chunks").  Sharding buys
two things the single store could not provide:

* **Batched round trips** — :meth:`GlobalIndex.get_many` /
  :meth:`GlobalIndex.put_many` group a container's worth of fingerprints
  per shard so one Rocks-OSS ranged GET serves many lookups; the per-shard
  virtual seconds are reported so callers can charge the shard drains as
  parallel (max) or serial (sum).
* **Independent contention domains** — concurrent L-node ingest jobs and
  the G-node's reverse-dedup pass queue per shard, not on one global
  store; :mod:`repro.core.cluster` models exactly that with one
  :class:`~repro.sim.events.SlotResource` per shard.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import RetryExhaustedError, TransientOSSError
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.lsm import LSMStore
from repro.oss.object_store import ObjectStorageService
from repro.sim.metrics import Counters

_VALUE = struct.Struct(">Q")


def shard_of(fp: bytes, shard_count: int) -> int:
    """Shard owning ``fp``: its two-byte prefix modulo the shard count.

    SHA-1 fingerprints are uniform, so prefix sharding balances shards to
    within sampling noise without any placement metadata.
    """
    if shard_count <= 1:
        return 0
    return int.from_bytes(fp[:2], "big") % shard_count


@dataclass
class BatchLookupResult:
    """Outcome of one batched (multi-shard) index lookup.

    ``owners`` maps every *answered* fingerprint to its container id (or
    None when unindexed); fingerprints whose shard store failed even after
    retries land in ``failed`` instead, so a degraded G-node pass can skip
    them without aborting.  ``shard_seconds`` holds the virtual OSS read
    seconds spent per shard touched; shards are independent stores, so
    their drains overlap (:meth:`parallel_seconds`).
    """

    owners: dict[bytes, int | None] = field(default_factory=dict)
    failed: list[bytes] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)

    def parallel_seconds(self) -> float:
        """Wall-clock of the batch when shard drains run concurrently."""
        return max(self.shard_seconds, default=0.0)


class GlobalIndex:
    """fingerprint → container id, sharded over Rocks-OSS LSM stores."""

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str = "slimstore-index",
        bloom_capacity: int = 1 << 20,
        shard_count: int = 1,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1: {shard_count}")
        self._oss = oss
        self._bucket = bucket
        self.shard_count = shard_count
        # A single shard keeps the seed's store name so existing
        # repositories recover unchanged.
        self._shards = [
            LSMStore(
                oss,
                bucket,
                name="global-index" if shard_count == 1 else f"global-index-{i:03d}",
            )
            for i in range(shard_count)
        ]
        per_shard_capacity = max(1024, bloom_capacity // shard_count)
        self._blooms = [BloomFilter(per_shard_capacity, 0.01) for _ in range(shard_count)]
        self.counters = Counters()

    # --- sharding ------------------------------------------------------
    def shard_of(self, fp: bytes) -> int:
        """Shard index owning ``fp`` (fingerprint-prefix hashing)."""
        return shard_of(fp, self.shard_count)

    def _group_by_shard(self, fps: Iterable[bytes]) -> dict[int, list[bytes]]:
        grouped: dict[int, list[bytes]] = {}
        for fp in dict.fromkeys(fps):
            grouped.setdefault(self.shard_of(fp), []).append(fp)
        return grouped

    # --- single-key operations ----------------------------------------
    def maybe_contains(self, fp: bytes) -> bool:
        """Bloom prefilter: False means the fingerprint is definitely new.

        True may be a false positive (1% at the filter's capacity); only
        :meth:`lookup` or :meth:`get_many` answers for sure.
        """
        hit = fp in self._blooms[self.shard_of(fp)]
        if not hit:
            self.counters.add("bloom_rejections")
        return hit

    def lookup(self, fp: bytes) -> int | None:
        """Container currently owning ``fp``, or None."""
        self.counters.add("index_lookups")
        value = self._shards[self.shard_of(fp)].get(fp)
        if value is None:
            return None
        return _VALUE.unpack(value)[0]

    def assign(self, fp: bytes, container_id: int) -> None:
        """Point ``fp`` at ``container_id`` (insert or move)."""
        self.counters.add("index_assigns")
        shard = self.shard_of(fp)
        self._blooms[shard].add(fp)
        self._shards[shard].put(fp, _VALUE.pack(container_id))

    def remove(self, fp: bytes) -> None:
        """Drop the mapping for ``fp`` (its last copy was collected)."""
        self._shards[self.shard_of(fp)].delete(fp)

    # --- batched operations -------------------------------------------
    def get_many(self, fps: Iterable[bytes]) -> BatchLookupResult:
        """Resolve a batch of fingerprints, one multi-get per shard.

        Fingerprints are grouped by shard and each shard store answers its
        whole group through :meth:`~repro.kvstore.lsm.LSMStore.get_many`
        (coalesced ranged GETs).  A shard whose store raises — OSS
        unreachable even after retries — contributes its fingerprints to
        ``failed`` rather than poisoning the batch.
        """
        result = BatchLookupResult()
        for shard, group in sorted(self._group_by_shard(fps).items()):
            with self._oss.meter() as meter:
                try:
                    values = self._shards[shard].get_many(group)
                except (TransientOSSError, RetryExhaustedError):
                    result.failed.extend(group)
                    self.counters.add("index_batch_shard_failures")
                else:
                    for fp in group:
                        value = values.get(fp)
                        result.owners[fp] = (
                            None if value is None else _VALUE.unpack(value)[0]
                        )
            result.shard_seconds.append(meter.read_seconds)
            self.counters.add("index_batch_rpcs")
        self.counters.add("index_batch_lookups", len(result.owners) + len(result.failed))
        return result

    def put_many(self, assignments: Iterable[tuple[bytes, int]]) -> list[float]:
        """Batched :meth:`assign`; returns per-shard write seconds.

        Each shard's group is one :meth:`LSMStore.put_many` — one WAL
        record, all-or-nothing — and the returned per-shard virtual
        seconds let callers charge the shard writes as overlapped.
        """
        grouped: dict[int, list[tuple[bytes, bytes]]] = {}
        count = 0
        for fp, container_id in assignments:
            shard = self.shard_of(fp)
            self._blooms[shard].add(fp)
            grouped.setdefault(shard, []).append((fp, _VALUE.pack(container_id)))
            count += 1
        shard_seconds: list[float] = []
        for shard, items in sorted(grouped.items()):
            with self._oss.meter() as meter:
                self._shards[shard].put_many(items)
            shard_seconds.append(meter.write_seconds)
        self.counters.add("index_assigns", count)
        return shard_seconds

    # --- scans & maintenance ------------------------------------------
    def iter_items(self):
        """All (fingerprint, container id) mappings (full scan)."""
        for shard in self._shards:
            for fp, value in shard.iter_items():
                yield fp, _VALUE.unpack(value)[0]

    def flush(self) -> None:
        """Force every shard's LSM memtable to an SSTable on OSS."""
        for shard in self._shards:
            shard.flush()

    def fold_wal(self) -> None:
        """Fold every shard's WAL records into its checkpoint."""
        for shard in self._shards:
            shard.fold_wal()

    def recover(self) -> None:
        """Rebuild the LSM state (and the Bloom filters) from OSS.

        Used when attaching to an existing repository; each shard's Bloom
        filter is repopulated from that shard's live keys in one bulk
        :meth:`~repro.kvstore.bloom.BloomFilter.update`, so the prefilter
        is sound when this returns.
        """
        for shard, bloom in zip(self._shards, self._blooms):
            shard.recover()
            bloom.update(shard.live_keys())

    # --- introspection --------------------------------------------------
    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard entry and SSTable counts (free accounting)."""
        return [
            {"entries": len(shard.live_keys()), "sstables": shard.sstable_count}
            for shard in self._shards
        ]

    def stored_bytes(self) -> int:
        """Bytes the index occupies on OSS (free accounting)."""
        return sum(
            self._oss.peek_size(self._bucket, key) or 0
            for key in self._oss.peek_keys(self._bucket)
        )
