"""A faithful model of restic's deduplication architecture.

Restic (the paper's open-source comparator, Fig 10) differs from SLIMSTORE
in exactly the ways that drive that experiment:

* content-defined chunks around **1 MiB** (restic's documented default);
* chunks packed into **pack files** in a repository laid over the file
  system — here over OSS through the OSSFS adapter, as the paper does;
* **one repository-wide index**: every backup job must load it, look every
  chunk up in it, and write it back, under an exclusive repository lock.
  Concurrent jobs therefore serialise on the index, which is why restic's
  aggregate throughput flat-lines while SLIMSTORE's stateless L-nodes
  scale linearly;
* restores locate every blob through the same index and read per-blob,
  paying a request round trip per chunk.

The model implements real dedup over real bytes (pack files, index,
restore with verification); the lock behaviour is expressed through the
``serial_seconds`` each job reports, which the scaling harness feeds into
an Amdahl-style aggregate (see :mod:`repro.bench.scaling`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.baselines.base import BaselineBackupResult, chunk_stream
from repro.chunking.base import ChunkerParams, make_chunker
from repro.errors import RestoreError
from repro.fingerprint.hashing import fingerprint
from repro.oss.object_store import ObjectStorageService
from repro.oss.ossfs import OssFileSystem
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown

_INDEX_ENTRY = struct.Struct(">20sIII")  # fp, pack id, offset, length
_SNAPSHOT_ENTRY = struct.Struct(">20sI")  # fp, length


@dataclass
class ResticBackupResult(BaselineBackupResult):
    """One restic backup job's accounting."""

    snapshot_id: str
    #: Seconds spent inside the repository lock (index load/update/save).
    serial_seconds: float


@dataclass
class ResticRestoreResult:
    """One restic restore job's accounting."""

    data: bytes
    breakdown: TimeBreakdown
    counters: Counters
    serial_seconds: float

    @property
    def throughput_mb_s(self) -> float:
        """Single-job restore throughput in MB/s."""
        elapsed = self.breakdown.cpu_seconds() + self.breakdown.download
        if elapsed == 0:
            return 0.0
        return len(self.data) / elapsed / (1 << 20)


class ResticRepository:
    """A restic-style repository on OSS (via the OSSFS adapter)."""

    #: restic's recommended chunk size (the paper quotes 1 MB).  Scaled
    #: experiments pass a smaller ``chunk_avg`` to preserve the production
    #: chunk-size : file-size ratio at reduced data volumes.
    CHUNK_AVG = 1 << 20
    #: Pack file target size.
    PACK_BYTES = 4 << 20

    def __init__(
        self,
        oss: ObjectStorageService,
        cost_model: CostModel | None = None,
        bucket: str = "restic",
        chunk_avg: int | None = None,
        pack_bytes: int | None = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.fs = OssFileSystem(oss, bucket)
        self.oss = oss
        self.bucket = bucket
        self.chunk_avg = chunk_avg or self.CHUNK_AVG
        self.pack_bytes = pack_bytes or self.PACK_BYTES
        self._chunker = make_chunker(
            "gear",
            ChunkerParams(
                max(64, self.chunk_avg // 4), self.chunk_avg, self.chunk_avg * 4
            ),
        )
        self._next_pack_id = 0
        self._next_snapshot = 0
        self._index_entry_count = 0

    # --- index (the shared, locked resource) ------------------------------
    def _load_index(self, breakdown: TimeBreakdown) -> dict[bytes, tuple[int, int, int]]:
        with self.oss.meter(breakdown):
            try:
                payload = self.fs.read_file("index/index")
            except FileNotFoundError:
                return {}
        return {
            fp: (pack_id, offset, length)
            for fp, pack_id, offset, length in _INDEX_ENTRY.iter_unpack(payload)
        }

    def _save_index(
        self, index: dict[bytes, tuple[int, int, int]], breakdown: TimeBreakdown
    ) -> None:
        payload = bytearray()
        for fp, (pack_id, pack_offset, length) in index.items():
            payload += _INDEX_ENTRY.pack(fp, pack_id, pack_offset, length)
        with self.oss.meter(breakdown):
            self.fs.write_file("index/index", bytes(payload))
        self._index_entry_count = len(index)

    # --- backup ----------------------------------------------------------------
    def backup(self, path: str, data: bytes) -> ResticBackupResult:
        """One restic backup job: chunk, dedupe against the repository
        index, write packs, update the index under the repository lock."""
        breakdown = TimeBreakdown()
        counters = Counters()

        # --- locked: load the shared index -------------------------------
        index = self._load_index(breakdown)

        pack = bytearray()
        pack_id = self._alloc_pack()
        stored = 0
        new_entries: dict[bytes, tuple[int, int, int]] = {}
        snapshot: list[tuple[bytes, int]] = []
        index_cpu = 0.0
        for fp, chunk in chunk_stream(self._chunker, self.cost_model, data, breakdown):
            breakdown.charge("index_query", self.cost_model.cpu_index_query)
            index_cpu += self.cost_model.cpu_index_query
            snapshot.append((fp, len(chunk)))
            if fp in index or fp in new_entries:
                counters.add("dup_chunks")
            else:
                if len(pack) + len(chunk) > self.pack_bytes and pack:
                    self._flush_pack(pack_id, pack, breakdown, counters)
                    pack = bytearray()
                    pack_id = self._alloc_pack()
                new_entries[fp] = (pack_id, len(pack), len(chunk))
                pack += chunk
                stored += len(chunk)
                breakdown.charge("other", self.cost_model.cpu_other_per_byte * len(chunk))
                counters.add("unique_chunks")
        if pack:
            self._flush_pack(pack_id, pack, breakdown, counters)

        # --- locked: merge and save the shared index ----------------------
        index.update(new_entries)
        self._save_index(index, breakdown)

        snapshot_id = self._write_snapshot(path, snapshot, breakdown)
        # Everything that touches the shared repository — index load and
        # save, per-chunk index queries, pack and snapshot writes — happens
        # under the repository lock; only chunking and hashing of local
        # data proceeds concurrently across jobs.
        serial = breakdown.download + breakdown.upload + index_cpu
        counters.add("logical_bytes", len(data))
        return ResticBackupResult(
            snapshot_id=snapshot_id,
            logical_bytes=len(data),
            stored_chunk_bytes=stored,
            breakdown=breakdown,
            counters=counters,
            serial_seconds=serial,
        )

    def _alloc_pack(self) -> int:
        pack_id = self._next_pack_id
        self._next_pack_id += 1
        return pack_id

    def _flush_pack(
        self, pack_id: int, pack: bytearray, breakdown: TimeBreakdown, counters: Counters
    ) -> None:
        with self.oss.meter(breakdown):
            self.fs.write_file(f"data/pack_{pack_id:08d}", bytes(pack))
        counters.add("packs_written")

    def _write_snapshot(
        self, path: str, snapshot: list[tuple[bytes, int]], breakdown: TimeBreakdown
    ) -> str:
        snapshot_id = f"{self._next_snapshot:08d}"
        self._next_snapshot += 1
        payload = bytearray(path.encode() + b"\x00")
        for fp, length in snapshot:
            payload += _SNAPSHOT_ENTRY.pack(fp, length)
        with self.oss.meter(breakdown):
            self.fs.write_file(f"snapshots/{snapshot_id}", bytes(payload))
        return snapshot_id

    # --- restore -------------------------------------------------------------------
    def restore(self, snapshot_id: str) -> ResticRestoreResult:
        """One restic restore job: index-located per-blob reads."""
        breakdown = TimeBreakdown()
        counters = Counters()

        # Only the index load runs under the repository lock.
        index = self._load_index(breakdown)
        serial = breakdown.download

        with self.oss.meter(breakdown):
            payload = self.fs.read_file(f"snapshots/{snapshot_id}")
        separator = payload.index(b"\x00")
        records = payload[separator + 1 :]

        output = bytearray()
        for fp, _length in _SNAPSHOT_ENTRY.iter_unpack(records):
            location = index.get(fp)
            if location is None:
                raise RestoreError(f"blob {fp.hex()[:12]} missing from restic index")
            pack_id, pack_offset, pack_length = location
            breakdown.charge("index_query", self.cost_model.cpu_index_query)
            with self.oss.meter(breakdown):
                chunk = self.fs.read_range(
                    f"data/pack_{pack_id:08d}", pack_offset, pack_length
                )
            counters.add("blob_reads")
            if fingerprint(chunk) != fp:
                raise RestoreError(f"blob {fp.hex()[:12]} failed verification")
            breakdown.charge(
                "other", self.cost_model.cpu_restore_per_byte * len(chunk)
            )
            output += chunk
        return ResticRestoreResult(
            data=bytes(output),
            breakdown=breakdown,
            counters=counters,
            serial_seconds=serial,
        )

    # --- accounting ---------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Pack bytes currently stored (free)."""
        return sum(
            self.oss.peek_size(self.bucket, key) or 0
            for key in self.oss.peek_keys(self.bucket, "data/")
        )
