"""Containers: the unit of backup storage and OSS access.

"A common solution is to treat the container as the basic storage and
access unit of backup data.  While duplicate chunks are eliminated, the
remaining non-duplicate chunks will be aggregated into fixed-size
containers and persisted on OSS.  The container store also retains the
metadata of each container, which keeps each chunk's status and offset,
and the proportion of stale chunks" (Section III-B).

A container is two OSS objects: an immutable ``.data`` blob and a small
``.meta`` object that can be updated independently — reverse deduplication
only marks chunks deleted in the metadata until the stale fraction crosses
the rewrite threshold (Section VI-A).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    ContainerError,
    ObjectNotFoundError,
    RetryExhaustedError,
    SimulatedCrashError,
    TransientOSSError,
)
from repro.fingerprint.hashing import FP_SIZE
from repro.oss.object_store import ObjectStorageService

if TYPE_CHECKING:
    from repro.core.durability import DurabilityManager
    from repro.core.journal import IntentJournal

#: Read failures the durability failover path absorbs (a simulated crash
#: is terminal and deliberately propagates).
_FAILOVER_ERRORS = (ObjectNotFoundError, TransientOSSError, RetryExhaustedError)

_META_HEADER = struct.Struct(">QI")          # container id, entry count
_META_ENTRY = struct.Struct(">20sQIB")       # fp, offset, size, flags
_FLAG_DELETED = 1
_FLAG_ALIAS = 2


@dataclass
class ChunkLocation:
    """Placement of one chunk inside a container.

    ``alias`` entries are secondary lookup keys into bytes owned by another
    entry (a superchunk's first chunk); they are excluded from size and
    utilisation accounting.
    """

    fp: bytes
    offset: int
    size: int
    deleted: bool = False
    alias: bool = False


@dataclass
class ContainerMeta:
    """Metadata of one container: every chunk's status and offset."""

    container_id: int
    entries: list[ChunkLocation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_fp: dict[bytes, ChunkLocation] = {}
        for entry in self.entries:
            self._by_fp.setdefault(entry.fp, entry)

    def add(self, entry: ChunkLocation) -> None:
        """Append an entry (first entry per fingerprint wins lookups)."""
        self.entries.append(entry)
        self._by_fp.setdefault(entry.fp, entry)

    def find(self, fp: bytes) -> ChunkLocation | None:
        """The entry for ``fp`` or None."""
        return self._by_fp.get(fp)

    # --- accounting -------------------------------------------------------
    def primary_entries(self) -> list[ChunkLocation]:
        """Entries that own bytes (aliases excluded)."""
        return [entry for entry in self.entries if not entry.alias]

    def live_entries(self) -> list[ChunkLocation]:
        """Primary entries not marked deleted."""
        return [e for e in self.entries if not e.alias and not e.deleted]

    def total_chunks(self) -> int:
        """Number of byte-owning chunks ever stored."""
        return len(self.primary_entries())

    def live_chunks(self) -> int:
        """Byte-owning chunks not marked deleted."""
        return len(self.live_entries())

    def live_bytes(self) -> int:
        """Payload bytes still referenced (deleted chunks excluded)."""
        return sum(entry.size for entry in self.live_entries())

    def stale_fraction(self) -> float:
        """Fraction of byte-owning chunks marked deleted."""
        total = self.total_chunks()
        if total == 0:
            return 0.0
        return 1.0 - self.live_chunks() / total

    def mark_deleted(self, fp: bytes) -> bool:
        """Mark the chunk ``fp`` deleted; True if it was live.

        Alias entries (a superchunk's firstChunk) are independent for
        deletion: deleting the superchunk leaves a live alias, whose bytes
        :meth:`ContainerStore.rewrite` preserves by materialising the alias
        as a chunk of its own.
        """
        entry = self._by_fp.get(fp)
        if entry is None or entry.deleted:
            return False
        entry.deleted = True
        return True

    def revive(self, fp: bytes) -> bool:
        """Un-mark a deleted chunk; True if it was deleted.

        Crash recovery uses this to resurrect a copy that was marked
        deleted in favour of a replacement that never became durable —
        the bytes are still in the payload, only the flag flips back.
        """
        entry = self._by_fp.get(fp)
        if entry is None or not entry.deleted:
            return False
        entry.deleted = False
        return True

    def live_lookup_entries(self) -> list[ChunkLocation]:
        """All non-deleted entries, aliases included (restore-visible)."""
        return [entry for entry in self.entries if not entry.deleted]

    # --- serialisation ------------------------------------------------------
    def to_bytes(self) -> bytes:
        blob = bytearray(_META_HEADER.pack(self.container_id, len(self.entries)))
        for entry in self.entries:
            if len(entry.fp) != FP_SIZE:
                raise ContainerError(f"bad fingerprint length: {len(entry.fp)}")
            flags = (_FLAG_DELETED if entry.deleted else 0) | (
                _FLAG_ALIAS if entry.alias else 0
            )
            blob += _META_ENTRY.pack(entry.fp, entry.offset, entry.size, flags)
        return bytes(blob)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ContainerMeta":
        container_id, count = _META_HEADER.unpack_from(payload, 0)
        entries: list[ChunkLocation] = []
        offset = _META_HEADER.size
        for _ in range(count):
            fp, chunk_offset, size, flags = _META_ENTRY.unpack_from(payload, offset)
            offset += _META_ENTRY.size
            entries.append(
                ChunkLocation(
                    fp=fp,
                    offset=chunk_offset,
                    size=size,
                    deleted=bool(flags & _FLAG_DELETED),
                    alias=bool(flags & _FLAG_ALIAS),
                )
            )
        return cls(container_id=container_id, entries=entries)


class ContainerBuilder:
    """Accumulates chunks for one in-flight container."""

    def __init__(self, container_id: int, capacity_bytes: int) -> None:
        self.container_id = container_id
        self.capacity_bytes = capacity_bytes
        self.meta = ContainerMeta(container_id)
        self._data = bytearray()

    def add_chunk(self, fp: bytes, data: bytes | memoryview) -> ChunkLocation:
        """Append chunk payload; returns its location entry.

        ``data`` may be any buffer object (the dedup hot loop passes
        zero-copy ``memoryview`` slices of the input stream); the single
        copy into the container's own buffer happens here and nowhere
        else.
        """
        entry = ChunkLocation(fp=fp, offset=len(self._data), size=len(data))
        self.meta.add(entry)
        self._data += data
        return entry

    def add_alias(self, fp: bytes, offset: int, size: int) -> None:
        """Register a secondary lookup key into already-appended bytes."""
        if offset + size > len(self._data):
            raise ContainerError("alias range outside container payload")
        self.meta.add(ChunkLocation(fp=fp, offset=offset, size=size, alias=True))

    @property
    def payload_bytes(self) -> int:
        """Bytes accumulated so far."""
        return len(self._data)

    def is_full(self) -> bool:
        """True once the payload reaches the container capacity."""
        return len(self._data) >= self.capacity_bytes

    def is_empty(self) -> bool:
        """True if no chunk has been added yet."""
        return not self._data

    def payload(self) -> bytes:
        """The container payload as immutable bytes."""
        return bytes(self._data)


class ContainerStore:
    """The container half of the storage layer, resident on OSS."""

    DATA_KEY = "containers/{cid:012d}.data"
    META_KEY = "containers/{cid:012d}.meta"
    #: Two-phase deletion marker: the container's objects stay readable
    #: until the tombstone's grace epochs expire (reaped by deep_clean).
    TOMB_KEY = "containers/{cid:012d}.tomb"
    #: The repository-wide deletion epoch (advanced by deep_clean).
    EPOCH_KEY = "containers/epoch"

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str = "slimstore",
        journal: "IntentJournal | None" = None,
        grace_epochs: int = 0,
    ) -> None:
        self._oss = oss
        self._bucket = bucket
        self._next_id = 0
        self._live_ids: set[int] = set()
        self.journal = journal
        #: Grace epochs a tombstoned container stays readable; 0 means
        #: deletion is immediate (the pre-tombstone behaviour).
        self.grace_epochs = grace_epochs
        self._epoch = 0
        self._tombstoned: dict[int, int] = {}
        #: Torn pairs found by :meth:`recover`: cid → the surviving half
        #: ("data" or "meta").  Quarantined — never resurrected as live.
        self.torn_pairs: dict[int, str] = {}
        #: Tombstoned containers whose reap was interrupted mid-delete.
        self.partial_reaps: set[int] = set()
        #: The durability tier, when enabled: consulted for replica/parity
        #: failover on failed reads and notified of payload mutations and
        #: deletions so copies never go stale.
        self.durability: "DurabilityManager | None" = None
        oss.create_bucket(bucket)

    @property
    def oss(self) -> ObjectStorageService:
        """The OSS endpoint this store lives on."""
        return self._oss

    def recover(self) -> int:
        """Rebuild live-id tracking from OSS; returns the container count.

        Used when attaching to an existing repository: a container is
        live only when *both* its objects exist and it carries no
        tombstone.  A ``.data`` without its ``.meta`` (or vice versa) is
        a torn pair from an interrupted write or deletion: it is
        quarantined in :attr:`torn_pairs` — reported, excluded from the
        live set, and left for recovery to collect — instead of being
        silently resurrected as a half-written container.
        """
        self._live_ids.clear()
        self.torn_pairs.clear()
        self.partial_reaps.clear()
        self._tombstoned.clear()
        data_ids: set[int] = set()
        meta_ids: set[int] = set()
        tomb_ids: set[int] = set()
        for key in self._oss.peek_keys(self._bucket, "containers/"):
            stem = key[len("containers/"):]
            cid_text, _, suffix = stem.rpartition(".")
            if suffix not in ("data", "meta", "tomb") or not cid_text.isdigit():
                continue  # e.g. the epoch object, or foreign keys
            cid = int(cid_text)
            {"data": data_ids, "meta": meta_ids, "tomb": tomb_ids}[suffix].add(cid)
        highest = max(data_ids | meta_ids | tomb_ids, default=-1)
        self._next_id = highest + 1
        if self._oss.peek_size(self._bucket, self.EPOCH_KEY) is not None:
            raw = json.loads(self._oss.get_object(self._bucket, self.EPOCH_KEY))
            self._epoch = int(raw["epoch"])
        for cid in tomb_ids:
            if cid in data_ids and cid in meta_ids:
                raw = json.loads(
                    self._oss.get_object(self._bucket, self.TOMB_KEY.format(cid=cid))
                )
                self._tombstoned[cid] = int(raw["epoch"])
            else:
                # Reap interrupted between the data/meta deletes and the
                # tombstone delete; recovery finishes the job.
                self.partial_reaps.add(cid)
        for cid in (data_ids | meta_ids) - tomb_ids:
            if cid in data_ids and cid in meta_ids:
                self._live_ids.add(cid)
            else:
                self.torn_pairs[cid] = "data" if cid in data_ids else "meta"
        return len(self._live_ids)

    # --- building -------------------------------------------------------------
    def new_builder(self, capacity_bytes: int) -> ContainerBuilder:
        """Allocate a container id and return a builder for it."""
        builder = ContainerBuilder(self._next_id, capacity_bytes)
        self._next_id += 1
        return builder

    def peek_next_id(self) -> int:
        """The next container id a builder would get (no allocation).

        Jobs journal this as their *watermark* before writing anything:
        after a crash, a live container at or above an open intent's
        watermark that no committed recipe references is an orphan.
        """
        return self._next_id

    def write(self, builder: ContainerBuilder) -> int:
        """Persist a built container (data + meta); returns bytes uploaded."""
        if builder.is_empty():
            raise ContainerError("refusing to persist an empty container")
        data = builder.payload()
        meta = builder.meta.to_bytes()
        cid = builder.container_id
        self._oss.put_object(self._bucket, self.DATA_KEY.format(cid=cid), data)
        self._oss.put_object(
            self._bucket, self.META_KEY.format(cid=cid), meta, piggyback=True
        )
        self._live_ids.add(cid)
        return len(data) + len(meta)

    # --- reading ------------------------------------------------------------------
    def read_data(self, container_id: int, channels: int = 1) -> bytes:
        """Whole-container payload read (the restore access pattern).

        With the durability tier enabled, a failed primary read falls
        over to a replica or an erasure decode (primary → replica →
        decode) instead of surfacing the error; only when no source can
        produce verified bytes does the original failure propagate.
        """
        try:
            return self._oss.get_object(
                self._bucket, self.DATA_KEY.format(cid=container_id), channels
            )
        except SimulatedCrashError:
            raise
        except _FAILOVER_ERRORS:
            if self.durability is not None:
                payload = self.durability.verified_payload(container_id)
                if payload is not None:
                    return payload
            raise

    def read_meta(self, container_id: int, piggyback: bool = False) -> ContainerMeta:
        """Container metadata read (``piggyback`` when read next to data)."""
        payload = self._oss.get_object(
            self._bucket, self.META_KEY.format(cid=container_id), piggyback=piggyback
        )
        return ContainerMeta.from_bytes(payload)

    def read_spans(
        self, container_id: int, spans: list[tuple[int, int]], channels: int = 1
    ) -> list[tuple[int, bytes]]:
        """Ranged reads of coalesced chunk extents from one container.

        ``spans`` is a list of ``(offset, length)`` byte extents (one
        ranged GET each); returns ``(offset, payload)`` pairs.  This is
        the restore planner's access pattern: instead of paying
        whole-container read amplification for a handful of live chunks,
        only the planned extents cross the wire.
        """
        try:
            payloads = self._oss.get_ranges(
                self._bucket, self.DATA_KEY.format(cid=container_id), spans, channels
            )
        except SimulatedCrashError:
            raise
        except _FAILOVER_ERRORS:
            # Ranged failover: fetch the whole verified payload through
            # the durability tier (its reads are charged) and slice the
            # requested extents locally.
            if self.durability is not None:
                payload = self.durability.verified_payload(container_id)
                if payload is not None:
                    return [
                        (offset, payload[offset : offset + length])
                        for offset, length in spans
                    ]
            raise
        return [(offset, data) for (offset, _), data in zip(spans, payloads)]

    def read_chunk(self, container_id: int, fp: bytes) -> bytes | None:
        """Ranged read of a single chunk (meta lookup + ranged GET)."""
        try:
            meta = self.read_meta(container_id)
            entry = meta.find(fp)
            if entry is None or entry.deleted:
                return None
            return self._oss.get_range(
                self._bucket,
                self.DATA_KEY.format(cid=container_id),
                entry.offset,
                entry.size,
            )
        except SimulatedCrashError:
            raise
        except _FAILOVER_ERRORS:
            if self.durability is not None:
                chunk = self.durability.fetch_chunk(container_id, fp)
                if chunk is not None:
                    return chunk
            raise

    def exists(self, container_id: int) -> bool:
        """True if the container's data object is still stored."""
        return container_id in self._live_ids

    # --- mutation (G-node only) -----------------------------------------------------
    def update_meta(self, meta: ContainerMeta) -> None:
        """Persist updated metadata (e.g. after marking chunks deleted)."""
        self._oss.put_object(
            self._bucket, self.META_KEY.format(cid=meta.container_id), meta.to_bytes()
        )

    def replace_data(
        self, container_id: int, payload: bytes, meta: ContainerMeta
    ) -> None:
        """Overwrite a container's data object in place.

        Scrub repair uses this to persist a payload whose corrupt chunks
        were patched from healthy copies; offsets are unchanged, so
        ``meta`` — the stored metadata — stays valid.  The overwrite runs
        inside a ``rewrite`` intent carrying that unchanged metadata, so a
        crash before the durability tier refreshed its copies is finished
        by the same recovery handler as :meth:`rewrite`'s.
        """
        if container_id not in self._live_ids:
            raise ObjectNotFoundError(self._bucket, self.DATA_KEY.format(cid=container_id))
        self._overwrite(container_id, payload, meta, put_meta=False)

    def rewrite(self, container_id: int, meta: ContainerMeta | None = None) -> int:
        """Drop deleted chunks from the payload; returns bytes reclaimed.

        "the container is read out and invalid chunks will be removed, and
        then rewritten to OSS" (Section VI-A).  Live alias entries whose
        owning chunk survives are re-based onto the owner's new offset;
        aliases that outlive their owner are materialised as chunks of
        their own so the bytes they name remain restorable.  ``meta`` is
        the container's stored metadata when the caller just persisted it
        (else it is read).
        """
        if meta is None:
            meta = self.read_meta(container_id)
        data = self.read_data(container_id)
        new_data = bytearray()
        new_meta = ContainerMeta(container_id)
        moved: dict[int, int] = {}  # old primary offset -> new offset
        for entry in meta.entries:
            if entry.deleted or entry.alias:
                continue
            moved[entry.offset] = len(new_data)
            new_data += data[entry.offset : entry.offset + entry.size]
            new_meta.add(
                ChunkLocation(fp=entry.fp, offset=moved[entry.offset], size=entry.size)
            )
        for entry in meta.entries:
            if entry.deleted or not entry.alias:
                continue
            owner = next(
                (
                    primary
                    for primary in meta.entries
                    if not primary.alias
                    and not primary.deleted
                    and self._covers(primary, entry)
                ),
                None,
            )
            if owner is not None:
                delta = entry.offset - owner.offset
                new_meta.add(
                    ChunkLocation(
                        fp=entry.fp,
                        offset=moved[owner.offset] + delta,
                        size=entry.size,
                        alias=True,
                    )
                )
            else:
                # Owner deleted: keep the alias bytes as a first-class chunk.
                new_offset = len(new_data)
                new_data += data[entry.offset : entry.offset + entry.size]
                new_meta.add(
                    ChunkLocation(fp=entry.fp, offset=new_offset, size=entry.size)
                )
        reclaimed = len(data) - len(new_data)
        if not new_data:
            self.delete(container_id)
            return reclaimed
        self._overwrite(container_id, bytes(new_data), new_meta, put_meta=True)
        return reclaimed

    def _overwrite(
        self, container_id: int, payload: bytes, meta: ContainerMeta, put_meta: bool
    ) -> None:
        """Replace a container's payload (and with ``put_meta`` its metadata)
        in place, inside one ``rewrite`` intent.

        An in-place rewrite is a two-object update: a crash between the
        data put and the meta put would leave the old metadata pointing
        into the shrunk payload.  Journal the outcome first so recovery
        can roll the meta forward (the journaled SHA proves the data put
        landed) or discard a rewrite that never started.
        """
        seq = None
        if self.journal is not None:
            seq = self.journal.begin(
                "rewrite",
                container_id=container_id,
                meta=meta.to_bytes().hex(),
                data_sha=hashlib.sha1(payload).hexdigest(),
            )
        self._oss.put_object(
            self._bucket, self.DATA_KEY.format(cid=container_id), payload
        )
        if put_meta:
            self.update_meta(meta)
        # Refresh replicas/parity inside the rewrite intent window: a
        # crash in between is rolled forward by recovery, which re-runs
        # this hook after completing the rewrite.
        if self.durability is not None:
            self.durability.on_payload_changed(container_id, payload)
        if seq is not None:
            self.journal.close(seq)

    @staticmethod
    def _covers(owner: ChunkLocation, alias: ChunkLocation) -> bool:
        return (
            owner.offset <= alias.offset
            and alias.offset + alias.size <= owner.offset + owner.size
        )

    def delete(self, container_id: int) -> bool:
        """Delete a container; True if its data object existed.

        With ``grace_epochs`` > 0 this is phase one of a two-phase
        deletion: the container is :meth:`entomb`-ed (one atomic
        tombstone put, objects stay readable) and physically reaped only
        after the grace epochs expire — so a restore planned against
        pre-maintenance metadata never hits ``ObjectNotFoundError``
        mid-read.  With the default grace of 0 the objects are deleted
        immediately, data first, so an interrupted deletion leaves a
        recognisable meta-only torn pair.
        """
        if self.grace_epochs > 0 and container_id in self._live_ids:
            return self.entomb(container_id)
        existed = self._oss.delete_object(self._bucket, self.DATA_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.META_KEY.format(cid=container_id))
        if container_id in self._tombstoned or container_id in self.partial_reaps:
            self._oss.delete_object(self._bucket, self.TOMB_KEY.format(cid=container_id))
        self._live_ids.discard(container_id)
        self._tombstoned.pop(container_id, None)
        self.partial_reaps.discard(container_id)
        if self.durability is not None:
            self.durability.on_deleted(container_id, immediate=True)
        return existed

    def purge(self, container_id: int) -> bool:
        """Physically delete a container, bypassing the tombstone grace.

        Recovery uses this for containers that were never visible to any
        committed version (orphans of a crashed job, torn-pair remnants):
        nothing can be reading them, so the grace window does not apply.
        True if the data object existed.
        """
        existed = self._oss.delete_object(self._bucket, self.DATA_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.META_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.TOMB_KEY.format(cid=container_id))
        self._live_ids.discard(container_id)
        self._tombstoned.pop(container_id, None)
        self.partial_reaps.discard(container_id)
        self.torn_pairs.pop(container_id, None)
        if self.durability is not None:
            self.durability.on_deleted(container_id, immediate=True)
        return existed

    def complete_rewrite(
        self, container_id: int, meta_blob: bytes, data_sha: str
    ) -> bool:
        """Roll a journaled in-place rewrite forward (recovery path).

        The journal holds the rewrite's new metadata and the SHA-1 of its
        new payload.  If the stored data object matches the SHA, the data
        put landed before the crash and only the meta put is missing —
        re-issue it (idempotent) and return True.  Otherwise the rewrite
        never reached the data put; the old container is intact and the
        intent is simply discarded (returns False).
        """
        key = self.DATA_KEY.format(cid=container_id)
        if self._oss.peek_size(self._bucket, key) is None:
            return False
        data = self._oss.get_object(self._bucket, key)
        if hashlib.sha1(data).hexdigest() != data_sha:
            return False
        self._oss.put_object(
            self._bucket, self.META_KEY.format(cid=container_id), meta_blob
        )
        return True

    # --- two-phase deletion ------------------------------------------------
    def entomb(self, container_id: int) -> bool:
        """Tombstone a container (one atomic put); True if it was live.

        The container leaves the live set — new work no longer sees it —
        but both objects stay on OSS until :meth:`reap_expired` collects
        them ``grace_epochs`` deletion epochs later.
        """
        if container_id not in self._live_ids:
            return False
        self._oss.put_object(
            self._bucket,
            self.TOMB_KEY.format(cid=container_id),
            json.dumps({"epoch": self._epoch}).encode(),
        )
        self._live_ids.discard(container_id)
        self._tombstoned[container_id] = self._epoch
        if self.durability is not None:
            self.durability.on_deleted(container_id, immediate=False)
        return True

    @property
    def current_epoch(self) -> int:
        """The repository's current deletion epoch."""
        return self._epoch

    def advance_epoch(self) -> int:
        """Start the next deletion epoch (persisted); returns it."""
        self._epoch += 1
        self._oss.put_object(
            self._bucket, self.EPOCH_KEY, json.dumps({"epoch": self._epoch}).encode()
        )
        return self._epoch

    def tombstoned_ids(self) -> list[int]:
        """Containers awaiting their grace expiry, sorted."""
        return sorted(self._tombstoned)

    def is_tombstoned(self, container_id: int) -> bool:
        """True while a container sits in its deletion grace window."""
        return container_id in self._tombstoned

    def reap_expired(self) -> tuple[int, list[int]]:
        """Physically delete tombstoned containers past their grace.

        Returns ``(bytes reclaimed, reaped container ids)``.  Deletion
        order is data → meta → tombstone, so an interrupted reap leaves
        the tombstone behind as the signal for recovery to finish it.
        """
        reclaimed = 0
        reaped: list[int] = []
        for cid, entombed_at in sorted(self._tombstoned.items()):
            if entombed_at + self.grace_epochs > self._epoch:
                continue
            size = self._oss.peek_size(self._bucket, self.DATA_KEY.format(cid=cid))
            self._oss.delete_object(self._bucket, self.DATA_KEY.format(cid=cid))
            self._oss.delete_object(self._bucket, self.META_KEY.format(cid=cid))
            self._oss.delete_object(self._bucket, self.TOMB_KEY.format(cid=cid))
            self._tombstoned.pop(cid)
            if self.durability is not None:
                self.durability.on_deleted(cid, immediate=True)
            reclaimed += size or 0
            reaped.append(cid)
        return reclaimed, reaped

    def finish_reap(self, container_id: int) -> None:
        """Complete a reap that crashed mid-delete (recovery path)."""
        self._oss.delete_object(self._bucket, self.DATA_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.META_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.TOMB_KEY.format(cid=container_id))
        self.partial_reaps.discard(container_id)
        self._tombstoned.pop(container_id, None)
        if self.durability is not None:
            self.durability.on_deleted(container_id, immediate=True)

    def discard_torn(self, container_id: int) -> None:
        """Delete the surviving half of a quarantined torn pair."""
        self._oss.delete_object(self._bucket, self.DATA_KEY.format(cid=container_id))
        self._oss.delete_object(self._bucket, self.META_KEY.format(cid=container_id))
        self.torn_pairs.pop(container_id, None)
        if self.durability is not None:
            self.durability.on_deleted(container_id, immediate=True)

    # --- accounting -------------------------------------------------------------------
    def container_ids(self) -> list[int]:
        """All live container ids, sorted."""
        return sorted(self._live_ids)

    def stored_bytes(self) -> int:
        """Total data-object bytes currently stored (meta excluded, free)."""
        total = 0
        for cid in self._live_ids:
            size = self._oss.peek_size(self._bucket, self.DATA_KEY.format(cid=cid))
            total += size or 0
        return total

    def primary_missing(self, container_id: int) -> bool:
        """True when a live container's primary data object is gone
        (restore planning peeks this to anticipate degraded reads)."""
        return (
            self._oss.peek_size(self._bucket, self.DATA_KEY.format(cid=container_id))
            is None
        )

    def container_size(self, container_id: int) -> int:
        """Data-object size of one container (accounting only, free).

        When the primary object is missing but the durability tier holds
        a record for the container, the recorded payload length answers
        instead — sizing never forces a degraded read.
        """
        size = self._oss.peek_size(self._bucket, self.DATA_KEY.format(cid=container_id))
        if size is None and self.durability is not None:
            size = self.durability.recorded_length(container_id)
        if size is None:
            raise ObjectNotFoundError(self._bucket, self.DATA_KEY.format(cid=container_id))
        return size
