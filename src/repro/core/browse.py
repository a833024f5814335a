"""Random-access browsing of any backup version (the mount hot path).

A restore materialises a whole version; a *browse* opens one file at one
version and touches a few byte ranges — the dominant access pattern once
millions of users keep multi-version backups.  :class:`BrowseSession`
serves that pattern from the L-node write-back block cache
(:mod:`repro.core.blockcache`):

* ``open(path, version)`` loads the recipe once and builds a prefix-sum
  offset map over its chunk records — full vision over one file.
* ``read(offset, length)`` resolves only the **touched blocks**.  A miss
  plans the covering chunk records through
  :class:`~repro.core.restore_plan.RestorePlanner` (ranged coalesced
  GETs, plan-time global-index redirects — the same machinery as a full
  restore, applied to a record subset) and pulls a configurable window
  of adjacent blocks as readahead, so sequential browsing rides one
  coalesced span.  Container metadata is memoised across plans.
* ``write(offset, data)`` is write-back: the touched blocks are dirtied
  in cache and the write is acknowledged immediately; nothing reaches
  OSS until ``flush()``.

``flush()`` commits a dirtied file as a **new version through the
existing backup path**, crash-safe and visible-or-nothing via a
journaled ``cache_flush`` intent:

1. ``begin`` the intent (path, base version, expected new version, full
   SHA-256, dirty block indices);
2. stage every dirty block under ``browsecache/{seq}/`` — each put is
   charged serially by the endpoint, and the measured durations are
   overlapped over :data:`UPLOAD_CHANNELS` background channels
   (:func:`repro.sim.events.simulate_upload_channels`);
3. ``update`` the intent with ``staged=True`` — from here recovery can
   roll the upload forward;
4. run the normal ``SlimStore.backup`` over the materialised bytes (its
   own nested intent provides the single-atomic-catalog-put commit, and
   history-aware skip chunking re-derives boundaries only around the
   dirty extents);
5. delete the staging objects and ``close`` the intent.

A crash anywhere leaves an open intent for
:class:`~repro.core.recovery.RecoveryManager`: before step 3 the upload
is discarded (staging reaped, nothing visible); after it, the new
version is rolled forward from the staged blocks — no acknowledged write
is lost once ``flush`` returned, and no staging byte survives recovery.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.blockcache import BlockCache
from repro.core.recipe import ChunkRecord
from repro.core.restore_plan import RANGED_READ_GAP_BYTES, ReadSpan, RestorePlanner
from repro.errors import (
    BrowseError,
    IntegrityError,
    SimulatedCrashError,
    VersionNotFoundError,
)
from repro.sim.events import UploadStats, simulate_upload_channels
from repro.sim.metrics import BlockCacheStats, Counters, TimeBreakdown

if TYPE_CHECKING:
    from repro.core.system import SlimStore

#: OSS keyspace the write-back flush stages dirty blocks under.  Staged
#: objects are never referenced by visible state, so anything surviving
#: a crash is debris for recovery/fsck to reap.
STAGE_PREFIX = "browsecache/"
STAGE_KEY = "browsecache/{seq:012d}/{index:08d}"

#: Concurrent background upload channels a write-back flush stages dirty
#: blocks over (modelled on ``sim/events``).
UPLOAD_CHANNELS = 4


def stage_key_seq(key: str) -> int | None:
    """The intent sequence a staging key belongs to (None if malformed)."""
    parts = key.split("/")
    if len(parts) != 3 or parts[0] + "/" != STAGE_PREFIX:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


@dataclass
class BrowseStat:
    """``stat()`` view of one open browse file."""

    path: str
    version: int
    size: int
    block_bytes: int
    chunk_records: int
    dirty_blocks: int
    #: True when the file carries un-flushed writes or a resize.
    dirty: bool = False


@dataclass
class FlushReport:
    """Outcome of one write-back commit."""

    path: str
    #: Version the dirtied file was published as.
    version: int
    #: Base version the edits were applied over.
    base_version: int
    #: Dirty blocks staged and committed.
    blocks_written: int
    #: Bytes those blocks staged to OSS.
    staged_bytes: int
    #: Background-upload schedule over the configured channels.
    upload: UploadStats = field(default_factory=UploadStats)
    #: The backup path's report for the published version.
    backup_report: object | None = None


class BrowseFile:
    """One open ``(path, version)`` with random-access read/write."""

    def __init__(self, session: "BrowseSession", path: str, version: int) -> None:
        self.session = session
        self.path = path
        self.version = version
        self._load_recipe()

    def _load_recipe(self) -> None:
        """Fetch the recipe (an alias's is its origin's) and build the
        record offset map (one GET)."""
        store = self.session.store
        storage = store.storage
        recipe_version = store.catalog.recipe_version(self.path, self.version)
        with storage.oss.meter(self.session.breakdown):
            recipe = storage.recipes.get_recipe(self.path, recipe_version)
        self.session.counters.add("browse_recipe_reads")
        self._records: list[ChunkRecord] = recipe.all_records()
        #: File offset each record starts at (prefix sums over sizes).
        self._starts: list[int] = []
        offset = 0
        for record in self._records:
            self._starts.append(offset)
            offset += record.size
        #: Committed content length of the base version.
        self.base_size = offset
        #: Current logical size (grows when writes extend the file).
        self.size = offset

    # --- geometry ----------------------------------------------------------
    @property
    def block_bytes(self) -> int:
        """Fixed cache-block size."""
        return self.session.block_bytes

    def _block_count(self) -> int:
        block = self.block_bytes
        return (self.size + block - 1) // block

    def _block_length(self, index: int) -> int:
        """Logical length of block ``index`` under the current size."""
        return min(self.block_bytes, self.size - index * self.block_bytes)

    def _key(self, index: int) -> tuple[str, int, int]:
        return (self.path, self.version, index)

    # --- reads -------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Bytes at ``[offset, offset + length)``; short at EOF.

        Reads starting at or past EOF return ``b""`` (the POSIX read
        contract); reads running past the end return the short tail.
        Negative offsets or lengths are errors.
        """
        if offset < 0 or length < 0:
            raise BrowseError(f"invalid read range: offset={offset} length={length}")
        if offset >= self.size or length == 0:
            return b""
        length = min(length, self.size - offset)
        block = self.block_bytes
        pieces: list[bytes] = []
        index = offset // block
        end = offset + length
        while index * block < end:
            data = self._load_block(index)
            block_lo = index * block
            lo = max(offset, block_lo) - block_lo
            hi = min(end, block_lo + len(data)) - block_lo
            pieces.append(data[lo:hi])
            index += 1
        self.session.counters.add("browse_reads")
        self.session.counters.add("browse_bytes_read", length)
        return b"".join(pieces)

    def _load_block(self, index: int) -> bytes:
        """The block's bytes, fetching (with readahead) on a miss.

        Always returns the block's full logical length: a block cached
        before a later write extended the file keeps its short cached
        form, so the tail is padded with the hole's zeros on the way
        out.
        """
        cached = self.session.cache.get(self._key(index))
        if cached is not None:
            needed = self._block_length(index)
            if len(cached) < needed:
                cached = cached + bytes(needed - len(cached))
            return cached
        wanted = [index]
        for ahead in range(1, self.session.readahead_blocks + 1):
            candidate = index + ahead
            if candidate >= self._block_count():
                break
            if self.session.cache.contains(self._key(candidate)):
                break
            wanted.append(candidate)
        fetched = self._fetch_blocks(wanted)
        for position, block_index in enumerate(wanted):
            self.session.cache.put(
                self._key(block_index),
                fetched[position],
                readahead=block_index != index,
            )
        return fetched[0]

    def _fetch_blocks(self, indices: list[int]) -> list[bytes]:
        """Fetch the listed blocks' bytes from OSS (ranged, planned).

        ``indices`` is a contiguous ascending run, so the covering chunk
        records are one slice of the recipe — the planner coalesces
        their extents into a handful of ranged GETs and resolves moved
        chunks through the global index, exactly as a full restore
        would, scoped to the touched bytes.  Each record's bytes land
        once in one buffer spanning the run, which the blocks are cut
        from.
        """
        block = self.block_bytes
        lo = indices[0] * block
        hi = min(indices[-1] * block + block, self.size)
        window = b""
        if lo < self.base_size:
            first = max(0, bisect_right(self._starts, lo) - 1)
            last = bisect_left(self._starts, hi)
            # The records are contiguous: their payloads joined are the
            # file's bytes from the first record's start.
            window = b"".join(self.session.fetch_chunks(self._records[first:last]))
            skip = lo - self._starts[first]
            window = window[skip : skip + hi - lo]
        # Bytes past the committed content are holes (zeros).
        window += bytes(hi - lo - len(window))
        return [window[i * block - lo : i * block - lo + self._block_length(i)] for i in indices]

    # --- writes ------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> int:
        """Write-back ``data`` at ``offset``; returns bytes accepted.

        Touched blocks are dirtied in cache (read-modify-write over the
        base content); a write past EOF extends the file, zero-filling
        any hole.  Nothing reaches OSS until :meth:`flush`.
        """
        if offset < 0:
            raise BrowseError(f"invalid write offset: {offset}")
        if not data:
            return 0
        block = self.block_bytes
        new_size = max(self.size, offset + len(data))
        cache = self.session.cache
        index = offset // block
        position = offset
        end = offset + len(data)
        while position < end:
            block_lo = index * block
            needed = min(block, new_size - block_lo)
            current = cache.peek(self._key(index))
            if current is None and block_lo < self.size:
                current = self._load_block(index)
            buffer = bytearray(needed)
            if current is not None:
                buffer[: min(len(current), needed)] = current[:needed]
            lo = max(position, block_lo)
            hi = min(end, block_lo + needed)
            buffer[lo - block_lo : hi - block_lo] = data[lo - offset : hi - offset]
            cache.put(self._key(index), bytes(buffer), dirty=True)
            position = hi
            index += 1
        self.size = new_size
        self.session.counters.add("browse_writes")
        self.session.counters.add("browse_bytes_written", len(data))
        return len(data)

    def truncate(self, new_size: int) -> None:
        """Set the file's logical size (shrink or hole-extend).

        Shrinking drops cached blocks past the new end (their bytes are
        deliberately discarded, dirty or not) and trims the boundary
        block in place so un-flushed writes inside the new size survive.
        Growing just moves EOF — the gap reads as zeros.
        """
        if new_size < 0:
            raise BrowseError(f"invalid truncate size: {new_size}")
        if new_size >= self.size:
            self.size = new_size
            return
        cache = self.session.cache
        block = self.block_bytes
        keep = (new_size + block - 1) // block
        for key in list(cache.resident_keys()):
            if key[0] == self.path and key[1] == self.version and key[2] >= keep:
                cache.drop(key, forget_dirty=True)
        if keep > 0:
            boundary = self._key(keep - 1)
            data = cache.peek(boundary)
            limit = new_size - (keep - 1) * block
            if data is not None and len(data) > limit:
                cache.put(boundary, data[:limit], dirty=cache.is_dirty(boundary))
        self.size = new_size

    def dirty_indices(self) -> list[int]:
        """Indices of blocks carrying un-flushed writes."""
        return sorted(
            key[2]
            for key in self.session.cache.dirty_keys()
            if key[0] == self.path and key[1] == self.version
        )

    @property
    def dirty(self) -> bool:
        """True when the file carries un-flushed writes or a resize."""
        return bool(self.dirty_indices()) or self.size != self.base_size

    def stat(self) -> BrowseStat:
        """Size/version/dirtiness of the open file."""
        return BrowseStat(
            path=self.path,
            version=self.version,
            size=self.size,
            block_bytes=self.block_bytes,
            chunk_records=len(self._records),
            dirty_blocks=len(self.dirty_indices()),
            dirty=self.dirty,
        )

    # --- write-back commit -------------------------------------------------
    def flush(self) -> FlushReport | None:
        """Commit un-flushed writes as a new version (None when clean).

        See the module docstring for the crash-safe state machine.  On
        return the published version is visible, the staging keys are
        gone, and the cached blocks (clean again) are re-keyed to the
        new version so the working set stays warm.
        """
        dirty = self.dirty_indices()
        if not dirty and self.size == self.base_size:
            return None
        session = self.session
        store = session.store
        full = self._materialize()
        committed = store.catalog.versions(self.path)
        expected = (committed[-1] + 1) if committed else 0
        journal = store.storage.journal
        payload = dict(
            path=self.path,
            base_version=self.version,
            version=expected,
            size=self.size,
            sha=hashlib.sha256(full).hexdigest(),
            blocks=dirty,
            block_bytes=self.block_bytes,
        )
        seq = journal.begin("cache_flush", staged=False, **payload)
        staged_keys = self._stage_blocks(seq, dirty)
        journal.update(seq, "cache_flush", staged=True, **payload)
        try:
            backup_report = store.backup(self.path, full)
        except SimulatedCrashError:
            # Node dead: the open intent is the recovery record.
            raise
        except Exception:
            # Still alive (e.g. retries exhausted): nothing committed, so
            # retire the staging and the intent before failing.  The
            # writes stay dirty in cache for a later retry.
            for key in staged_keys:
                store.storage.oss.delete_object(store.bucket, key)
            journal.close(seq)
            raise
        for key in staged_keys:
            store.storage.oss.delete_object(store.bucket, key)
        journal.close(seq)
        return self._finish_flush(dirty, backup_report)

    def _materialize(self) -> bytes:
        """The file's full current content (base restore + dirty overlay)."""
        store = self.session.store
        full = bytearray(self.size)
        if self.base_size > 0:
            base = store.restore(self.path, self.version).data
            cut = min(len(base), self.size)
            full[:cut] = base[:cut]
        cache = self.session.cache
        for index in self.dirty_indices():
            data = cache.peek(self._key(index))
            lo = index * self.block_bytes
            full[lo : lo + len(data)] = data
        return bytes(full)

    def _stage_blocks(self, seq: int, dirty: list[int]) -> list[str]:
        """Upload every dirty block under the intent's staging prefix.

        The endpoint charges each put serially; the measured durations
        feed the background-channel schedule in :meth:`_finish_flush`.
        """
        session = self.session
        oss = session.store.storage.oss
        bucket = session.store.bucket
        keys: list[str] = []
        upload_seconds: list[float] = []
        for index in dirty:
            data = session.cache.peek(self._key(index))
            key = STAGE_KEY.format(seq=seq, index=index)
            with oss.meter() as meter:
                oss.put_object(bucket, key, data)
            upload_seconds.append(meter.write_seconds)
            keys.append(key)
            session.cache.stats.writeback_bytes += len(data)
        session._pending_upload_seconds = upload_seconds
        return keys

    def _finish_flush(self, dirty: list[int], backup_report) -> FlushReport:
        session = self.session
        upload = simulate_upload_channels(
            session._pending_upload_seconds, UPLOAD_CHANNELS
        )
        session._pending_upload_seconds = []
        session.breakdown.charge("upload", upload.elapsed_seconds)
        base_version = self.version
        new_version = backup_report.version
        cache = session.cache
        staged_bytes = 0
        for index in dirty:
            staged_bytes += len(cache.peek(self._key(index)) or b"")
            cache.mark_clean(self._key(index))
            cache.stats.dirty_writebacks += 1
        # The cached blocks are byte-identical to the new version's
        # content: keep the working set warm under the new key.
        for index in range(self._block_count()):
            cache.rekey(self._key(index), (self.path, new_version, index))
        self.version = new_version
        # The published recipe supersedes the base version's offsets, and
        # G-node maintenance after the commit may have moved containers:
        # reload the recipe and drop the stale metadata memo.
        self._load_recipe()
        session.metas.clear()
        session.files.pop((self.path, base_version), None)
        session.files[(self.path, new_version)] = self
        return FlushReport(
            path=self.path,
            version=new_version,
            base_version=base_version,
            blocks_written=len(dirty),
            staged_bytes=staged_bytes,
            upload=upload,
            backup_report=backup_report,
        )

    def discard(self) -> int:
        """Throw away un-flushed writes; returns blocks discarded."""
        dirty = self.dirty_indices()
        self.session.cache.drop_version(self.path, self.version)
        self.size = self.base_size
        return len(dirty)


class BrowseSession:
    """Random-access browse facade over one :class:`SlimStore`.

    One session owns one block cache (shared across its open files), a
    container-metadata memo shared across ranged plans, and the cache
    counters the ``repro browse stats`` line reports.
    """

    def __init__(self, store: "SlimStore") -> None:
        self.store = store
        config = store.config
        self.block_bytes = config.browse_block_bytes
        self.readahead_blocks = config.browse_readahead_blocks
        self.stats = BlockCacheStats()
        self.cache = BlockCache(
            config.browse_cache_memory_bytes,
            config.browse_cache_disk_bytes,
            stats=self.stats,
        )
        self.counters = Counters()
        self.breakdown = TimeBreakdown()
        self.planner = RestorePlanner(store.storage, store.cost_model)
        #: Container metadata memo shared across ranged plans.
        self.metas: dict[int, object] = {}
        self.files: dict[tuple[str, int | None], BrowseFile] = {}
        self._pending_upload_seconds: list[float] = []

    # --- file handles ------------------------------------------------------
    def open(self, path: str, version: int | None = None) -> BrowseFile:
        """Open ``path`` at ``version`` (latest when None)."""
        live = self.store.catalog.versions(path)
        if not live:
            raise VersionNotFoundError(path)
        resolved = live[-1] if version is None else version
        if resolved not in live:
            raise VersionNotFoundError(path, resolved)
        handle = self.files.get((path, resolved))
        if handle is None:
            handle = BrowseFile(self, path, resolved)
            self.files[(path, resolved)] = handle
        return handle

    def read(self, path: str, offset: int, length: int, version: int | None = None) -> bytes:
        """Convenience: open + ranged read."""
        return self.open(path, version).read(offset, length)

    def write(self, path: str, offset: int, data: bytes) -> int:
        """Convenience: open latest + write-back write."""
        return self.open(path).write(offset, data)

    def flush(self, path: str | None = None) -> list[FlushReport]:
        """Commit dirty files (all open files when ``path`` is None)."""
        reports = []
        for handle in list(self.files.values()):
            if path is not None and handle.path != path:
                continue
            report = handle.flush()
            if report is not None:
                reports.append(report)
        return reports

    # --- shared chunk fetch ------------------------------------------------
    def fetch_chunks(self, records: list[ChunkRecord]) -> list[memoryview]:
        """Fetch the records' payloads (ranged, coalesced, redirected).

        Plans the subset through :class:`RestorePlanner` (sharing the
        session metadata memo), issues the coalesced ranged GETs, and
        slices each record's planned extent out of the span covering it:
        the payloads, parallel to ``records``.
        """
        storage = self.store.storage
        plan = self.planner.plan(
            records,
            ranged=True,
            gap_bytes=RANGED_READ_GAP_BYTES,
            breakdown=self.breakdown,
            counters=self.counters,
            metas=self.metas,
        )
        # container id → (span starts, spans, span payloads)
        fetched: dict[int, tuple[list[int], list[ReadSpan], list[memoryview]]] = {}
        for planned in plan.reads:
            cid = planned.container_id
            spans = [(span.offset, span.length) for span in planned.spans]
            with storage.oss.meter(self.breakdown):
                payloads = [
                    memoryview(data) for _, data in storage.containers.read_spans(cid, spans)
                ]
            self.counters.add("containers_read")
            self.counters.add("container_bytes_read", planned.planned_bytes)
            self.counters.add("ranged_reads", len(spans))
            self.counters.add("ranged_bytes_saved", planned.bytes_saved)
            fetched[cid] = ([offset for offset, _ in spans], planned.spans, payloads)
        verify = self.store.config.verify_restore
        fingerprinter = getattr(storage, "fingerprinter", None)
        out: list[memoryview] = []
        for record, (offset, size) in zip(plan.resolved, plan.extents):
            starts, spans, payloads = fetched[record.container_id]
            position = bisect_right(starts, offset) - 1
            if position < 0 or offset + size > spans[position].end:
                raise BrowseError(
                    f"planned spans did not cover chunk {record.fp.hex()[:12]}"
                )
            base = offset - starts[position]
            data = payloads[position][base : base + size]
            if verify and fingerprinter is not None and fingerprinter(data) != record.fp:
                raise IntegrityError(
                    f"browse read of chunk {record.fp.hex()[:12]} failed verification"
                )
            out.append(data)
        return out

    # --- observability -----------------------------------------------------
    def stats_line(self) -> str:
        """One-line cache summary (the ``repro browse stats`` line)."""
        stats = self.stats
        return (
            f"blockcache: hits={stats.hits} (mem {stats.memory_hits} / "
            f"disk {stats.disk_hits}) misses={stats.misses} "
            f"hit_ratio={stats.hit_ratio:.1%} readahead={stats.readahead_blocks} "
            f"demotions={stats.demotions} evictions={stats.evictions} "
            f"writebacks={stats.dirty_writebacks} "
            f"writeback_bytes={stats.writeback_bytes}"
        )
