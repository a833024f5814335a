"""Online deduplication on the L-node (Section IV).

The three-step workflow:

1. *Detect* a historical version (by path) or a similar file (by sampled
   header fingerprints against the similar-file index), and open the
   detected file's recipe.
2. *Chunk and deduplicate*: cut the stream with CDC, look sampled
   fingerprints up in the recipe index (on the first cache miss: derived
   from a small base recipe read whole, fetched for a large one),
   prefetch the matching segment recipes into the dedup cache, and filter
   duplicates through the cache's logical locality.  Two history-aware
   accelerations ride on this loop: **skip chunking** (jump the cut point
   forward by the previous version's next chunk size and verify the cut
   condition, Section IV-B — seeded at the path's previous version's first
   record, so chunk 0 is predicted too) and **SuperChunking** (match whole
   superchunks via their firstChunk, Algorithm 1).
3. *Segment and persist*: pack unique chunks into containers, group chunk
   records into segment recipes, merge qualifying duplicate runs into
   superchunks (Section IV-C), then persist containers and recipe (with
   its recipe index when it is large); the caller's commit record carries
   the similar-file registration.  A version that one unbroken skip run
   proved identical to its base persists none of these: the caller
   commits it as an alias of the base's recipe.

All CPU and network work is charged to a :class:`TimeBreakdown` in the
paper's categories, which is where the Fig 2 / Fig 5(d) breakdowns and all
dedup throughput figures come from.  CPU work is tallied as integer counts
and priced once, when the job's loop ends; OSS seconds are charged as
measured.  The cost model is linear, so this matches charging every event
(exact counts, seconds to 1e-12 relative).  Skip chunking replays whole
runs of verified predictions in one loop.  See ``docs/INGEST.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from repro.chunking.base import BoundarySet, make_chunker
from repro.chunking.cursor import BoundaryCursor
from repro.core.config import SlimStoreConfig
from repro.core.container import ContainerBuilder, ContainerMeta
from repro.core.recipe import ChunkRecord, Recipe, RecipeHandle, RecipeIndex
from repro.core.storage import StorageLayer
from repro.errors import RetryExhaustedError, TransientOSSError, VersionNotFoundError
from repro.fingerprint.hashing import make_fingerprinter
from repro.fingerprint.sampling import is_sampled
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown

#: Exceptions that flip a backup job into degraded mode instead of
#: aborting it: the dedup base on OSS is (temporarily) unreachable.
DEDUP_LOOKUP_FAILURES = (TransientOSSError, RetryExhaustedError)

#: Maximum segment recipes held in the L-node dedup cache at once.
DEDUP_CACHE_SEGMENTS = 256

#: mod-R ratio for the similar-file index (coarser than segment samples).
SIMILARITY_SAMPLE_RATIO = 32

#: Cap on representative fingerprints registered per file.
MAX_FILE_REPRESENTATIVES = 256


class DedupCache:
    """Prefetched segment recipes of the detected historical/similar file.

    Provides the two lookups the engine needs: fingerprint → record (with
    logical locality: a whole segment arrives per prefetch) and record →
    successor record (what skip chunking uses to predict the next cut).
    Superchunk records are additionally indexed under their firstChunk
    fingerprint so Algorithm 1 can trigger.
    """

    def __init__(self, max_segments: int = DEDUP_CACHE_SEGMENTS) -> None:
        self._segments: OrderedDict[int, list[ChunkRecord]] = OrderedDict()
        self._by_fp: dict[bytes, tuple[int, int]] = {}
        self._max_segments = max_segments

    def has_segment(self, ordinal: int) -> bool:
        """True if the segment recipe is already cached."""
        return ordinal in self._segments

    def insert_segment(self, ordinal: int, records: list[ChunkRecord]) -> None:
        """Cache one prefetched segment recipe (LRU-evicting the oldest)."""
        if ordinal in self._segments:
            return
        while len(self._segments) >= self._max_segments:
            old_ordinal, old_records = self._segments.popitem(last=False)
            for position, record in enumerate(old_records):
                self._drop_keys(record, old_ordinal, position)
        self._segments[ordinal] = records
        for position, record in enumerate(records):
            self._by_fp.setdefault(record.fp, (ordinal, position))
            if record.is_superchunk:
                self._by_fp.setdefault(record.first_fp, (ordinal, position))

    def _drop_keys(self, record: ChunkRecord, ordinal: int, position: int) -> None:
        for key in (record.fp, record.first_fp if record.is_superchunk else None):
            if key is not None and self._by_fp.get(key) == (ordinal, position):
                del self._by_fp[key]

    def lookup(self, fp: bytes) -> tuple[ChunkRecord, tuple[int, int]] | None:
        """Record whose fp (or superchunk firstChunk fp) equals ``fp``."""
        location = self._by_fp.get(fp)
        if location is None:
            return None
        ordinal, position = location
        return self._segments[ordinal][position], location

    def successor(self, location: tuple[int, int]) -> tuple[ChunkRecord, tuple[int, int]] | None:
        """The record after ``location`` within its segment, if cached."""
        ordinal, position = location
        records = self._segments.get(ordinal)
        if records is None:
            return None
        if position + 1 < len(records):
            return records[position + 1], (ordinal, position + 1)
        following = self._segments.get(ordinal + 1)
        if following:
            return following[0], (ordinal + 1, 0)
        return None


@dataclass
class BackupResult:
    """Everything one backup job produced and observed."""

    path: str
    version: int
    recipe: Recipe
    breakdown: TimeBreakdown
    counters: Counters
    logical_bytes: int
    stored_chunk_bytes: int
    uploaded_bytes: int
    #: True when the dedup base became unreachable mid-job and chunks were
    #: stored as unique without duplicate verification (degraded mode).
    degraded: bool = False
    #: Distinct fingerprints this job stored as unique — the population
    #: the G-node pushes through the sharded global index afterwards,
    #: which is what the cluster ingest model's per-shard contention and
    #: the post-maintenance index invariants are computed from.
    unique_fps: list[bytes] = field(default_factory=list)
    #: Set when the job proved this version byte-identical to the path's
    #: latest version: the version whose recipe it shares (its *origin*).
    #: Nothing was written — no container, recipe or recipe index — and
    #: ``recipe`` is the job's unpersisted view.
    alias_of: int | None = None
    #: Container id → meta of each container the job wrote (in write order).
    new_metas: dict[int, ContainerMeta] = field(default_factory=dict)
    #: Representative fingerprints the commit registers (none for an alias).
    representatives: list[bytes] = field(default_factory=list)

    @property
    def new_container_ids(self) -> list[int]:
        """The ids of the containers the job wrote, in write order."""
        return list(self.new_metas)

    @property
    def dedup_ratio(self) -> float:
        """Fraction of logical bytes eliminated (the paper's metric)."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.stored_chunk_bytes / self.logical_bytes

    @property
    def elapsed_seconds(self) -> float:
        """Virtual job duration with CPU/network pipelining."""
        return self.breakdown.elapsed_pipelined()

    @property
    def throughput_mb_s(self) -> float:
        """Deduplication throughput in MB/s of logical data."""
        elapsed = self.elapsed_seconds
        if elapsed == 0:
            return 0.0
        return self.logical_bytes / elapsed / (1 << 20)


class BackupEngine:
    """One L-node backup job: deduplicate a file stream and persist it."""

    def __init__(
        self,
        config: SlimStoreConfig,
        storage: StorageLayer,
        cost_model: CostModel | None = None,
        executor=None,
    ) -> None:
        self.config = config
        self.storage = storage
        self.cost_model = cost_model or CostModel()
        self._chunker = make_chunker(config.chunker, config.chunker_params())
        self._merge_policy = config.merge_policy()
        self._fingerprint = make_fingerprinter(config.fingerprint_algo)
        #: Optional :class:`~repro.exec.engine.ParallelExecutor` running
        #: the boundary scan and chunk fingerprints on real workers.
        self._executor = executor

    # ------------------------------------------------------------------
    def backup(
        self,
        path: str,
        data: bytes,
        rewrite_containers: set[int] | None = None,
        version: int | None = None,
        on_first_write: Callable[[], None] | None = None,
    ) -> BackupResult:
        """Deduplicate ``data`` as ``version`` of ``path``.

        The dedup base by name is the similar index's latest version of
        ``path``; ``version`` defaults to the one after it (a caller that
        keeps a catalog passes its own number, since an alias commit does
        not advance the similar index).  A job that proves ``data``
        byte-identical to that base writes nothing and returns a result
        whose ``alias_of`` names it (see :meth:`_JobState.identical`).

        ``rewrite_containers`` is the hook rewriting baselines (HAR) use:
        duplicates that resolve into one of these containers are stored
        again instead of being deduplicated.  ``on_first_write`` runs once,
        just before the job's first OSS write (a container flush or the
        recipe PUT) — where a caller opens its crash-recovery intent.
        """
        breakdown = TimeBreakdown()
        counters = Counters()
        fp_memo: dict[tuple[int, int], bytes] = {}
        latest = self.storage.similar_index.latest_version(path)
        if version is None:
            version = 0 if latest is None else latest + 1
        cursor = None
        if self._executor is not None and latest is None:
            # Real workers and no history to skip by: CDC will cut the
            # whole file, so fan out the whole-file boundary scan and the
            # fingerprints of every plain-CDC chunk span.  Both are pure
            # functions of the payload, so the classification below is
            # byte-identical; spans it invents itself (superchunks) hash
            # inline.
            boundary_set, fp_memo = self._executor.chunk_and_fingerprint(
                self._chunker, data, self.config.fingerprint_algo
            )
        else:
            # Scan on demand: skip chunking jumps over duplicate runs, and
            # the bytes in between are never handed to the scan kernel.
            boundary_set = cursor = BoundaryCursor(self._chunker, data)

        handle = self._detect_base(
            path, latest, data, boundary_set, breakdown, counters, fp_memo
        )
        job = _JobState(
            engine=self,
            path=path,
            version=version,
            data=data,
            boundaries=boundary_set,
            handle=handle,
            breakdown=breakdown,
            counters=counters,
            rewrite_containers=rewrite_containers or set(),
            fp_memo=fp_memo,
            on_first_write=on_first_write,
        )
        if counters.get("degraded_events"):
            # The detected base's recipe could not be fetched: the whole
            # job runs without duplicate verification.
            job.degraded = True
        job.run()
        counters.add("bytes_scanned", len(data) if cursor is None else cursor.bytes_scanned)
        return job.finish()

    # ------------------------------------------------------------------
    def _detect_base(
        self,
        path: str,
        latest: int | None,
        data: bytes,
        boundary_set: BoundarySet | BoundaryCursor,
        breakdown: TimeBreakdown,
        counters: Counters,
        fp_memo: dict[tuple[int, int], bytes] | None = None,
    ) -> RecipeHandle | None:
        """Step 1: find a historical version or similar file and open its
        recipe (a small one whole, else its header and segment tables; the
        job consults the recipe index on its first cache miss)."""
        base: tuple[str, int] | None = None
        breakdown.charge("index_query", self.cost_model.cpu_index_query)
        if latest is not None:
            base = (path, latest)
            counters.add("detect_by_name")
        else:
            base = self._probe_header(data, boundary_set, breakdown, counters, fp_memo)

        if base is None:
            counters.add("detect_none")
            return None

        with self.storage.oss.meter(breakdown):
            try:
                handle = self.storage.recipes.open_recipe(*base)
            except VersionNotFoundError:
                # The base's recipe was deleted under the index entry that
                # named it: back up as if nothing had been detected.
                handle = None
                counters.add("detect_none")
            except DEDUP_LOOKUP_FAILURES:
                # Degraded mode (Section VI-A rationale): rather than abort
                # the backup, store everything as unique and let reverse
                # deduplication reclaim the redundancy out-of-line.
                handle = None
                counters.add("degraded_events")
        return handle

    def _probe_header(
        self,
        data: bytes,
        boundary_set: BoundarySet | BoundaryCursor,
        breakdown: TimeBreakdown,
        counters: Counters,
        fp_memo: dict[tuple[int, int], bytes] | None = None,
    ) -> tuple[str, int] | None:
        """Sample header chunks and vote in the similar-file index.

        Each digest lands in ``fp_memo``: a job without a base cuts these
        same chunks next and must not hash them again.
        """
        limit = min(len(data), self.config.header_probe_bytes)
        view = memoryview(data)
        memo = {} if fp_memo is None else fp_memo
        samples: list[bytes] = []
        position = 0
        while position < limit:
            end = boundary_set.next_cut(position)
            chunk = view[position:end]
            breakdown.charge(
                "chunking", self.cost_model.chunking_cost(self._chunker.name, len(chunk))
            )
            breakdown.charge("fingerprinting", self.cost_model.fingerprint_cost(len(chunk)))
            fp = memo.get((position, end))
            if fp is None:
                fp = memo[position, end] = self._fingerprint(chunk)
            if is_sampled(fp, SIMILARITY_SAMPLE_RATIO):
                samples.append(fp)
            position = end
        breakdown.charge("index_query", self.cost_model.cpu_index_query * max(1, len(samples)))
        counters.add("header_probes")
        found = self.storage.similar_index.find_similar(samples)
        if found is not None:
            counters.add("detect_by_similarity")
        return found


class _JobState:
    """Mutable state of one backup job; the main loop lives here."""

    def __init__(
        self,
        engine: BackupEngine,
        path: str,
        version: int,
        data: bytes,
        boundaries: BoundarySet | BoundaryCursor,
        handle: RecipeHandle | None,
        breakdown: TimeBreakdown,
        counters: Counters,
        rewrite_containers: set[int] | None = None,
        fp_memo: dict[tuple[int, int], bytes] | None = None,
        on_first_write: Callable[[], None] | None = None,
    ) -> None:
        self.engine = engine
        self.config = engine.config
        self.cost = engine.cost_model
        self.storage = engine.storage
        self.path = path
        self.version = version
        self.data = data
        #: Zero-copy window over the stream: every chunk payload below is
        #: a ``memoryview`` slice of it (hashing and container packing
        #: both consume buffer objects), so the hot loop never copies.
        self.view = memoryview(data)
        self.boundaries = boundaries
        self.handle = handle
        #: The base's recipe index, derived or fetched on the first cache
        #: miss (:meth:`RecipeHandle.recipe_index`).
        self.recipe_index: RecipeIndex | None = None
        self._on_first_write = on_first_write
        self.breakdown = breakdown
        self.counters = counters

        self.cache = DedupCache()
        #: fp → record stored earlier in THIS job (intra-stream dedup,
        #: which is what handles self-referencing chunks).
        self.local_records: dict[bytes, ChunkRecord] = {}
        self.segments: list[list[ChunkRecord]] = []
        self.current_records: list[ChunkRecord] = []
        self.current_starts: list[int] = []
        self.current_bytes = 0
        self.builder: ContainerBuilder = self.storage.containers.new_builder(
            self.config.container_bytes
        )
        self.new_metas: dict[int, ContainerMeta] = {}
        self.stored_chunk_bytes = 0
        self.uploaded_bytes = 0
        self.rewrite_containers = rewrite_containers or set()
        #: Skip-chunking state: location of the last matched record.
        self.skip_from: tuple[int, int] | None = None
        #: Degraded mode: the dedup base became unreachable; chunks are
        #: stored as unique and flagged for out-of-line reclamation.
        self.degraded = False
        #: The job's CPU work, priced once by :meth:`_fold_charges`: bytes
        #: cut, skipped, fingerprinted and hashed by superchunk merging,
        #: lookups, compares, records and bytes packed.
        self._scan_bytes = self._skip_bytes = self._fp_bytes = 0
        self._merge_fp_bytes = self._lookups = self._compares = 0
        self._records = self._packed_bytes = 0
        #: (start, end) → digest precomputed by the parallel executor for
        #: the plain-CDC chunk walk, or by the header probe; spans cut by
        #: skip-chunking or superchunk merging miss it and hash inline via
        #: :meth:`_fp`.  The caller's dict, even empty, is kept.
        self._fp_memo = {} if fp_memo is None else fp_memo
        self._fingerprint = engine._fingerprint

    def _fp(self, start: int, end: int) -> bytes:
        """Digest of ``data[start:end]`` — memoised span or inline hash."""
        digest = self._fp_memo.get((start, end))
        if digest is None:
            digest = self._fingerprint(self.view[start:end])
        return digest

    # --- virtual clock ----------------------------------------------------
    def _fold_charges(self) -> None:
        """Charge the job's tallies to the breakdown (the cost model is
        linear in them)."""
        cost = self.cost
        chunking = cost.chunking_cost(self.engine._chunker.name, self._scan_bytes)
        chunking += cost.chunking_cost("skip", self._skip_bytes)
        fingerprinting = cost.fingerprint_cost(self._fp_bytes + self._merge_fp_bytes)
        index_query = cost.cpu_index_query * self._lookups + cost.cpu_fp_compare * self._compares
        other = cost.cpu_record_handling * self._records
        other += cost.cpu_other_per_byte * self._packed_bytes
        self.breakdown.charge("chunking", chunking)
        self.breakdown.charge("fingerprinting", fingerprinting)
        self.breakdown.charge("index_query", index_query)
        self.breakdown.charge("other", other)
        if self._records:
            self.counters.add("chunks", self._records)

    # --- main loop ---------------------------------------------------------
    def run(self) -> None:
        """Steps 2 and 3: chunk, deduplicate, segment, persist."""
        position = 0
        length = len(self.data)
        handle = self.handle
        if (
            self.config.skip_chunking
            and handle is not None
            and handle.path == self.path
            and handle.segment_count
        ):
            self._seed_skip_run()
        while position < length:
            if self.config.skip_chunking and self.skip_from is not None:
                position = self._try_skip_chunking(position)
            else:
                position = self._cdc_step(position)
        self._finalize_segment()
        self._fold_charges()
        self._flush_container()

    # --- skip chunking (Section IV-B) ------------------------------------
    def _seed_skip_run(self) -> None:
        """Predict chunk 0 too: start the skip run before the base's first
        record.

        Fetches the prefetch span at segment 0 up front and keeps it only if
        the first prediction holds (its cut and its digest).  Otherwise the
        records are dropped and the job runs as if never seeded: CDC from
        byte 0, the recipe index consulted on the first miss.
        """
        segments = self._fetch_segments(0)
        if segments is None:
            return
        first = segments[0][0]
        end = first.size
        if end > len(self.data) or not self.boundaries.is_cut(0, end):
            return
        # Memoised: after a failed digest, CDC usually cuts this same span.
        fp = self._fp_memo[0, end] = self._fp(0, end)
        if fp != first.fp:
            return
        self._cache_segments(0, segments)
        self.skip_from = (0, -1)

    def _try_skip_chunking(self, position: int) -> int:
        """Replay the successor chain from ``skip_from`` while predictions hold.

        A run ends at the record that fills the segment, or hands the chunk
        that broke it to :meth:`_skip_chunk`.  Returns the new position;
        ``skip_from`` is None when CDC must cut next.
        """
        length = len(self.data)
        successor = self.cache.successor
        is_cut = self.boundaries.is_cut
        rewrite = self.rewrite_containers
        memo = self._fp_memo
        records = self.current_records
        starts = self.current_starts
        room = self.config.segment_bytes - self.current_bytes
        location = self.skip_from
        start = position
        chunks = superchunks = 0
        while position < length and position - start < room:
            following = successor(location)
            if following is None:
                break
            predicted, next_location = following
            end = position + predicted.size
            if end > length or predicted.container_id in rewrite or not is_cut(position, end):
                break
            fp = memo.get((position, end)) or self._fingerprint(self.view[position:end])
            if fp != predicted.fp:
                memo[position, end] = fp  # the per-chunk path classifies it
                break
            # The record ``_emit_duplicate`` builds, positionally.
            records.append(ChunkRecord(
                fp, predicted.container_id, predicted.size, predicted.duplicate_times + 1,
                predicted.is_superchunk, predicted.first_fp, predicted.first_size, True,
            ))  # fmt: skip
            starts.append(position)
            chunks += 1
            superchunks += predicted.is_superchunk
            location = next_location
            position = end
        if chunks:
            run_bytes = position - start
            self.skip_from = location
            self._skip_bytes += run_bytes
            self._fp_bytes += run_bytes
            self._compares += chunks
            self._records += chunks
            self.counters.add("skip_success", chunks)
            if superchunks:
                self.counters.add("superchunk_hits", superchunks)
            self.counters.add("dup_chunks", chunks)
            self.counters.add("dup_bytes", run_bytes)
            self.current_bytes += run_bytes
            if run_bytes >= room:
                self._finalize_segment()
                return position
        if position == length:
            return position
        return self._skip_chunk(position)

    def _skip_chunk(self, position: int) -> int:
        """One prediction with every fallback; returns the new position."""
        successor = self.cache.successor(self.skip_from)
        if successor is None and self.handle is not None:
            ordinal = self.skip_from[0] + 1
            if ordinal < self.handle.segment_count:
                self._prefetch_segment(ordinal)
                if self.skip_from is None:
                    # Prefetch failed and flipped the job into degraded
                    # mode; fall back to CDC for the rest of the stream.
                    return position
                successor = self.cache.successor(self.skip_from)
        if successor is None:
            self.skip_from = None
            return position
        predicted, location = successor
        end = position + predicted.size
        if end > len(self.data) or not self.boundaries.is_cut(position, end):
            self.counters.add("skip_fail")
            self.skip_from = None
            return position
        self._skip_bytes += predicted.size
        self._fp_bytes += predicted.size
        self._compares += 1
        fp = self._fp(position, end)
        if fp != predicted.fp:
            # Boundary matched but content changed: fall back to the dedup
            # cache for this chunk, then resume CDC.
            self.counters.add("skip_fp_mismatch")
            self.skip_from = None
            self._classify_chunk(position, end, fp)
            return end
        self.counters.add("skip_success")
        if predicted.is_superchunk:
            self.counters.add("superchunk_hits")
        self._emit_duplicate(position, end, predicted)
        self.skip_from = location
        return end

    # --- normal CDC step ---------------------------------------------------
    def _cdc_step(self, position: int) -> int:
        """Cut one chunk with CDC and classify it; returns the new position."""
        end = self.boundaries.next_cut(position)
        self._scan_bytes += end - position
        self._fp_bytes += end - position
        fp = self._fp(position, end)

        # SuperChunking (Algorithm 1): the cut chunk may be the firstChunk
        # of a known superchunk.
        if self.config.chunk_merging:
            absorbed_end = self._try_superchunking(position, end, fp)
            if absorbed_end is not None:
                return absorbed_end

        self._classify_chunk(position, end, fp)
        return end

    def _try_superchunking(self, position: int, end: int, fp: bytes) -> int | None:
        """Algorithm 1; returns the superchunk end if it matched."""
        hit = self.cache.lookup(fp)
        if hit is None:
            return None
        record, location = hit
        if not record.is_superchunk or record.first_fp != fp:
            return None
        sc_end = position + record.size
        if sc_end > len(self.data):
            return None
        self._fp_bytes += record.size - (end - position)
        self._compares += 1
        sc_fp = self._fp(position, sc_end)
        if sc_fp != record.fp:
            # Failed: c^n is a plain duplicate of the firstChunk; CDC
            # resumes from the current cut point p1 (= end).
            self.counters.add("superchunk_miss")
            first_record = ChunkRecord(
                fp=record.first_fp,
                container_id=record.container_id,
                size=record.first_size,
                duplicate_times=1,
                is_duplicate=True,
            )
            self.counters.add("dup_chunks")
            self.counters.add("dup_bytes", first_record.size)
            self._append_record(first_record, position)
            self.skip_from = None
            return end
        self.counters.add("superchunk_hits")
        self._emit_duplicate(position, sc_end, record)
        self.skip_from = location
        return sc_end

    # --- classification ------------------------------------------------------
    def _classify_chunk(self, position: int, end: int, fp: bytes) -> None:
        """Duplicate via caches/recipe index, otherwise store as unique."""
        self._lookups += 1
        local = self.local_records.get(fp)
        if local is not None:
            self.counters.add("local_duplicates")
            duplicate = ChunkRecord(
                fp=fp,
                container_id=local.container_id,
                size=local.size,
                duplicate_times=local.duplicate_times,
                is_duplicate=True,
            )
            self._append_record(duplicate, position)
            return

        hit = self.cache.lookup(fp)
        if hit is None and self._maybe_prefetch(fp):
            hit = self.cache.lookup(fp)
        if hit is not None:
            record, location = hit
            if record.fp == fp:
                self._emit_duplicate(position, end, record)
                self.skip_from = location
                return
            if record.is_superchunk and record.first_fp == fp:
                # Duplicate of a superchunk's firstChunk (the bytes live at
                # the head of the superchunk; an alias meta entry resolves
                # the fingerprint at restore time).
                first_record = ChunkRecord(
                    fp=fp,
                    container_id=record.container_id,
                    size=record.first_size,
                    duplicate_times=1,
                    is_duplicate=True,
                )
                self.counters.add("dup_chunks")
                self.counters.add("dup_bytes", first_record.size)
                self._append_record(first_record, position)
                return

        self._emit_unique(position, end, fp)

    def _maybe_prefetch(self, fp: bytes) -> bool:
        """Consult the recipe index; prefetch matching segment recipes.

        The index holds only sampled fingerprints (plus segment-first and
        superchunk-firstChunk entries), so the mod-R sampling bounds its
        size; the probe itself is an in-memory lookup and runs for every
        cache miss — a miss on an unsampled fingerprint costs one hash
        probe and nothing else.
        """
        if self.handle is None:
            return False
        if self.recipe_index is None:
            handle = self.handle
            self.recipe_index = self._download(
                lambda: handle.recipe_index(self.config.effective_sample_ratio())
            )
            if self.recipe_index is None:
                return False
            if not handle.whole:
                self.counters.add("recipe_index_fetches")
        self._compares += 1
        ordinals = self.recipe_index.lookup(fp)
        fetched = False
        for ordinal in ordinals:
            # Logical locality: chunks near the match "will also appear in
            # this segment with a high probability", so prefetch a span of
            # consecutive segment recipes starting at the match.
            if self.handle is None:
                break  # a prefetch failure degraded the job mid-loop
            if not self.cache.has_segment(ordinal):
                self._prefetch_segment(ordinal)
                fetched = True
        return fetched

    def _prefetch_segment(self, ordinal: int) -> None:
        """Fetch a prefetch span of segment recipes into the dedup cache."""
        if self.handle is None:
            return
        segments = self._fetch_segments(ordinal)
        if segments is not None:
            self._cache_segments(ordinal, segments)

    def _fetch_segments(self, ordinal: int) -> list[list[ChunkRecord]] | None:
        """A prefetch span of segment recipes from ``ordinal``, one ranged GET."""
        handle = self.handle
        span = min(max(1, self.config.prefetch_segment_span), handle.segment_count - ordinal)
        return self._download(lambda: handle.get_segment_range(ordinal, span))

    def _cache_segments(self, ordinal: int, segments: list[list[ChunkRecord]]) -> None:
        for offset, records in enumerate(segments):
            self.counters.add("segments_prefetched")
            self.cache.insert_segment(ordinal + offset, records)

    def _download(self, fetch: Callable[[], object]):
        """One blocking read of the base's recipe; None, with the job
        degraded, when the base is unreachable."""
        with self.storage.oss.meter(self.breakdown):
            try:
                fetched = fetch()
            except DEDUP_LOOKUP_FAILURES:
                fetched = None
        if fetched is None:
            self._enter_degraded_mode()
        return fetched

    def _enter_degraded_mode(self) -> None:
        """Stop consulting the unreachable dedup base for this job.

        Chunks the cache cannot resolve are stored as unique from here
        on; the version is flagged degraded so the G-node's reverse
        deduplication reclaims whatever redundancy that introduced.
        """
        self.counters.add("degraded_events")
        self.degraded = True
        self.handle = None
        self.recipe_index = None
        self.skip_from = None

    # --- record emission --------------------------------------------------------
    def _emit_duplicate(self, position: int, end: int, base: ChunkRecord) -> None:
        if base.container_id in self.rewrite_containers:
            # HAR-style rewriting: a duplicate living in a sparse container
            # is stored again to repair physical locality.
            self.counters.add("rewritten_chunks")
            self._emit_unique(position, end, base.fp)
            return
        record = ChunkRecord(
            fp=base.fp,
            container_id=base.container_id,
            size=end - position,
            duplicate_times=base.duplicate_times + 1,
            is_superchunk=base.is_superchunk,
            first_fp=base.first_fp,
            first_size=base.first_size,
            is_duplicate=True,
        )
        self.counters.add("dup_chunks")
        self.counters.add("dup_bytes", record.size)
        self._append_record(record, position)

    def _emit_unique(self, position: int, end: int, fp: bytes) -> None:
        chunk = self.view[position:end]
        self._packed_bytes += len(chunk)
        if self.builder.is_full():
            self._flush_container()
        self.builder.add_chunk(fp, chunk)
        record = ChunkRecord(
            fp=fp,
            container_id=self.builder.container_id,
            size=len(chunk),
            duplicate_times=0,
        )
        self.counters.add("unique_chunks")
        if self.degraded:
            # Persisted without duplicate verification: possibly redundant
            # until the next reverse-dedup pass inspects it.
            self.counters.add("degraded_chunks")
        self.stored_chunk_bytes += len(chunk)
        self.local_records[fp] = record
        self._append_record(record, position)
        self.skip_from = None

    def _append_record(self, record: ChunkRecord, start: int) -> None:
        self._records += 1
        self.current_records.append(record)
        self.current_starts.append(start)
        self.current_bytes += record.size
        if self.current_bytes >= self.config.segment_bytes:
            self._finalize_segment()

    # --- segment finalisation & merging (Section IV-C) -----------------------------
    def _finalize_segment(self) -> None:
        if not self.current_records:
            return
        records = self.current_records
        starts = self.current_starts
        if self.config.chunk_merging:
            records, starts = self._merge_superchunks(records, starts)
        self.segments.append(records)
        self.current_records = []
        self.current_starts = []
        self.current_bytes = 0

    def _merge_superchunks(
        self, records: list[ChunkRecord], starts: list[int]
    ) -> tuple[list[ChunkRecord], list[int]]:
        runs = self.engine._merge_policy.plan_merge_runs(records)
        if not runs:
            return records, starts
        merged_records: list[ChunkRecord] = []
        merged_starts: list[int] = []
        run_map = {start: end for start, end in runs}
        index = 0
        while index < len(records):
            run_end = run_map.get(index)
            if run_end is None:
                merged_records.append(records[index])
                merged_starts.append(starts[index])
                index += 1
                continue
            record = self._build_superchunk(records, starts, index, run_end)
            merged_records.append(record)
            merged_starts.append(starts[index])
            index = run_end
        return merged_records, merged_starts

    def _build_superchunk(
        self, records: list[ChunkRecord], starts: list[int], begin: int, end: int
    ) -> ChunkRecord:
        """Materialise one superchunk: new payload, container, record."""
        first = records[begin]
        data_start = starts[begin]
        data_end = starts[end - 1] + records[end - 1].size
        payload = self.view[data_start:data_end]
        self._merge_fp_bytes += len(payload)
        self._packed_bytes += len(payload)
        sc_fp = self._fp(data_start, data_end)
        if self.builder.payload_bytes + len(payload) > self.config.container_bytes:
            self._flush_container()
        offset = self.builder.payload_bytes
        self.builder.add_chunk(sc_fp, payload)
        # Alias every constituent chunk into the superchunk's bytes: the
        # firstChunk alias drives Algorithm 1, and the rest let G-node's
        # reverse deduplication find and delete the constituents' old
        # copies (the superchunk write would otherwise permanently double
        # the cold data), with old recipes redirecting here.
        relative = 0
        for position in range(begin, end):
            constituent = records[position]
            self.builder.add_alias(constituent.fp, offset + relative, constituent.size)
            relative += constituent.size
        self.counters.add("superchunks_created")
        self.counters.add("superchunk_bytes_written", len(payload))
        self.stored_chunk_bytes += len(payload)
        return ChunkRecord(
            fp=sc_fp,
            container_id=self.builder.container_id,
            size=len(payload),
            duplicate_times=self.config.merge_threshold,
            is_superchunk=True,
            first_fp=first.fp,
            first_size=first.size,
            is_duplicate=False,
        )

    # --- persistence ------------------------------------------------------------
    def _flush_container(self) -> None:
        if self.builder.is_empty():
            self.builder = self.storage.containers.new_builder(self.config.container_bytes)
            return
        builder = self.builder
        self.counters.add("containers_written")
        self.new_metas[builder.container_id] = builder.meta
        self.builder = self.storage.containers.new_builder(self.config.container_bytes)
        self._before_write()
        with self.storage.oss.meter(self.breakdown) as meter:
            self.storage.containers.write(builder)
        self.uploaded_bytes += meter.bytes_written

    def _before_write(self) -> None:
        """Run the caller's ``on_first_write`` hook, once."""
        hook, self._on_first_write = self._on_first_write, None
        if hook is not None:
            hook()

    def identical(self) -> bool:
        """Whether the job proved ``data`` byte-identical to the path's
        latest version: one unbroken skip run, seeded at the base's first
        record, covered the whole base — every record a verified prediction
        (same length, so every base record), nothing stored, nothing merged,
        nothing rewritten, not degraded.  No byte is hashed beyond what the
        run hashed anyway."""
        handle, counters = self.handle, self.counters
        return (
            handle is not None
            and handle.path == self.path
            and handle.version < self.version
            and len(self.data) == handle.total_bytes
            and counters.get("skip_success") == counters.get("chunks")
            and not self.new_metas
            and not self.rewrite_containers
            and not self.degraded
        )

    def finish(self) -> BackupResult:
        """Persist recipe (and a large one's recipe index) and pick the
        representatives the caller registers — or, for a version
        :meth:`identical` to its base, nothing at all: the result's
        ``alias_of`` names the base, whose recipe the caller's catalog
        aliases.

        Crash-consistency contract: everything written here (and the
        container writes before it) is *pre-commit* state — the version
        (and its ``representatives``) only becomes visible when
        :class:`~repro.core.system.SlimStore` publishes its commit record.
        """
        recipe = Recipe(
            path=self.path,
            version=self.version,
            total_bytes=len(self.data),
            segments=self.segments,
        )
        alias_of = self.handle.version if self.identical() else None
        representatives = [] if alias_of is not None else self._persist(recipe)
        self.counters.add("logical_bytes", len(self.data))
        return BackupResult(
            path=self.path,
            version=self.version,
            recipe=recipe,
            breakdown=self.breakdown,
            counters=self.counters,
            logical_bytes=len(self.data),
            stored_chunk_bytes=self.stored_chunk_bytes,
            uploaded_bytes=self.uploaded_bytes,
            degraded=self.degraded,
            unique_fps=list(self.local_records),
            alias_of=alias_of,
            new_metas=self.new_metas,
            representatives=representatives,
        )

    def _persist(self, recipe: Recipe) -> list[bytes]:
        fps = (record.fp for segment in self.segments for record in segment)
        representatives = list(
            islice(
                (fp for fp in fps if is_sampled(fp, SIMILARITY_SAMPLE_RATIO)),
                MAX_FILE_REPRESENTATIVES,
            )
        )
        self._before_write()
        with self.storage.oss.meter(self.breakdown) as meter:
            self.storage.recipes.put_recipe(recipe, self.config.effective_sample_ratio())
        self.uploaded_bytes += meter.bytes_written
        return representatives
