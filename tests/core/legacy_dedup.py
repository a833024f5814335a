"""The backup job loop as it was before skip chunking replayed whole runs.

``LegacyJobState`` is a copy of the per-chunk ``repro.core.dedup._JobState``
that predates the run loop and the tallied virtual clock: one
``_try_skip_chunking`` call per predicted chunk, and every CPU charge made
the moment its work happens (one ``TimeBreakdown.charge`` each).  It is
kept as the oracle ``tests/core/test_skip_run.py``
compares the engine against.  It carries one fix over the old code: a
failed Algorithm 1 match counts the firstChunk duplicate it appends in
``dup_chunks``/``dup_bytes``, as the engine does now.  It also takes the
engine's record-0 seed, base recipe handle (read whole or ranged, its
recipe index derived or fetched on the first miss), recipe writer,
first-write hook and identity (alias) rule, so both issue the same OSS
requests.

``legacy_jobs(monkeypatch)`` makes ``BackupEngine.backup`` run its jobs
through this class.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.chunking.base import BoundarySet
from repro.chunking.cursor import BoundaryCursor
from repro.core.container import ContainerBuilder
from repro.core.dedup import (
    DEDUP_LOOKUP_FAILURES,
    MAX_FILE_REPRESENTATIVES,
    SIMILARITY_SAMPLE_RATIO,
    BackupEngine,
    BackupResult,
    DedupCache,
)
from repro.core.recipe import ChunkRecord, Recipe, RecipeHandle, RecipeIndex
from repro.fingerprint.sampling import is_sampled
from repro.sim.metrics import Counters, TimeBreakdown


def legacy_jobs(monkeypatch) -> None:
    """Route every ``BackupEngine.backup`` job through ``LegacyJobState``."""
    monkeypatch.setattr("repro.core.dedup._JobState", LegacyJobState)


class LegacyJobState:
    """The per-chunk ``_JobState`` (see the module docstring)."""

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
        self.new_metas: dict = {}
        self.stored_chunk_bytes = 0
        self.uploaded_bytes = 0
        self.rewrite_containers = rewrite_containers or set()
        #: Skip-chunking state: location of the last matched record.
        self.skip_from: tuple[int, int] | None = None
        #: Degraded mode: the dedup base became unreachable; chunks are
        #: stored as unique and flagged for out-of-line reclamation.
        self.degraded = False
        #: (start, end) → digest precomputed by the parallel executor for
        #: the plain-CDC chunk walk; spans cut by skip-chunking or
        #: superchunk merging miss it and hash inline via :meth:`_fp`.
        self._fp_memo = fp_memo or {}
        self._fingerprint = engine._fingerprint

    def _fp(self, start: int, end: int) -> bytes:
        """Digest of ``data[start:end]`` — memoised span or inline hash."""
        digest = self._fp_memo.get((start, end))
        if digest is None:
            digest = self._fingerprint(self.view[start:end])
        return digest

    # --- cost helpers ----------------------------------------------------
    # Each helper charges the job breakdown (the paper's categories).
    def _charge_scan(self, nbytes: int) -> None:
        seconds = self.cost.chunking_cost(self.engine._chunker.name, nbytes)
        self.breakdown.charge("chunking", seconds)

    def _charge_skip(self, nbytes: int) -> None:
        self.breakdown.charge("chunking", self.cost.chunking_cost("skip", nbytes))

    def _charge_fingerprint(self, nbytes: int) -> None:
        self.breakdown.charge("fingerprinting", self.cost.fingerprint_cost(nbytes))

    def _charge_lookup(self) -> None:
        self.breakdown.charge("index_query", self.cost.cpu_index_query)

    def _charge_compare(self) -> None:
        self.breakdown.charge("index_query", self.cost.cpu_fp_compare)

    def _charge_other(self, nbytes: int) -> None:
        self.breakdown.charge("other", self.cost.cpu_other_per_byte * nbytes)

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
            consumed = False
            if self.config.skip_chunking and self.skip_from is not None:
                consumed = self._try_skip_chunking(position)
                if consumed:
                    position = self._last_end
                    continue
            position = self._cdc_step(position)
        self._finalize_segment()
        self._flush_container()

    # --- skip chunking (Section IV-B) ------------------------------------
    def _seed_skip_run(self) -> None:
        """Fetch the span at segment 0; keep it, and predict chunk 0 from
        the base's first record, only if that prediction holds."""
        segments = self._fetch_segments(0)
        if segments is None:
            return
        first = segments[0][0]
        end = first.size
        if end > len(self.data) or not self.boundaries.is_cut(0, end):
            return
        fp = self._fp_memo[0, end] = self._fp(0, end)
        if fp != first.fp:
            return
        for ordinal, records in enumerate(segments):
            self.counters.add("segments_prefetched")
            self.cache.insert_segment(ordinal, records)
        self.skip_from = (0, -1)

    def _try_skip_chunking(self, position: int) -> bool:
        """Predict the next cut from history; True if a chunk was emitted."""
        successor = self.cache.successor(self.skip_from)
        if successor is None and self.handle is not None:
            ordinal = self.skip_from[0] + 1
            if ordinal < self.handle.segment_count:
                self._prefetch_segment(ordinal)
                if self.skip_from is None:
                    # Prefetch failed and flipped the job into degraded
                    # mode; fall back to CDC for the rest of the stream.
                    return False
                successor = self.cache.successor(self.skip_from)
        if successor is None:
            self.skip_from = None
            return False
        predicted, location = successor
        end = position + predicted.size
        if end > len(self.data) or not self.boundaries.is_cut(position, end):
            self.counters.add("skip_fail")
            self.skip_from = None
            return False
        chunk = self.view[position:end]
        self._charge_skip(len(chunk))
        self._charge_fingerprint(len(chunk))
        fp = self._fp(position, end)
        self._charge_compare()
        if fp != predicted.fp:
            # Boundary matched but content changed: fall back to the dedup
            # cache for this chunk, then resume CDC.
            self.counters.add("skip_fp_mismatch")
            self.skip_from = None
            self._classify_chunk(position, end, fp)
            self._last_end = end
            return True
        self.counters.add("skip_success")
        if predicted.is_superchunk:
            self.counters.add("superchunk_hits")
        self._emit_duplicate(position, end, predicted)
        self.skip_from = location
        self._last_end = end
        return True

    # --- normal CDC step ---------------------------------------------------
    def _cdc_step(self, position: int) -> int:
        """Cut one chunk with CDC and classify it; returns the new position."""
        end = self.boundaries.next_cut(position)
        self._charge_scan(end - position)
        fp = self._fp(position, end)
        self._charge_fingerprint(end - position)

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
        self._charge_fingerprint(record.size - (end - position))
        sc_fp = self._fp(position, sc_end)
        self._charge_compare()
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
        self._charge_lookup()
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
        self._charge_compare()
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
        """Fetch a prefetch span of segment recipes in one ranged GET."""
        if self.handle is None:
            return
        segments = self._fetch_segments(ordinal)
        for offset, records in enumerate(segments or ()):
            self.counters.add("segments_prefetched")
            self.cache.insert_segment(ordinal + offset, records)

    def _fetch_segments(self, ordinal: int) -> list[list[ChunkRecord]] | None:
        handle = self.handle
        span = max(1, self.config.prefetch_segment_span)
        span = min(span, handle.segment_count - ordinal)
        return self._download(lambda: handle.get_segment_range(ordinal, span))

    def _download(self, fetch):
        before = self.storage.oss.stats.snapshot()
        try:
            fetched = fetch()
        except DEDUP_LOOKUP_FAILURES:
            fetched = None
        read_seconds = self.storage.oss.stats.diff(before).read_seconds
        self.breakdown.charge("download", read_seconds)
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
        self._charge_other(len(chunk))
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
        self.breakdown.charge("other", self.cost.cpu_record_handling)
        self.current_records.append(record)
        self.current_starts.append(start)
        self.current_bytes += record.size
        self.counters.add("chunks")
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
        self._charge_fingerprint(len(payload))
        self._charge_other(len(payload))
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
        before = self.storage.oss.stats.snapshot()
        self.storage.containers.write(builder)
        written = self.storage.oss.stats.diff(before)
        self.breakdown.charge("upload", written.write_seconds)
        self.uploaded_bytes += written.bytes_written

    def _before_write(self) -> None:
        hook, self._on_first_write = self._on_first_write, None
        if hook is not None:
            hook()

    def _identical(self) -> bool:
        """One unbroken skip run from the base's first record to its last."""
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
        """Persist recipe, recipe index and similarity registration.

        Crash-consistency contract: everything written here (and the
        container writes before it) is *pre-commit* state — the version
        only becomes visible when :class:`~repro.core.system.SlimStore`
        re-publishes the catalog afterwards.  The write order (recipe →
        recipe index → similar-index registration) is what the recovery
        discard path in :mod:`repro.core.recovery` unwinds, so keep them
        in this sequence.
        """
        recipe = Recipe(
            path=self.path,
            version=self.version,
            total_bytes=len(self.data),
            segments=self.segments,
        )
        alias_of = self.handle.version if self._identical() else None
        if alias_of is None:
            self._persist(recipe)
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
            new_metas=self.new_metas,
            degraded=self.degraded,
            unique_fps=list(self.local_records),
            alias_of=alias_of,
        )

    def _persist(self, recipe: Recipe) -> None:
        all_fps = [record.fp for segment in self.segments for record in segment]
        self._before_write()
        before = self.storage.oss.stats.snapshot()
        self.storage.recipes.put_recipe(recipe, self.config.effective_sample_ratio())
        representatives = [
            fp
            for fp in all_fps
            if is_sampled(fp, SIMILARITY_SAMPLE_RATIO)
        ][:MAX_FILE_REPRESENTATIVES]
        self.storage.similar_index.register(self.path, self.version, representatives)
        written = self.storage.oss.stats.diff(before)
        self.breakdown.charge("upload", written.write_seconds)
        self.uploaded_bytes += written.bytes_written
