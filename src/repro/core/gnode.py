"""Offline space management on the G-node (Sections V-B and VI).

Three jobs, all run in the backend after an online backup completes:

* **Global reverse deduplication** — filter every chunk of the newly
  written containers through the global index (Bloom-prefiltered); when a
  chunk already exists in an older container, delete the *old* copy and
  re-point the global index at the new one, preserving the new version's
  layout (Section VI-A).
* **Sparse container compaction (SCC)** — containers whose utilisation for
  the just-backed-up version fell below the threshold get their useful
  chunks copied into fresh containers; the current recipe is updated in
  place, so the benefit applies to the current version immediately, unlike
  HAR's next-version rewriting (Section V-B).
* **Container hygiene** — once a container's stale fraction crosses the
  rewrite threshold, it is read back, purged of deleted chunks and
  rewritten, shrinking what old versions pay for (Fig 9(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SlimStoreConfig
from repro.core.container import ContainerMeta
from repro.core.recipe import Recipe
from repro.core.storage import StorageLayer
from repro.errors import ObjectNotFoundError
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown


@dataclass
class ReverseDedupReport:
    """Outcome of one global reverse deduplication pass."""

    chunks_scanned: int = 0
    duplicates_removed: int = 0
    bytes_marked_deleted: int = 0
    containers_rewritten: int = 0
    bytes_reclaimed: int = 0
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    counters: Counters = field(default_factory=Counters)


@dataclass
class CompactionReport:
    """Outcome of one sparse-container compaction pass."""

    sparse_containers: list[int] = field(default_factory=list)
    chunks_moved: int = 0
    bytes_moved: int = 0
    new_container_ids: list[int] = field(default_factory=list)
    bytes_reclaimed: int = 0
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: Open journal intent of this pass, closed by the caller once the
    #: catalog reference fix-up is durable (None when nothing was sparse).
    journal_seq: int | None = None


class GNode:
    """The offline space-optimisation node."""

    def __init__(
        self,
        config: SlimStoreConfig,
        storage: StorageLayer,
        cost_model: CostModel | None = None,
    ) -> None:
        self.config = config
        self.storage = storage
        self.cost_model = cost_model or CostModel()

    # ------------------------------------------------------------------
    # Global reverse deduplication (Section VI-A)
    # ------------------------------------------------------------------
    def reverse_dedup(
        self, new_container_ids: list[int], metas: dict[int, ContainerMeta] | None = None
    ) -> ReverseDedupReport:
        """Exact-deduplicate the chunks of freshly written containers.

        The pass has three accelerations, all always on, and the report
        counts what each saved: the Bloom prefilter settles definitely-new
        chunks without a Rocks-OSS read (``bloom_fast_inserts``), the
        survivors go to the index in per-shard batches of
        ``config.index_batch_size`` (:meth:`GlobalIndex.get_many`, shards
        drained in parallel), and old-container metas are read once per
        pass (``meta_cache_hits`` / ``meta_cache_misses``).  New containers'
        metas the caller holds come in ``metas`` (an inline pass: the ones
        its job wrote); the others are read.  Index writes are flushed per
        container (:meth:`GlobalIndex.put_many`), so a later container's
        lookups observe every assignment of the containers before it.

        The pass opens no journal intent: the pending mark of the versions
        it serves is its recovery record.  It is idempotent — the index is
        re-pointed at the new copy *before* the old copy's deletion mark
        becomes durable, so every intermediate state restores, and a re-run
        writes only what the interrupted one did not.
        """
        report = ReverseDedupReport()
        metas = metas or {}
        meta_cache: dict[int, ContainerMeta] = {}
        dirty: set[int] = set()
        index = self.storage.global_index
        batch_size = self.config.index_batch_size
        for cid in new_container_ids:
            if cid not in metas and not self.storage.containers.exists(cid):
                continue  # collected since: a re-run after a later pass
            meta = metas[cid] if cid in metas else self._read_meta(cid, report)
            assignments: list[tuple[bytes, int]] = []
            lookups = []
            for entry in meta.entries:
                if entry.deleted:
                    continue
                report.chunks_scanned += 1
                if not index.maybe_contains(entry.fp):
                    # Definitely new: register without touching Rocks-OSS
                    # for a read ("quickly filter out unique chunks").
                    assignments.append((entry.fp, cid))
                    report.counters.add("bloom_fast_inserts")
                else:
                    lookups.append(entry)
            for start in range(0, len(lookups), batch_size):
                batch = lookups[start : start + batch_size]
                result = index.get_many([entry.fp for entry in batch])
                report.breakdown.charge("download", result.parallel_seconds())
                report.breakdown.charge(
                    "index_query", self.cost_model.cpu_index_query * len(batch)
                )
                report.counters.add("gdedup_batches")
                report.counters.add(
                    "gdedup_batch_shard_rpcs", len(result.shard_seconds)
                )
                if result.failed:
                    report.counters.add("gdedup_lookup_failures", len(result.failed))
                failed = set(result.failed)
                for entry in batch:
                    owner = result.owners.get(entry.fp)
                    if entry.fp in failed or owner == cid:
                        # Failed: leave the index untouched so a later pass
                        # can still dedup this chunk.  Owned: a re-run.
                        continue
                    assignments.append((entry.fp, cid))
                    if owner is None:
                        continue
                    # Exact duplicate missed online: reverse-deduplicate
                    # by deleting the copy in the *old* container.
                    old_meta = self._old_meta(owner, meta_cache, report)
                    if old_meta is not None and old_meta.mark_deleted(entry.fp):
                        report.duplicates_removed += 1
                        report.bytes_marked_deleted += entry.size
                        dirty.add(owner)
            index.put_many(assignments)
        self._persist_dirty_metas(meta_cache, dirty, report)
        return report

    def _read_meta(self, cid: int, report: ReverseDedupReport) -> ContainerMeta:
        with self.storage.oss.meter(report.breakdown):
            return self.storage.containers.read_meta(cid)

    def _old_meta(
        self, cid: int, meta_cache: dict[int, ContainerMeta], report: ReverseDedupReport
    ) -> ContainerMeta | None:
        """Old-container metadata, cached for the rest of the pass.

        "caching the meta of the old container can also reduce the access
        number of Rocks-OSS to accelerate global deduplication."  The
        cache is also the write-back set: every marked meta is persisted
        from it at the end of the pass.
        """
        if cid in meta_cache:
            report.counters.add("meta_cache_hits")
            return meta_cache[cid]
        try:
            meta = self._read_meta(cid, report)
        except (ObjectNotFoundError, KeyError):
            # The owner container was collected; the fingerprint simply
            # moves to its new home.
            return None
        report.counters.add("meta_cache_misses")
        meta_cache[cid] = meta
        return meta

    def _persist_dirty_metas(
        self,
        meta_cache: dict[int, ContainerMeta],
        dirty: set[int],
        report: ReverseDedupReport,
    ) -> None:
        for cid in sorted(dirty):
            meta = meta_cache[cid]
            # Only the writes are charged; a rewrite's GET is not (ROADMAP,
            # backup accounting gaps).
            with self.storage.oss.meter() as meter:
                self.storage.containers.update_meta(meta)
                if meta.stale_fraction() >= self.config.container_rewrite_threshold:
                    report.bytes_reclaimed += self.storage.containers.rewrite(cid, meta)
                    report.containers_rewritten += 1
            report.breakdown.charge("upload", meter.write_seconds)

    # ------------------------------------------------------------------
    # Sparse container compaction (Section V-B)
    # ------------------------------------------------------------------
    def compact_sparse(
        self,
        path: str,
        version: int,
        recipe: Recipe,
        new_container_ids: list[int],
    ) -> CompactionReport:
        """Compact containers version ``version`` of ``path`` references
        sparsely; ``recipe`` is its recipe, ``new_container_ids`` the
        containers its backup wrote.

        The write schedule is crash-safe and the recipe repoint is the
        commit point: (1) journal the compaction intent with a container
        watermark, (2) copy the needed chunks into fresh containers —
        the old containers stay untouched, (3) re-point the global index
        and record the planned moves in the intent, (4) overwrite the
        version's recipe (one atomic put — before it the version restores
        from the old layout, after it from the new), (5) only then mark
        the moved chunks deleted in the old metadata and collect emptied
        containers.  A crash before (4) discards: the new containers are
        orphans above the watermark and recovery garbage-collects them,
        re-pointing the index back.  A crash after (4) rolls forward:
        recovery replays the cleanup from the journaled moves.
        """
        report = CompactionReport()
        containers = self.storage.containers
        reused = recipe.reused_containers(new_container_ids)

        # The sparse containers' metas, reused by the copy loop and the cleanup.
        old_metas: dict[int, ContainerMeta] = {}
        for cid, ref_chunks in sorted(reused.items()):
            if not containers.exists(cid):
                continue
            with self.storage.oss.meter(report.breakdown):
                meta = containers.read_meta(cid)
            live = meta.live_chunks()
            if live == 0:
                continue
            utilization = ref_chunks / live
            if utilization < self.config.sparse_utilization_threshold:
                old_metas[cid] = meta
        sparse = list(old_metas)
        if not sparse:
            return report
        report.sparse_containers = sparse
        sparse_set = set(sparse)

        # The fingerprints the current version needs out of each sparse
        # container, in recipe order (preserving the new version's layout).
        needed: dict[int, list[bytes]] = {cid: [] for cid in sparse}
        for record in recipe.all_records():
            if record.container_id in sparse_set:
                fps = needed[record.container_id]
                if record.fp not in fps:
                    fps.append(record.fp)

        journal = self.storage.journal
        watermark = containers.peek_next_id()
        seq = journal.begin(
            "compaction",
            path=path,
            version=version,
            watermark=watermark,
            sparse=sparse,
        )

        # Phase 1: copy the needed chunks into fresh containers.  The old
        # containers are not touched yet — their metadata mutations are
        # planned (per-container deletion sets) and applied only after
        # the recipe repoint commits.
        builder = containers.new_builder(self.config.container_bytes)
        moved: dict[bytes, int] = {}
        planned_deletes: dict[int, list[bytes]] = {cid: [] for cid in sparse}
        for cid, meta in old_metas.items():
            with self.storage.oss.meter(report.breakdown):
                payload = containers.read_data(cid)
            planned = planned_deletes[cid]
            planned_set: set[bytes] = set()
            for fp in needed[cid]:
                entry = meta.find(fp)
                if entry is None or entry.deleted or fp in planned_set:
                    continue
                if (
                    not builder.is_empty()
                    and builder.payload_bytes + entry.size > self.config.container_bytes
                ):
                    builder = self._flush_compaction(builder, report)
                new_offset = builder.payload_bytes
                builder.add_chunk(fp, payload[entry.offset : entry.offset + entry.size])
                moved[fp] = builder.container_id
                report.chunks_moved += 1
                report.bytes_moved += entry.size
                planned.append(fp)
                planned_set.add(fp)
                # A moved superchunk carries its firstChunk alias along so
                # first-chunk references keep resolving in the new home.
                if not entry.alias:
                    for alias in meta.entries:
                        if (
                            alias.alias
                            and not alias.deleted
                            and alias.fp not in planned_set
                            and entry.offset <= alias.offset
                            and alias.offset + alias.size <= entry.offset + entry.size
                        ):
                            delta = alias.offset - entry.offset
                            builder.add_alias(alias.fp, new_offset + delta, alias.size)
                            moved[alias.fp] = builder.container_id
                            planned.append(alias.fp)
                            planned_set.add(alias.fp)
        if not builder.is_empty():
            builder = self._flush_compaction(builder, report)

        # Phase 2: record the planned moves (one atomic journal update),
        # then re-point the global index, one WAL record per shard.  Recovery
        # needs the moves to either replay the cleanup (committed) or walk
        # the index back to the still-live old copies (discarded).
        journal.update(
            seq,
            "compaction",
            path=path,
            version=version,
            watermark=watermark,
            sparse=sparse,
            new_cids=list(report.new_container_ids),
            moves={fp.hex(): cid for fp, cid in moved.items()},
        )
        self.storage.global_index.put_many(sorted(moved.items()))

        # Phase 3: COMMIT.  One atomic recipe overwrite flips the version
        # from the old layout to the new one.
        for segment in recipe.segments:
            for record in segment:
                new_cid = moved.get(record.fp)
                if new_cid is not None and record.container_id in sparse_set:
                    record.container_id = new_cid
        with self.storage.oss.meter(report.breakdown):
            self.storage.recipes.put_recipe(recipe)

        # Phase 4: cleanup — only now do the old copies die.  The intent
        # stays open (journal_seq) until the caller has re-published the
        # catalog with the new reference set: a crash before that persist
        # must still find the intent so recovery can replay the fix-up.
        self._compaction_cleanup(sparse, planned_deletes, old_metas, report)
        report.journal_seq = seq
        return report

    def _compaction_cleanup(
        self,
        sparse: list[int],
        planned_deletes: dict[int, list[bytes]],
        old_metas: dict[int, ContainerMeta],
        report: CompactionReport,
    ) -> None:
        """Mark moved chunks deleted in their old containers and collect.

        Runs after the recipe repoint committed; recovery replays it from
        the journaled moves (re-reading the metadata), so it must stay
        idempotent: marking an already-deleted chunk is a no-op, deleting
        an already-deleted container is a no-op.
        """
        containers = self.storage.containers
        for cid in sparse:
            if not containers.exists(cid):
                continue
            meta = old_metas.get(cid)
            if meta is None:
                with self.storage.oss.meter(report.breakdown):
                    meta = containers.read_meta(cid)
            for fp in planned_deletes.get(cid, []):
                meta.mark_deleted(fp)
            # Only the writes are charged, as in _persist_dirty_metas.
            with self.storage.oss.meter() as meter:
                containers.update_meta(meta)
                if not meta.live_lookup_entries():
                    report.bytes_reclaimed += containers.container_size(cid)
                    containers.delete(cid)
                elif meta.stale_fraction() >= self.config.container_rewrite_threshold:
                    report.bytes_reclaimed += containers.rewrite(cid, meta)
            report.breakdown.charge("upload", meter.write_seconds)

    # ------------------------------------------------------------------
    # Durability re-tiering
    # ------------------------------------------------------------------
    def retier(self, refcounts: dict[int, int], container_ids: list[int] | None = None):
        """Re-tier container durability to match the live refcounts.

        Runs in the backend after a backup (and from ``repro durability
        --retier``): containers whose heat crossed a policy threshold are
        promoted to replication, grouped into erasure stripes or demoted
        to single copies.  Returns the
        :class:`~repro.core.durability.RetierReport`, or None when the
        durability tier is disabled.
        """
        durability = self.storage.durability
        if durability is None:
            return None
        return durability.retier(refcounts, container_ids)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def deep_clean(self, stale_threshold: float = 0.01) -> int:
        """Rewrite every container whose stale fraction exceeds the
        threshold; returns bytes reclaimed.

        The per-backup path only rewrites containers past the configured
        ``container_rewrite_threshold``; this offline sweep finishes the
        job during idle periods, squeezing out the remaining marked-deleted
        bytes (the long-term decline of Fig 9(b)).

        With two-phase deletion enabled this sweep is also the reaper: it
        physically collects tombstoned containers whose grace epochs have
        passed and then advances the deletion epoch, so a container
        entombed today survives ``tombstone_grace_epochs`` further
        deep_clean passes before its bytes disappear.
        """
        reclaimed = 0
        containers = self.storage.containers
        for cid in containers.container_ids():
            meta = containers.read_meta(cid)
            if not meta.live_lookup_entries():
                reclaimed += containers.container_size(cid)
                containers.delete(cid)
            elif meta.stale_fraction() > stale_threshold:
                reclaimed += containers.rewrite(cid)
        self._prune_global_index()
        reaped_bytes, _ = containers.reap_expired()
        reclaimed += reaped_bytes
        durability = self.storage.durability
        if durability is not None:
            retired_bytes, _ = durability.reap_retired()
            reclaimed += retired_bytes
        if containers.grace_epochs > 0:
            containers.advance_epoch()
        return reclaimed

    def _prune_global_index(self) -> int:
        """Drop index entries whose container no longer exists.

        Version collection sweeps containers without touching the global
        index (it has no per-container fingerprint list); this offline
        pass removes the dangling mappings so reverse dedup never chases
        collected containers.
        """
        pruned = 0
        index = self.storage.global_index
        containers = self.storage.containers
        for fp, cid in list(index.iter_items()):
            if not containers.exists(cid):
                index.remove(fp)
                pruned += 1
        return pruned

    def _flush_compaction(self, builder, report: CompactionReport):
        with self.storage.oss.meter(report.breakdown):
            self.storage.containers.write(builder)
        report.new_container_ids.append(builder.container_id)
        return self.storage.containers.new_builder(self.config.container_bytes)
