"""Online restoration on the L-node (Section V).

The restore job loads the target recipe, precomputes the container access
schedule with :class:`~repro.core.restore_plan.RestorePlanner`, and restores
through the full-vision cache, which counts every fingerprint's remaining
references exactly (the paper's counting Bloom filter approximates those
counts to bound memory; the resolved recipe is in memory here anyway).  In
ranged mode only the planned chunk extents cross the wire (coalesced ranged
GETs); in whole-container mode the seed access pattern is preserved exactly.

Job duration comes from the event-driven LAW prefetch pipeline
(:func:`repro.sim.events.simulate_restore_pipeline`), the one restore
clock: ``prefetch_threads`` channels issue the planned reads ahead of the
consumer, which blocks only when the read holding its next chunk has not
completed.  Every result carries its pipeline, an empty restore's
included (its duration is the serial recipe fetch).

Chunks of old versions may have been moved by reverse deduplication or
sparse container compaction; when a recipe's container no longer holds a
fingerprint, the job redirects through the global index (Section VI-A:
"may cause extra query of the global index ... when restoring old
versions").  Ranged mode resolves those redirects at plan time; whole mode
discovers them lazily at consume time, as the seed did.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.config import SlimStoreConfig
from repro.core.recipe import ChunkRecord
from repro.core.restore_cache import FullVisionCache, LookAheadWindow
from repro.core.restore_plan import (
    RANGED_READ_GAP_BYTES,
    PlannedRead,
    RestorePlan,
    RestorePlanner,
)
from repro.core.storage import StorageLayer
from repro.errors import IntegrityError, RestoreError
from repro.fingerprint.hashing import fingerprint
from repro.sim.cost_model import CostModel
from repro.sim.events import PipelineStats, simulate_restore_pipeline
from repro.sim.metrics import Counters, TimeBreakdown

#: Look-ahead window length in chunk records.
LAW_WINDOW_RECORDS = 512


@dataclass
class RestoreResult:
    """The restored stream plus everything the job observed."""

    path: str
    version: int
    data: bytes
    breakdown: TimeBreakdown
    counters: Counters
    prefetch_threads: int
    #: Event-simulated pipeline outcome.
    pipeline: PipelineStats
    #: Whether the job used ranged container reads.
    ranged: bool = False
    #: Serial prefix paid before the pipeline: recipe fetch + planning.
    setup_seconds: float = 0.0
    #: Measured duration of each container read, in issue order.
    read_seconds: list[float] = field(default_factory=list)
    #: Per record: index into ``read_seconds`` it triggered (-1: none).
    record_reads: list[int] = field(default_factory=list)
    #: Per record: CPU seconds spent verifying and splicing.
    record_cpu: list[float] = field(default_factory=list)
    #: Per record: synchronous demand-read seconds (redirects, evictions).
    demand_seconds: list[float] = field(default_factory=list)

    @property
    def logical_bytes(self) -> int:
        """Restored payload size."""
        return len(self.data)

    @property
    def containers_read(self) -> int:
        """Distinct container reads issued against OSS."""
        return self.counters.get("containers_read")

    @property
    def degraded_chunk_reads(self) -> int:
        """Chunks healed through the durability tier after a failed verify."""
        return self.counters.get("degraded_chunk_reads")

    @property
    def read_amplification(self) -> float:
        """OSS bytes read per restored byte."""
        if not self.data:
            return 0.0
        return self.counters.get("container_bytes_read") / len(self.data)

    @property
    def containers_per_100mb(self) -> float:
        """Containers read per 100 MB restored (the paper's Fig 8 metric)."""
        if not self.data:
            return 0.0
        return self.containers_read * (100 * (1 << 20)) / len(self.data)

    @property
    def elapsed_seconds(self) -> float:
        """Virtual job duration from the event-driven pipeline."""
        return self.pipeline.elapsed_seconds

    @property
    def throughput_mb_s(self) -> float:
        """Restore throughput in MB/s."""
        elapsed = self.elapsed_seconds
        if elapsed == 0:
            return 0.0
        return len(self.data) / elapsed / (1 << 20)


class RestoreEngine:
    """One L-node restore job."""

    def __init__(
        self,
        config: SlimStoreConfig,
        storage: StorageLayer,
        cost_model: CostModel | None = None,
    ) -> None:
        self.config = config
        self.storage = storage
        self.cost_model = cost_model or CostModel()
        self._fingerprint = getattr(storage, "fingerprinter", fingerprint)

    def restore(
        self,
        path: str,
        version: int,
        prefetch_threads: int | None = None,
        verify: bool | None = None,
        ranged: bool = True,
    ) -> RestoreResult:
        """Reassemble one backup version from OSS.

        ``ranged`` reads only the planned chunk extents of each container
        (coalesced ranged GETs); False downloads whole data objects.
        """
        threads = self.config.prefetch_threads if prefetch_threads is None else prefetch_threads
        check = self.config.verify_restore if verify is None else verify
        breakdown = TimeBreakdown()
        counters = Counters()

        with self.storage.oss.meter(breakdown) as recipe_meter:
            recipe = self.storage.recipes.get_recipe(path, version)
        recipe_seconds = recipe_meter.read_seconds

        records = recipe.all_records()
        if not records:
            pipeline = simulate_restore_pipeline(
                [], [], [], threads, setup_seconds=recipe_seconds
            )
            return RestoreResult(
                path, version, b"", breakdown, counters, threads, pipeline,
                ranged=ranged, setup_seconds=recipe_seconds,
            )

        planner = RestorePlanner(self.storage, self.cost_model)
        plan = planner.plan(records, ranged, RANGED_READ_GAP_BYTES, breakdown, counters)
        if plan.planned_degraded_reads:
            counters.add("planned_degraded_reads", plan.planned_degraded_reads)
        setup_seconds = recipe_seconds + plan.plan_seconds

        law = LookAheadWindow(plan.resolved, LAW_WINDOW_RECORDS)
        cache = FullVisionCache(
            self.config.restore_cache_bytes,
            self.config.restore_disk_cache_bytes,
            law,
        )

        output = bytearray()
        containers_seen: set[int] = set()
        read_seconds: list[float] = []
        record_reads = [-1] * len(plan.resolved)
        record_cpu = [0.0] * len(plan.resolved)
        demand_seconds = [0.0] * len(plan.resolved)
        for index, record in enumerate(plan.resolved):
            data = cache.lookup(record.fp)
            if data is None:
                read_index = plan.read_for_record[index]
                if read_index >= 0:
                    seconds = self._execute_planned_read(
                        plan, plan.reads[read_index], cache,
                        containers_seen, breakdown, counters,
                    )
                    if seconds is not None:
                        record_reads[index] = len(read_seconds)
                        read_seconds.append(seconds)
                        data = cache.peek(record.fp)
                if data is None:
                    data, demand = self._demand_fetch(
                        record,
                        record_reads[index] >= 0,
                        cache,
                        containers_seen,
                        breakdown,
                        counters,
                    )
                    demand_seconds[index] += demand
            cpu = 0.0
            if check:
                cpu += self.cost_model.fingerprint_cost(len(data))
                if self._fingerprint(data) != record.fp:
                    healed, heal_seconds = self._heal_chunk(
                        record, breakdown, counters
                    )
                    demand_seconds[index] += heal_seconds
                    if healed is None:
                        raise IntegrityError(
                            f"chunk fingerprint mismatch restoring {path}@v{version} "
                            f"(record {index})"
                        )
                    data = healed
                    cache.replace(record.fp, data)
                    cpu += self.cost_model.fingerprint_cost(len(data))
            output += data
            cpu += self.cost_model.cpu_restore_per_byte * len(data)
            breakdown.charge("other", cpu)
            record_cpu[index] = cpu
            cache.consume(record.fp)
            law.advance_past(index)

        counters.counts.update(cache.counters.counts)
        pipeline = simulate_restore_pipeline(
            read_seconds,
            record_reads,
            record_cpu,
            threads,
            demand_seconds=demand_seconds,
            setup_seconds=setup_seconds,
        )
        counters.add("prefetch_stalls", pipeline.stall_count)
        return RestoreResult(
            path,
            version,
            bytes(output),
            breakdown,
            counters,
            threads,
            pipeline,
            ranged=ranged,
            setup_seconds=setup_seconds,
            read_seconds=read_seconds,
            record_reads=record_reads,
            record_cpu=record_cpu,
            demand_seconds=demand_seconds,
        )

    # ------------------------------------------------------------------
    def _heal_chunk(
        self,
        record: ChunkRecord,
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> tuple[bytes | None, float]:
        """Re-fetch a verify-failed chunk through the durability tier.

        A fingerprint mismatch at splice time means the bytes went bad in
        flight or at rest.  With a durability tier the chunk is re-read
        from a replica (or decoded from its erasure stripe) instead of
        failing the restore — a *degraded read*, charged to the virtual
        cost model as synchronous demand time the consumer blocked on.
        Returns ``(payload, seconds)``; payload is None when no healthy
        copy exists (the caller then raises :class:`IntegrityError`).
        """
        durability = self.storage.durability
        if durability is None:
            return None, 0.0
        failovers_before = durability.replica_failovers
        decodes_before = durability.erasure_decodes
        with self.storage.oss.meter(breakdown) as meter:
            data = durability.fetch_chunk(record.container_id, record.fp)
            if data is None:
                # The chunk may have moved homes (reverse dedup / SCC):
                # heal from the current owner's durability copies instead.
                owner = self.storage.global_index.lookup(record.fp)
                if owner is not None and owner != record.container_id:
                    data = durability.fetch_chunk(owner, record.fp)
        if data is None or self._fingerprint(data) != record.fp:
            return None, meter.read_seconds
        counters.add("degraded_chunk_reads")
        counters.add(
            "replica_failovers", durability.replica_failovers - failovers_before
        )
        counters.add("erasure_decodes", durability.erasure_decodes - decodes_before)
        return data, meter.read_seconds

    def _execute_planned_read(
        self,
        plan: RestorePlan,
        planned: PlannedRead,
        cache: FullVisionCache,
        containers_seen: set[int],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> float | None:
        """Issue one scheduled container read; returns its duration.

        Returns None (nothing read, nothing charged) when a whole-mode
        plan references a container that no longer exists — the demand
        path then redirects through the global index, as the seed did.
        """
        cid = planned.container_id
        if not self.storage.containers.exists(cid):
            return None
        with self.storage.oss.meter(breakdown) as meter:
            if planned.spans is None:
                payload = self.storage.containers.read_data(cid)
                meta = self.storage.containers.read_meta(cid, piggyback=True)
                cache.insert_container(meta, payload)
                counters.add("container_bytes_read", len(payload))
            else:
                spans = [(span.offset, span.length) for span in planned.spans]
                payloads = [
                    data for _, data in self.storage.containers.read_spans(cid, spans)
                ]
                self._insert_span_chunks(plan.metas[cid], planned, payloads, cache)
                counters.add("container_bytes_read", planned.planned_bytes)
                counters.add("ranged_reads", len(spans))
                counters.add("ranged_bytes_saved", planned.bytes_saved)
        counters.add("containers_read")
        if cid in containers_seen:
            counters.add("repeated_container_reads")
        containers_seen.add(cid)
        return meter.read_seconds

    @staticmethod
    def _insert_span_chunks(
        meta, planned: PlannedRead, payloads: list[bytes], cache: FullVisionCache
    ) -> None:
        """Cache every chunk fully covered by the fetched spans."""
        spans = planned.spans
        starts = [span.offset for span in spans]
        for entry in meta.live_lookup_entries():
            position = bisect_right(starts, entry.offset) - 1
            if position < 0:
                continue
            span = spans[position]
            if entry.offset + entry.size > span.end:
                continue
            base = entry.offset - span.offset
            cache.insert_chunk(entry.fp, payloads[position][base : base + entry.size])

    def _demand_fetch(
        self,
        record: ChunkRecord,
        container_just_read: bool,
        cache: FullVisionCache,
        containers_seen: set[int],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> tuple[bytes, float]:
        """Synchronous fallback when the planned read did not yield the chunk.

        Covers two cases: the chunk moved out of its recorded container
        (whole mode discovers redirects here) and a previously read chunk
        was evicted from both cache layers (a repeated container read).
        Returns the payload and the virtual seconds the consumer blocked.
        """
        redirects_before = counters.get("global_index_redirects")
        with self.storage.oss.meter() as meter:
            if container_just_read:
                # The planned read just completed and the chunk was not in
                # it: go straight to the global index instead of re-reading.
                data = self._redirect(record, cache, containers_seen, breakdown, counters)
            else:
                data = self._fetch_for(record, cache, containers_seen, breakdown, counters)
        demand = meter.read_seconds + self.cost_model.cpu_index_query * (
            counters.get("global_index_redirects") - redirects_before
        )
        return data, demand

    def _fetch_for(
        self,
        record: ChunkRecord,
        cache: FullVisionCache,
        containers_seen: set[int],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> bytes:
        """Read the record's container (redirecting if the chunk moved)."""
        data = self._read_container(
            record.container_id, record.fp, cache, containers_seen, breakdown, counters
        )
        if data is not None:
            return data
        return self._redirect(record, cache, containers_seen, breakdown, counters)

    def _redirect(
        self,
        record: ChunkRecord,
        cache: FullVisionCache,
        containers_seen: set[int],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> bytes:
        """Locate a moved chunk through the global index and read it.

        The chunk is gone from its recorded container: reverse dedup or
        SCC moved it.  The global index knows the current owner.
        """
        counters.add("global_index_redirects")
        breakdown.charge("index_query", self.cost_model.cpu_index_query)
        with self.storage.oss.meter(breakdown):
            owner = self.storage.global_index.lookup(record.fp)
        if owner is None:
            raise RestoreError(
                f"chunk {record.fp.hex()[:12]} missing from container "
                f"{record.container_id} and unknown to the global index"
            )
        data = self._read_container(
            owner, record.fp, cache, containers_seen, breakdown, counters
        )
        if data is None:
            raise RestoreError(
                f"global index points chunk {record.fp.hex()[:12]} at container "
                f"{owner}, which does not hold it"
            )
        return data

    def _read_container(
        self,
        container_id: int,
        fp: bytes,
        cache: FullVisionCache,
        containers_seen: set[int],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> bytes | None:
        """Whole-container read; inserts useful chunks into the cache."""
        if not self.storage.containers.exists(container_id):
            return None
        with self.storage.oss.meter(breakdown):
            payload = self.storage.containers.read_data(container_id)
            meta = self.storage.containers.read_meta(container_id, piggyback=True)
        counters.add("containers_read")
        counters.add("container_bytes_read", len(payload))
        if container_id in containers_seen:
            counters.add("repeated_container_reads")
        containers_seen.add(container_id)

        cache.insert_container(meta, payload)
        entry = meta.find(fp)
        if entry is None or entry.deleted:
            return None
        return payload[entry.offset : entry.offset + entry.size]
