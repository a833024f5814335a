"""Baseline restore caches: LRU, OPT (LAW container cache), FAA, ALACC.

These are the restore-side comparators of Fig 8.  All of them walk the same
recipe chunk sequence against the same container store as SLIMSTORE's
full-vision cache, so differences in containers-read and throughput come
from the replacement policies alone:

* **LRU** — container-granular least-recently-used.
* **OPT cache** — container-granular with Belady's policy *limited to a
  look-ahead window* (Fu et al.): evict the container whose next use in the
  LAW is farthest (or absent).
* **FAA** — Lillibridge et al.'s forward assembly area: restore in
  FAA-sized batches, reading each needed container once per batch, copying
  chunks straight into place with no cache at all.
* **ALACC** — Cao et al.: FAA plus a chunk-based cache whose vision is the
  look-ahead window.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.container import ContainerStore
from repro.core.recipe import ChunkRecord
from repro.errors import RestoreError
from repro.sim.cost_model import CostModel
from repro.sim.events import simulate_restore_pipeline
from repro.sim.metrics import Counters, TimeBreakdown


@dataclass
class BaselineRestoreResult:
    """What one baseline restore run produced and observed."""

    data: bytes
    breakdown: TimeBreakdown
    counters: Counters
    prefetch_threads: int
    #: Per-read durations, the read each record waits on (-1: cache hit),
    #: and per-record CPU — the trace replayed by the event pipeline.
    read_seconds: tuple[float, ...] = ()
    record_reads: tuple[int, ...] = ()
    record_cpu: tuple[float, ...] = ()

    @property
    def containers_read(self) -> int:
        """Container reads issued against OSS (repeats included)."""
        return self.counters.get("containers_read")

    @property
    def read_amplification(self) -> float:
        """OSS bytes read per restored byte."""
        if not self.data:
            return 0.0
        return self.counters.get("container_bytes_read") / len(self.data)

    @property
    def containers_per_100mb(self) -> float:
        """Containers read per 100 MB restored (Fig 8's metric)."""
        if not self.data:
            return 0.0
        return self.containers_read * (100 * (1 << 20)) / len(self.data)

    @property
    def elapsed_seconds(self) -> float:
        """Virtual duration under the prefetching model.

        The recorded read/CPU trace runs through the same event-driven
        pipeline as SLIMSTORE's restore, so Fig 8(d) compares systems
        under identical scheduling physics (startup/tail transients
        included); with 0 threads every read stalls the consumer.
        """
        return simulate_restore_pipeline(
            self.read_seconds,
            self.record_reads,
            self.record_cpu,
            self.prefetch_threads,
        ).elapsed_seconds

    @property
    def throughput_mb_s(self) -> float:
        """Restore throughput in MB/s."""
        elapsed = self.elapsed_seconds
        if elapsed == 0:
            return 0.0
        return len(self.data) / elapsed / (1 << 20)


class _BaselineRestorer:
    """Shared machinery: charged container reads and result assembly."""

    def __init__(
        self,
        containers: ContainerStore,
        cost_model: CostModel | None = None,
        prefetch_threads: int = 0,
    ) -> None:
        self.containers = containers
        self.cost_model = cost_model or CostModel()
        self.prefetch_threads = prefetch_threads
        self.breakdown = TimeBreakdown()
        self.counters = Counters()
        self._read_trace: list[float] = []
        self._record_reads: list[int] = []
        self._record_cpu: list[float] = []
        self._pending_read: int | None = None

    def _read_container(self, container_id: int):
        """One charged whole-container read returning (meta, payload)."""
        with self.containers.oss.meter(self.breakdown) as meter:
            payload = self.containers.read_data(container_id)
            meta = self.containers.read_meta(container_id, piggyback=True)
        self.counters.add("containers_read")
        self.counters.add("container_bytes_read", len(payload))
        self._read_trace.append(meter.read_seconds)
        self._pending_read = len(self._read_trace) - 1
        return meta, payload

    def _charge_restore(self, nbytes: int) -> None:
        cpu = self.cost_model.cpu_restore_per_byte * nbytes
        self.breakdown.charge("other", cpu)
        # Close the record for the pipeline trace: it waits on the read
        # issued while assembling it, or none (a cache hit).
        read, self._pending_read = self._pending_read, None
        self._record_reads.append(read if read is not None else -1)
        self._record_cpu.append(cpu)

    def _result(self, data: bytes) -> BaselineRestoreResult:
        return BaselineRestoreResult(
            data=data,
            breakdown=self.breakdown,
            counters=self.counters,
            prefetch_threads=self.prefetch_threads,
            read_seconds=tuple(self._read_trace),
            record_reads=tuple(self._record_reads),
            record_cpu=tuple(self._record_cpu),
        )

    @staticmethod
    def _chunk_from(meta, payload: bytes, fp: bytes) -> bytes:
        entry = meta.find(fp)
        if entry is None or entry.deleted:
            raise RestoreError(
                f"chunk {fp.hex()[:12]} not found in container {meta.container_id}"
            )
        return payload[entry.offset : entry.offset + entry.size]


class LRUContainerRestorer(_BaselineRestorer):
    """Container-granular LRU cache."""

    def __init__(
        self,
        containers: ContainerStore,
        cache_containers: int,
        cost_model: CostModel | None = None,
        prefetch_threads: int = 0,
    ) -> None:
        super().__init__(containers, cost_model, prefetch_threads)
        if cache_containers < 1:
            raise ValueError("cache must hold at least one container")
        self.cache_containers = cache_containers

    def restore(self, records: list[ChunkRecord]) -> BaselineRestoreResult:
        """Restore the record sequence through an LRU container cache."""
        cache: OrderedDict[int, tuple] = OrderedDict()
        output = bytearray()
        for record in records:
            cid = record.container_id
            if cid in cache:
                cache.move_to_end(cid)
                self.counters.add("cache_hits")
            else:
                cache[cid] = self._read_container(cid)
                if len(cache) > self.cache_containers:
                    cache.popitem(last=False)
            meta, payload = cache[cid]
            chunk = self._chunk_from(meta, payload, record.fp)
            output += chunk
            self._charge_restore(len(chunk))
        return self._result(bytes(output))


class OPTCacheRestorer(_BaselineRestorer):
    """Belady's policy limited to a look-ahead window, container-granular.

    The OPT cache of HAR (Fu et al.): on eviction, discard the cached
    container whose next reference inside the LAW is farthest away;
    containers not referenced in the LAW at all go first.  Fragments beyond
    the window are invisible — the weakness the FV cache removes.
    """

    def __init__(
        self,
        containers: ContainerStore,
        cache_containers: int,
        law_records: int = 512,
        cost_model: CostModel | None = None,
        prefetch_threads: int = 0,
    ) -> None:
        super().__init__(containers, cost_model, prefetch_threads)
        if cache_containers < 1:
            raise ValueError("cache must hold at least one container")
        self.cache_containers = cache_containers
        self.law_records = law_records

    def restore(self, records: list[ChunkRecord]) -> BaselineRestoreResult:
        """Restore the record sequence through the OPT container cache."""
        cache: dict[int, tuple] = {}
        output = bytearray()
        for index, record in enumerate(records):
            cid = record.container_id
            if cid in cache:
                self.counters.add("cache_hits")
            else:
                payload_pair = self._read_container(cid)
                if len(cache) >= self.cache_containers:
                    self._evict(cache, records, index)
                cache[cid] = payload_pair
            meta, payload = cache[cid]
            chunk = self._chunk_from(meta, payload, record.fp)
            output += chunk
            self._charge_restore(len(chunk))
        return self._result(bytes(output))

    def _evict(self, cache: dict[int, tuple], records: list[ChunkRecord], index: int) -> None:
        window = records[index : index + self.law_records]
        next_use: dict[int, int] = {}
        for distance, record in enumerate(window):
            next_use.setdefault(record.container_id, distance)
        victim = max(
            cache,
            key=lambda cid: next_use.get(cid, self.law_records + 1),
        )
        del cache[victim]
        self.counters.add("evictions")


class FAARestorer(_BaselineRestorer):
    """Forward assembly area: batch restore with no cache."""

    def __init__(
        self,
        containers: ContainerStore,
        faa_bytes: int,
        cost_model: CostModel | None = None,
        prefetch_threads: int = 0,
    ) -> None:
        super().__init__(containers, cost_model, prefetch_threads)
        if faa_bytes <= 0:
            raise ValueError("FAA must have positive capacity")
        self.faa_bytes = faa_bytes

    def _batches(self, records: list[ChunkRecord]):
        batch: list[ChunkRecord] = []
        batch_bytes = 0
        for record in records:
            if batch and batch_bytes + record.size > self.faa_bytes:
                yield batch
                batch, batch_bytes = [], 0
            batch.append(record)
            batch_bytes += record.size
        if batch:
            yield batch

    def restore(self, records: list[ChunkRecord]) -> BaselineRestoreResult:
        """Restore through FAA batches: one read per container per batch."""
        output = bytearray()
        for batch in self._batches(records):
            loaded: dict[int, tuple] = {}
            for record in batch:
                if record.container_id not in loaded:
                    loaded[record.container_id] = self._read_container(record.container_id)
                meta, payload = loaded[record.container_id]
                chunk = self._chunk_from(meta, payload, record.fp)
                output += chunk
                self._charge_restore(len(chunk))
        return self._result(bytes(output))


class ALACCRestorer(_BaselineRestorer):
    """FAA plus a LAW-limited chunk cache (Cao et al., FAST'18).

    Chunks read for one batch that the look-ahead window says will be used
    again are kept in a byte-bounded chunk cache; anything whose next use
    lies beyond the window is invisible and gets evicted — which is exactly
    where the full-vision cache wins (Fig 8).
    """

    def __init__(
        self,
        containers: ContainerStore,
        faa_bytes: int,
        chunk_cache_bytes: int,
        law_records: int = 512,
        cost_model: CostModel | None = None,
        prefetch_threads: int = 0,
    ) -> None:
        super().__init__(containers, cost_model, prefetch_threads)
        if faa_bytes <= 0 or chunk_cache_bytes <= 0:
            raise ValueError("FAA and chunk cache need positive capacity")
        self.faa_bytes = faa_bytes
        self.chunk_cache_bytes = chunk_cache_bytes
        self.law_records = law_records

    def restore(self, records: list[ChunkRecord]) -> BaselineRestoreResult:
        """Restore through FAA batches backed by the LAW chunk cache."""
        chunk_cache: OrderedDict[bytes, bytes] = OrderedDict()
        cache_used = 0
        output = bytearray()
        position = 0
        batch: list[ChunkRecord] = []
        batch_bytes = 0

        def law_fps(start: int) -> set[bytes]:
            return {r.fp for r in records[start : start + self.law_records]}

        for index, record in enumerate(records):
            if batch and batch_bytes + record.size > self.faa_bytes:
                cache_used = self._run_batch(
                    batch, chunk_cache, cache_used, law_fps(index), output
                )
                batch, batch_bytes = [], 0
            batch.append(record)
            batch_bytes += record.size
            position = index
        if batch:
            cache_used = self._run_batch(
                batch, chunk_cache, cache_used, law_fps(position + 1), output
            )
        return self._result(bytes(output))

    def _run_batch(
        self,
        batch: list[ChunkRecord],
        chunk_cache: OrderedDict[bytes, bytes],
        cache_used: int,
        upcoming: set[bytes],
        output: bytearray,
    ) -> int:
        loaded: dict[int, tuple] = {}
        for record in batch:
            chunk = chunk_cache.get(record.fp)
            if chunk is not None:
                chunk_cache.move_to_end(record.fp)
                self.counters.add("chunk_cache_hits")
            else:
                if record.container_id not in loaded:
                    loaded[record.container_id] = self._read_container(record.container_id)
                meta, payload = loaded[record.container_id]
                chunk = self._chunk_from(meta, payload, record.fp)
                if record.fp in upcoming:
                    chunk_cache[record.fp] = chunk
                    cache_used += len(chunk)
                    while cache_used > self.chunk_cache_bytes and chunk_cache:
                        _, evicted = chunk_cache.popitem(last=False)
                        cache_used -= len(evicted)
                        self.counters.add("chunk_evictions")
            output += chunk
            self._charge_restore(len(chunk))
        return cache_used
