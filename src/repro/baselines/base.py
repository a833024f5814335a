"""What every backup baseline shares: result, chunk stream, container packer.

Fig 7 and the exact-vs-fast ablation compare *lookup strategies*; the
comparison is fair only if chunking, hashing, container packing and
network accounting are the same code for every system.  They live here
once.  :class:`ContainerBaseline` is the scaffold of the three
container-packing systems (DDFS, SiLO, Sparse Indexing): a subclass
implements :meth:`ContainerBaseline._deduplicate` — its lookup strategy —
and nothing else.  restic keeps its own pack layout and reuses only the
result type and :func:`chunk_stream`, and meters OSS time the same way,
through ``oss.meter(breakdown)``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.baselines.recipes import Entry, VersionRecipes
from repro.chunking.base import Chunker, make_chunker
from repro.core.config import SlimStoreConfig
from repro.core.container import ContainerStore
from repro.fingerprint.hashing import fingerprint
from repro.oss.object_store import ObjectStorageService
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown

#: One chunk of the input stream: (fingerprint, payload).
Chunk = tuple[bytes, bytes]


@dataclass
class BaselineBackupResult:
    """One baseline backup job's accounting."""

    logical_bytes: int
    stored_chunk_bytes: int
    breakdown: TimeBreakdown
    counters: Counters

    @property
    def dedup_ratio(self) -> float:
        """Fraction of logical bytes eliminated."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.stored_chunk_bytes / self.logical_bytes

    @property
    def throughput_mb_s(self) -> float:
        """Deduplication throughput in MB/s."""
        elapsed = self.breakdown.elapsed_pipelined()
        if elapsed == 0:
            return 0.0
        return self.logical_bytes / elapsed / (1 << 20)


def chunk_stream(
    chunker: Chunker, cost_model: CostModel, data: bytes, breakdown: TimeBreakdown
) -> Iterator[Chunk]:
    """Cut ``data`` into chunks, charging chunking and hashing per chunk."""
    boundaries = chunker.boundaries(data)
    position = 0
    while position < len(data):
        end = boundaries.next_cut(position)
        chunk = data[position:end]
        breakdown.charge("chunking", cost_model.chunking_cost(chunker.name, len(chunk)))
        breakdown.charge("fingerprinting", cost_model.fingerprint_cost(len(chunk)))
        yield fingerprint(chunk), chunk
        position = end


class ContainerBaseline:
    """A baseline that packs unique chunks into containers on OSS.

    :meth:`backup` sets up one job's accounting and container builder,
    runs the subclass's :meth:`_deduplicate`, then flushes the tail and
    records the version's recipe.  The subclass classifies chunks and
    hands every unique one to :meth:`_store`.
    """

    def __init__(
        self,
        oss: ObjectStorageService,
        config: SlimStoreConfig | None,
        cost_model: CostModel | None,
        bucket: str,
    ) -> None:
        self.config = config or SlimStoreConfig()
        self.cost_model = cost_model or CostModel()
        self.oss = oss
        self.bucket = bucket
        oss.create_bucket(bucket)
        self.containers = ContainerStore(oss, bucket)
        self.recipes = VersionRecipes(self.containers)
        self._chunker = make_chunker(self.config.chunker, self.config.chunker_params())

    def backup(self, path: str, data: bytes) -> BaselineBackupResult:
        """Deduplicate one file stream and record it as ``path``'s next version."""
        self._breakdown = TimeBreakdown()
        self._counters = Counters()
        self._builder = self.containers.new_builder(self.config.container_bytes)
        self._stored = 0
        # Chunks this job stored: fp -> (container id, size).
        self._local: dict[bytes, tuple[int, int]] = {}
        recipe = self._deduplicate(data)
        if not self._builder.is_empty():
            self._flush()
        self._counters.add("logical_bytes", len(data))
        self.recipes.record(path, recipe)
        return BaselineBackupResult(
            len(data), self._stored, self._breakdown, self._counters
        )

    def restore(self, path: str, version: int | None = None) -> bytes:
        """Replay a version's recipe byte-for-byte (default: latest)."""
        return self.recipes.restore(path, version)

    def stored_bytes(self) -> int:
        """Container payload bytes stored (free)."""
        return self.containers.stored_bytes()

    # --- for subclasses ----------------------------------------------------
    def _deduplicate(self, data: bytes) -> list[Entry]:
        """The lookup strategy: classify every chunk, return the recipe."""
        raise NotImplementedError

    def _segments(self, data: bytes) -> Iterator[list[Chunk]]:
        """The chunk stream grouped into segments of ``segment_bytes`` or more."""
        segment: list[Chunk] = []
        size = 0
        for fp, chunk in chunk_stream(self._chunker, self.cost_model, data, self._breakdown):
            segment.append((fp, chunk))
            size += len(chunk)
            if size >= self.config.segment_bytes:
                yield segment
                segment, size = [], 0
        if segment:
            yield segment

    def _dedup_segment(
        self, chunks: list[Chunk], cache: dict[bytes, tuple[int, int]]
    ) -> list[Entry]:
        """Classify one segment against this job's chunks and ``cache``."""
        entries: list[Entry] = []
        for fp, chunk in chunks:
            self._breakdown.charge("index_query", self.cost_model.cpu_index_query)
            known = self._local.get(fp) or cache.get(fp)
            if known is None:
                known = self._local[fp] = (self._store(fp, chunk), len(chunk))
            else:
                self._counters.add("dup_chunks")
            entries.append((fp, known[0], len(chunk)))
        return entries

    def _store(self, fp: bytes, chunk: bytes) -> int:
        """Pack one unique chunk; returns the id of its container."""
        if self._builder.is_full():
            self._flush()
        self._builder.add_chunk(fp, chunk)
        self._stored += len(chunk)
        self._breakdown.charge("other", self.cost_model.cpu_other_per_byte * len(chunk))
        self._counters.add("unique_chunks")
        return self._builder.container_id

    def _flush(self) -> None:
        with self.oss.meter(self._breakdown):
            self.containers.write(self._builder)
        self._counters.add("containers_written")
        self._builder = self.containers.new_builder(self.config.container_bytes)
