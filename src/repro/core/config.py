"""Every SLIMSTORE tunable in one frozen dataclass.

Defaults follow the paper's evaluation setup: 4 KB average chunks cut by
FastCDC, history-aware skip chunking and chunk merging enabled with a merge
threshold of 5 (Fig 7), a 30% sparse-container utilisation threshold and a
20% container rewrite threshold (Sections V-B, VI-A), and six prefetch
threads (Table II).  Sizes are scaled down from production values so the
simulation runs comfortably on one machine; every experiment states its own
overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.chunking.base import ChunkerParams
from repro.chunking.superchunk import MergePolicy
from repro.core.durability import ReplicationPolicy

#: mod-R sampling ratio for recipe-index samples, before
#: :meth:`SlimStoreConfig.effective_sample_ratio` shrinks it for large chunks.
_SAMPLE_RATIO = 16


@dataclass(frozen=True)
class SlimStoreConfig:
    """Configuration of one SLIMSTORE deployment."""

    # --- chunking ----------------------------------------------------------
    #: CDC algorithm on the L-node: "fastcdc", "rabin", "gear" or "fixed".
    chunker: str = "fastcdc"
    #: Average chunk size in bytes (min/max derived as avg/4 and avg*8).
    chunk_avg_size: int = 4096
    #: History-aware skip chunking (Section IV-B).
    skip_chunking: bool = True
    #: History-aware chunk merging / SuperChunking (Section IV-C).
    chunk_merging: bool = True
    #: duplicateTimes threshold that triggers merging.
    merge_threshold: int = 5
    #: Superchunk size band.
    min_superchunk_bytes: int = 64 * 1024
    max_superchunk_bytes: int = 512 * 1024

    # --- segmenting & sampling ----------------------------------------------
    #: Logical bytes per segment (a segment recipe is the prefetch unit).
    segment_bytes: int = 128 * 1024
    #: Consecutive segment recipes fetched per prefetch request (they are
    #: contiguous in the recipe object, so a span is one ranged GET).
    prefetch_segment_span: int = 4
    #: Bytes of file header chunked to find a similar file when the name
    #: lookup fails (Section IV-A, step 1).
    header_probe_bytes: int = 256 * 1024

    # --- containers -----------------------------------------------------------
    #: Container payload capacity in bytes.
    container_bytes: int = 512 * 1024

    # --- restore ----------------------------------------------------------------
    #: In-memory restore cache capacity (bytes of chunk payload).
    restore_cache_bytes: int = 8 * 1024 * 1024
    #: On-disk (L-node local) second cache layer capacity.
    restore_disk_cache_bytes: int = 64 * 1024 * 1024
    #: Parallel OSS prefetch channels (0 disables prefetching).
    prefetch_threads: int = 6
    #: Verify each restored chunk against its fingerprint.
    verify_restore: bool = True

    # --- browse (write-back block cache + random-access reads) ------------------
    #: Fixed block size of the L-node browse cache.  Blocks are the unit
    #: of caching, dirty tracking and readahead; 64 KiB keeps a block a
    #: handful of average chunks so a random read touches few extents.
    browse_block_bytes: int = 64 * 1024
    #: Memory tier capacity of the browse block cache (bytes).
    browse_cache_memory_bytes: int = 4 * 1024 * 1024
    #: Disk tier capacity (L-node local) the memory tier demotes into.
    browse_cache_disk_bytes: int = 32 * 1024 * 1024
    #: Adjacent blocks fetched alongside a missed block (FullVision-style
    #: readahead over the recipe's extent order).  0 disables readahead.
    browse_readahead_blocks: int = 2

    # --- G-node ------------------------------------------------------------------
    #: Exact (reverse) deduplication offline.
    reverse_dedup: bool = True
    #: Sparse container compaction offline.
    sparse_compaction: bool = True
    #: Container utilisation below this is "sparse" (paper: e.g. 30%).
    sparse_utilization_threshold: float = 0.30
    #: Rewrite a container once this fraction of chunks is deleted.
    container_rewrite_threshold: float = 0.20
    #: Deletion epochs a collected container stays readable behind its
    #: tombstone before deep_clean reaps it (two-phase deletion).  0
    #: deletes immediately — the behaviour every space figure assumes —
    #: while a positive grace shields restores planned against
    #: pre-maintenance metadata from ObjectNotFoundError mid-read.
    tombstone_grace_epochs: int = 0

    # --- global index sharding & batching -------------------------------------
    #: Independent global-index shards (LSM stores keyed by fp prefix).
    index_shard_count: int = 4
    #: Fingerprints grouped into one batched index round trip.
    index_batch_size: int = 256

    # --- durability tier --------------------------------------------------------
    #: Heat-aware replication/erasure over container payloads (FASTEN-style:
    #: the most-shared containers get the most copies).  None (the default)
    #: leaves the tier off — every space figure assumes single-copy
    #: containers.  The policy validates its own geometry.
    durability: ReplicationPolicy | None = None

    # --- wall-clock execution engine -------------------------------------------
    #: Worker threads for the parallel execution engine (scan +
    #: fingerprint fan-out only; OSS requests stay on the caller's
    #: thread).  0 builds no engine; any N >= 1 is byte-identical to it.
    workers: int = 0
    #: Chunk fingerprint algorithm: "sha1" (default) or "blake2b".  Pinned
    #: per repository — digests from different algorithms never match.
    fingerprint_algo: str = "sha1"

    def __post_init__(self) -> None:
        if self.chunk_avg_size & (self.chunk_avg_size - 1):
            raise ValueError(f"chunk_avg_size must be a power of two: {self.chunk_avg_size}")
        if self.segment_bytes < self.chunk_avg_size:
            raise ValueError("segment_bytes must be at least one average chunk")
        if self.container_bytes < self.chunk_avg_size:
            raise ValueError("container_bytes must hold at least one average chunk")
        if not 0.0 < self.sparse_utilization_threshold < 1.0:
            raise ValueError("sparse_utilization_threshold must be in (0, 1)")
        if not 0.0 < self.container_rewrite_threshold < 1.0:
            raise ValueError("container_rewrite_threshold must be in (0, 1)")
        if self.prefetch_threads < 0:
            raise ValueError("prefetch_threads cannot be negative")
        if self.index_shard_count < 1:
            raise ValueError(f"index_shard_count must be >= 1: {self.index_shard_count}")
        if self.index_batch_size < 1:
            raise ValueError(f"index_batch_size must be >= 1: {self.index_batch_size}")
        if self.workers < 0:
            raise ValueError(f"workers cannot be negative: {self.workers}")
        from repro.fingerprint.hashing import FINGERPRINT_ALGORITHMS

        if self.fingerprint_algo not in FINGERPRINT_ALGORITHMS:
            raise ValueError(
                f"fingerprint_algo must be one of {list(FINGERPRINT_ALGORITHMS)}: "
                f"{self.fingerprint_algo!r}"
            )
        if self.browse_block_bytes < 1:
            raise ValueError(f"browse_block_bytes must be >= 1: {self.browse_block_bytes}")
        if self.browse_cache_memory_bytes < self.browse_block_bytes:
            raise ValueError("browse_cache_memory_bytes must hold at least one block")
        if self.browse_cache_disk_bytes < 0:
            raise ValueError(
                f"browse_cache_disk_bytes cannot be negative: {self.browse_cache_disk_bytes}"
            )
        if self.browse_readahead_blocks < 0:
            raise ValueError(
                f"browse_readahead_blocks cannot be negative: {self.browse_readahead_blocks}"
            )
        if self.tombstone_grace_epochs < 0:
            raise ValueError(
                f"tombstone_grace_epochs cannot be negative: {self.tombstone_grace_epochs}"
            )

    # --- derived views ---------------------------------------------------------------
    def effective_sample_ratio(self) -> int:
        """mod-R ratio adjusted so each segment keeps a few samples.

        The paper samples "in a segment" with an adjustable R; when chunks
        grow (larger ``chunk_avg_size``), a fixed R would leave most
        segments without any sample, so R shrinks to keep roughly four
        samples per segment.
        """
        chunks_per_segment = max(1, self.segment_bytes // self.chunk_avg_size)
        return max(1, min(_SAMPLE_RATIO, chunks_per_segment // 4))

    def chunker_params(self) -> ChunkerParams:
        """Min/avg/max chunk bounds derived from the configured average."""
        return ChunkerParams(
            min_size=max(64, self.chunk_avg_size // 4),
            avg_size=self.chunk_avg_size,
            max_size=self.chunk_avg_size * 8,
        )

    def merge_policy(self) -> MergePolicy:
        """The history-aware chunk merging policy."""
        return MergePolicy(
            enabled=self.chunk_merging,
            threshold=self.merge_threshold,
            min_superchunk_bytes=self.min_superchunk_bytes,
            max_superchunk_bytes=self.max_superchunk_bytes,
        )

    def with_overrides(self, **overrides: Any) -> "SlimStoreConfig":
        """A copy with the given fields replaced (frozen-dataclass update)."""
        return replace(self, **overrides)
