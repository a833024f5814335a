"""SiLO: similarity-locality deduplication (Xia et al., ATC'11).

SiLO groups the backup stream into *segments* (the similarity unit) and
packs consecutive segments into *blocks* (the locality unit).  A small
in-RAM similarity hash table maps each segment's representative
fingerprint to the block holding it; a probe hit loads that whole block of
segment recipes into the dedup cache, so one on-disk (here: on-OSS) access
serves many chunk lookups.

Differences from SLIMSTORE's L-node that Fig 7 measures: no history-aware
skip chunking (every byte is scanned by CDC) and no chunk merging, so the
per-version CPU cost never drops below the chunking + fingerprinting
floor.
"""

from __future__ import annotations

import struct

from repro.baselines.base import ContainerBaseline
from repro.baselines.recipes import Entry
from repro.core.config import SlimStoreConfig
from repro.fingerprint.similarity import representative_fingerprints
from repro.oss.object_store import ObjectStorageService
from repro.sim.cost_model import CostModel

_BLOCK_ENTRY = struct.Struct(">20sQI")  # fp, container id, size


class SiLOSystem(ContainerBaseline):
    """A SiLO deployment over the shared OSS substrate."""

    #: Representative fingerprints probed/registered per segment (min-hash).
    REPRESENTATIVES_PER_SEGMENT = 2

    def __init__(
        self,
        oss: ObjectStorageService,
        config: SlimStoreConfig | None = None,
        segments_per_block: int = 8,
        cost_model: CostModel | None = None,
        bucket: str = "silo",
    ) -> None:
        super().__init__(oss, config, cost_model, bucket)
        self.segments_per_block = segments_per_block
        #: In-RAM similarity hash table: representative fp -> block id.
        self._sh_table: dict[bytes, int] = {}
        self._next_block_id = 0
        self._pending_block: list[list[Entry]] = []

    # --- backup ------------------------------------------------------------
    def _deduplicate(self, data: bytes) -> list[Entry]:
        """Two-phase per segment: chunk and fingerprint the whole segment,
        probe the similarity hash table with its representative (minimum)
        fingerprints, load the matching block of segment recipes, then
        classify every chunk against the dedup cache.
        """
        dedup_cache: dict[bytes, tuple[int, int]] = {}
        recipe: list[Entry] = []
        for chunks in self._segments(data):
            representatives = representative_fingerprints(
                (fp for fp, _chunk in chunks), self.REPRESENTATIVES_PER_SEGMENT
            )
            for fp in representatives:
                self._probe(fp, dedup_cache)
            segment = self._dedup_segment(chunks, dedup_cache)
            self._store_segment(segment, representatives)
            recipe.extend(segment)
        self._flush_block()
        return recipe

    # --- similarity & blocks ------------------------------------------------
    def _probe(
        self, representative: bytes, dedup_cache: dict[bytes, tuple[int, int]]
    ) -> None:
        self._breakdown.charge("index_query", self.cost_model.cpu_index_query)
        block_id = self._sh_table.get(representative)
        if block_id is None:
            return
        if block_id == self._next_block_id:
            # The matching block is still buffered in memory.
            for segment in self._pending_block:
                for fp, container_id, size in segment:
                    dedup_cache.setdefault(fp, (container_id, size))
            return
        self._counters.add("block_loads")
        with self.oss.meter(self._breakdown):
            try:
                payload = self.oss.get_object(self.bucket, f"blocks/{block_id:010d}")
            except KeyError:
                return
        for fp, container_id, size in _BLOCK_ENTRY.iter_unpack(payload):
            dedup_cache.setdefault(fp, (container_id, size))

    def _store_segment(self, segment: list[Entry], representatives: list[bytes]) -> None:
        self._pending_block.append(segment)
        for fp in representatives:
            self._sh_table[fp] = self._next_block_id
        self._counters.add("segments")
        if len(self._pending_block) >= self.segments_per_block:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._pending_block:
            return
        payload = b"".join(
            _BLOCK_ENTRY.pack(*entry) for segment in self._pending_block for entry in segment
        )
        with self.oss.meter(self._breakdown):
            self.oss.put_object(self.bucket, f"blocks/{self._next_block_id:010d}", payload)
        self._next_block_id += 1
        self._pending_block = []
