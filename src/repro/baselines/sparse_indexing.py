"""Sparse Indexing (Lillibridge et al., FAST'09).

Chunk-sampled deduplication against *champions*: an in-RAM sparse index
maps sampled fingerprints ("hooks") to the manifests (segment recipes) that
contain them.  For each input segment, the hooks vote; the top-scoring
manifests are fetched from OSS and the segment deduplicates against them.
RAM stays small because only 1-in-R fingerprints are indexed; dedup is
near-exact because incremental backups share manifests with high hook
overlap.

Like SiLO, it lacks SLIMSTORE's history-aware accelerations, which is the
gap Fig 7 quantifies.
"""

from __future__ import annotations

import struct
from collections import Counter as TallyCounter

from repro.baselines.base import ContainerBaseline
from repro.baselines.recipes import Entry
from repro.core.config import SlimStoreConfig
from repro.fingerprint.sampling import is_sampled
from repro.oss.object_store import ObjectStorageService
from repro.sim.cost_model import CostModel

_MANIFEST_ENTRY = struct.Struct(">20sQI")  # fp, container id, size


class SparseIndexingSystem(ContainerBaseline):
    """A Sparse Indexing deployment over the shared OSS substrate."""

    def __init__(
        self,
        oss: ObjectStorageService,
        config: SlimStoreConfig | None = None,
        max_champions: int = 2,
        cost_model: CostModel | None = None,
        bucket: str = "sparseidx",
    ) -> None:
        super().__init__(oss, config, cost_model, bucket)
        self.max_champions = max_champions
        #: In-RAM sparse index: hook fingerprint -> manifest ids holding it.
        self._sparse_index: dict[bytes, list[int]] = {}
        self._next_manifest_id = 0

    # --- backup ------------------------------------------------------------
    def _deduplicate(self, data: bytes) -> list[Entry]:
        """Deduplicate each segment against the champions its hooks elect."""
        sample_ratio = self.config.effective_sample_ratio()
        recipe: list[Entry] = []
        for chunks in self._segments(data):
            hooks = [fp for fp, _chunk in chunks if is_sampled(fp, sample_ratio)]
            manifest = self._dedup_segment(chunks, self._load_champions(hooks))
            self._store_manifest(manifest, hooks)
            recipe.extend(manifest)
        return recipe

    # --- internals -----------------------------------------------------------
    def _load_champions(self, hooks: list[bytes]) -> dict[bytes, tuple[int, int]]:
        """Vote with the hooks, fetch the top manifests, build the cache."""
        votes: TallyCounter[int] = TallyCounter()
        for hook in hooks:
            self._breakdown.charge("index_query", self.cost_model.cpu_index_query)
            for manifest_id in self._sparse_index.get(hook, []):
                votes[manifest_id] += 1
        champion_cache: dict[bytes, tuple[int, int]] = {}
        for manifest_id, _score in votes.most_common(self.max_champions):
            self._counters.add("champions_loaded")
            with self.oss.meter(self._breakdown):
                try:
                    payload = self.oss.get_object(
                        self.bucket, f"manifests/{manifest_id:010d}"
                    )
                except KeyError:
                    continue
            for fp, container_id, size in _MANIFEST_ENTRY.iter_unpack(payload):
                champion_cache.setdefault(fp, (container_id, size))
        return champion_cache

    def _store_manifest(self, manifest: list[Entry], hooks: list[bytes]) -> None:
        payload = b"".join(_MANIFEST_ENTRY.pack(*entry) for entry in manifest)
        with self.oss.meter(self._breakdown):
            self.oss.put_object(
                self.bucket, f"manifests/{self._next_manifest_id:010d}", payload
            )
        for hook in hooks:
            owners = self._sparse_index.setdefault(hook, [])
            owners.append(self._next_manifest_id)
            # Keep the hook's manifest list bounded (newest win), as the
            # original does to bound RAM.
            if len(owners) > 4:
                del owners[0]
        self._counters.add("segments")
        self._next_manifest_id += 1
