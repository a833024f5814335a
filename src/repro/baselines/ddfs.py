"""DDFS-style exact deduplication with physical locality (Zhu et al.).

The Data Domain File System is the classic of the third dedup family the
paper's related work surveys: an **exact**, full-index system that fights
the disk-index bottleneck with (1) a summary Bloom filter in RAM and
(2) *locality-preserved caching* — when an on-disk index lookup hits, the
whole container's fingerprints are loaded into the cache, so the physical
locality of neighbouring chunks absorbs subsequent lookups.

Here the full fingerprint index lives on the simulated OSS (one LSM
store), which is exactly the configuration the paper argues against for
the cloud: every cache-missing fingerprint costs a remote round trip.
Useful as the exact-dedup yardstick next to SiLO/Sparse Indexing/SLIMSTORE.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from repro.baselines.base import ContainerBaseline, chunk_stream
from repro.baselines.recipes import Entry
from repro.core.config import SlimStoreConfig
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.lsm import LSMStore
from repro.oss.object_store import ObjectStorageService
from repro.sim.cost_model import CostModel

_VALUE = struct.Struct(">QI")  # container id, chunk size


class DDFSSystem(ContainerBaseline):
    """Exact dedup: summary Bloom + locality-preserved fingerprint cache."""

    def __init__(
        self,
        oss: ObjectStorageService,
        config: SlimStoreConfig | None = None,
        cost_model: CostModel | None = None,
        bucket: str = "ddfs",
        cache_containers: int = 64,
        bloom_capacity: int = 1 << 20,
    ) -> None:
        super().__init__(oss, config, cost_model, bucket)
        self._index = LSMStore(oss, bucket, name="ddfs-index")
        self._bloom = BloomFilter(bloom_capacity, 0.01)
        #: Locality-preserved cache: fp -> (container id, size), loaded a
        #: whole container's worth at a time, bounded in containers.
        self._cache: OrderedDict[bytes, tuple[int, int]] = OrderedDict()
        self._cached_containers: OrderedDict[int, list[bytes]] = OrderedDict()
        self.cache_containers = cache_containers

    # ------------------------------------------------------------------
    def _deduplicate(self, data: bytes) -> list[Entry]:
        """Look every chunk up exactly, the DDFS way."""
        recipe: list[Entry] = []
        for fp, chunk in chunk_stream(self._chunker, self.cost_model, data, self._breakdown):
            self._breakdown.charge("other", self.cost_model.cpu_record_handling)
            known = self._lookup(fp)
            if known is not None:
                self._counters.add("dup_chunks")
                recipe.append((fp, known[0], len(chunk)))
                continue
            container_id = self._store(fp, chunk)
            self._register(fp, container_id, len(chunk))
            recipe.append((fp, container_id, len(chunk)))
        return recipe

    def _lookup(self, fp: bytes) -> tuple[int, int] | None:
        self._breakdown.charge("index_query", self.cost_model.cpu_index_query)
        cached = self._cache.get(fp)
        if cached is not None:
            self._counters.add("cache_hits")
            return cached
        if fp not in self._bloom:
            self._counters.add("bloom_rejections")
            return None
        # On-OSS index lookup (the bottleneck DDFS mitigates, not removes).
        with self.oss.meter(self._breakdown):
            value = self._index.get(fp)
        self._counters.add("index_reads")
        if value is None:
            return None
        container_id, size = _VALUE.unpack(value)
        # Locality-preserved caching: pull the whole container's
        # fingerprints into the cache.
        self._load_container_fps(container_id)
        return self._cache.get(fp, (container_id, size))

    def _load_container_fps(self, container_id: int) -> None:
        if container_id in self._cached_containers:
            self._cached_containers.move_to_end(container_id)
            return
        with self.oss.meter(self._breakdown):
            meta = self.containers.read_meta(container_id)
        self._counters.add("container_meta_loads")
        loaded = []
        for entry in meta.live_entries():
            self._cache[entry.fp] = (container_id, entry.size)
            loaded.append(entry.fp)
        self._cached_containers[container_id] = loaded
        self._enforce_cache_bound()

    def _enforce_cache_bound(self) -> None:
        while len(self._cached_containers) > self.cache_containers:
            _evicted, fps = self._cached_containers.popitem(last=False)
            for evicted_fp in fps:
                self._cache.pop(evicted_fp, None)

    def _register(self, fp: bytes, container_id: int, size: int) -> None:
        self._bloom.add(fp)
        # Each put is one WAL PUT on OSS: the exact index's upload cost.
        with self.oss.meter(self._breakdown):
            self._index.put(fp, _VALUE.pack(container_id, size))
        self._cache[fp] = (container_id, size)
        self._cached_containers.setdefault(container_id, []).append(fp)
        self._cached_containers.move_to_end(container_id)
        self._enforce_cache_bound()
