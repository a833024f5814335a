"""Tests for the baseline restore caches."""

import pytest

from repro.baselines.caches import (
    ALACCRestorer,
    FAARestorer,
    LRUContainerRestorer,
    OPTCacheRestorer,
)
from repro.core.config import SlimStoreConfig
from repro.core.storage import StorageLayer
from tests.conftest import RegisteringEngine, mutate, random_bytes

CONFIG = SlimStoreConfig(
    container_bytes=64 * 1024, segment_bytes=32 * 1024, chunk_merging=False
)


@pytest.fixture
def prepared(oss, rng):
    """A fragmented multi-version store plus the latest recipe records."""
    storage = StorageLayer.create(oss)
    engine = RegisteringEngine(CONFIG, storage)
    data = random_bytes(rng, 256 * 1024)
    engine.backup("f", data)
    for _ in range(5):
        data = mutate(rng, data, runs=3, run_bytes=8 * 1024)
        engine.backup("f", data)
    records = storage.recipes.get_recipe("f", 5).all_records()
    return storage, records, data


ALL_RESTORERS = [
    lambda storage: LRUContainerRestorer(storage.containers, 4),
    lambda storage: OPTCacheRestorer(storage.containers, 4),
    lambda storage: FAARestorer(storage.containers, 128 * 1024),
    lambda storage: ALACCRestorer(storage.containers, 64 * 1024, 64 * 1024),
]


@pytest.mark.parametrize("factory", ALL_RESTORERS)
class TestCorrectness:
    def test_restores_exact_bytes(self, prepared, factory):
        storage, records, data = prepared
        result = factory(storage).restore(records)
        assert result.data == data

    def test_metrics_populated(self, prepared, factory):
        storage, records, _ = prepared
        result = factory(storage).restore(records)
        assert result.containers_read > 0
        assert result.read_amplification > 0
        assert result.throughput_mb_s > 0
        assert result.containers_per_100mb > 0


class TestPolicyBehaviour:
    def test_lru_cache_hits(self, prepared):
        storage, records, _ = prepared
        result = LRUContainerRestorer(storage.containers, 8).restore(records)
        assert result.counters.get("cache_hits") > 0

    def test_bigger_cache_never_reads_more(self, prepared):
        storage, records, _ = prepared
        small = LRUContainerRestorer(storage.containers, 1).restore(records)
        large = LRUContainerRestorer(storage.containers, 16).restore(records)
        assert large.containers_read <= small.containers_read

    def test_opt_beats_lru_under_pressure(self, prepared):
        storage, records, _ = prepared
        lru = LRUContainerRestorer(storage.containers, 2).restore(records)
        opt = OPTCacheRestorer(storage.containers, 2).restore(records)
        assert opt.containers_read <= lru.containers_read

    def test_faa_reads_each_container_once_per_batch(self, prepared):
        storage, records, _ = prepared
        huge_faa = FAARestorer(storage.containers, 1 << 30).restore(records)
        distinct = len({r.container_id for r in records})
        assert huge_faa.containers_read == distinct

    def test_alacc_chunk_cache_hits(self, prepared):
        storage, records, _ = prepared
        result = ALACCRestorer(
            storage.containers, 64 * 1024, 1 << 20, law_records=2048
        ).restore(records)
        assert result.counters.get("chunk_cache_hits") >= 0

    def test_prefetch_threads_affect_elapsed(self, prepared):
        storage, records, _ = prepared
        serial = LRUContainerRestorer(
            storage.containers, 4, prefetch_threads=0
        ).restore(records)
        parallel = LRUContainerRestorer(
            storage.containers, 4, prefetch_threads=6
        ).restore(records)
        assert parallel.elapsed_seconds < serial.elapsed_seconds

    def test_invalid_capacities_rejected(self, prepared):
        storage, _, _ = prepared
        with pytest.raises(ValueError):
            LRUContainerRestorer(storage.containers, 0)
        with pytest.raises(ValueError):
            OPTCacheRestorer(storage.containers, 0)
        with pytest.raises(ValueError):
            FAARestorer(storage.containers, 0)
        with pytest.raises(ValueError):
            ALACCRestorer(storage.containers, 0, 100)
