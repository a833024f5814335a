"""Tests for the L-node restore job (Section V)."""

import pytest

from repro.core.config import SlimStoreConfig
from repro.core.restore import RestoreEngine
from repro.core.storage import StorageLayer
from repro.errors import RestoreError, VersionNotFoundError
from repro.workloads.sdb import SDBConfig, SDBGenerator
from tests.conftest import RegisteringEngine, mutate, random_bytes, stable_versions

CONFIG = SlimStoreConfig(
    container_bytes=128 * 1024,
    segment_bytes=64 * 1024,
    min_superchunk_bytes=16 * 1024,
    max_superchunk_bytes=64 * 1024,
    merge_threshold=3,
    restore_cache_bytes=1 << 20,
)


@pytest.fixture
def storage(oss) -> StorageLayer:
    return StorageLayer.create(oss)


@pytest.fixture
def engines(storage):
    return RegisteringEngine(CONFIG, storage), RestoreEngine(CONFIG, storage)


class TestRestoreCorrectness:
    def test_roundtrip_single_version(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 300 * 1024)
        backup.backup("f", data)
        result = restore.restore("f", 0)
        assert result.data == data

    def test_roundtrip_many_versions(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 256 * 1024)
        versions = [data]
        for _ in range(6):
            data = mutate(rng, data, runs=2, run_bytes=8 * 1024)
            versions.append(data)
        for payload in versions:
            backup.backup("f", payload)
        for version, payload in enumerate(versions):
            assert restore.restore("f", version).data == payload

    def test_restore_with_self_reference(self, engines, rng):
        backup, restore = engines
        block = random_bytes(rng, 32 * 1024)
        data = block + random_bytes(rng, 64 * 1024) + block + block
        backup.backup("f", data)
        assert restore.restore("f", 0).data == data

    def test_restore_superchunked_version(self, engines, rng):
        backup, restore = engines
        for data in stable_versions(random_bytes(rng, 256 * 1024), 5):
            backup.backup("f", data)
        result = restore.restore("f", 4)
        assert result.data == data

    def test_missing_version_raises(self, engines):
        _, restore = engines
        with pytest.raises(VersionNotFoundError):
            restore.restore("ghost", 0)

    def test_empty_file(self, engines):
        backup, restore = engines
        backup.backup("empty", b"")
        assert restore.restore("empty", 0).data == b""
        # The job is its serial recipe GET, whatever the prefetch width.
        for threads in (0, 6):
            result = restore.restore("empty", 0, prefetch_threads=threads)
            recipe_get = result.breakdown.download
            assert recipe_get > 0
            assert result.setup_seconds == recipe_get
            assert result.elapsed_seconds == recipe_get

    def test_verification_catches_corruption(self, engines, storage, rng):
        backup, restore = engines
        data = random_bytes(rng, 128 * 1024)
        result = backup.backup("f", data)
        cid = result.new_container_ids[0]
        payload = bytearray(storage.containers.read_data(cid))
        payload[10] ^= 0xFF
        storage.oss.put_object("slimstore", f"containers/{cid:012d}.data", bytes(payload))
        with pytest.raises(RestoreError):
            restore.restore("f", 0, verify=True)


class TestRestoreEfficiency:
    def test_containers_read_once(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 512 * 1024)
        for _ in range(4):
            backup.backup("f", data)
            data = mutate(rng, data, runs=2, run_bytes=8 * 1024)
        result = restore.restore("f", 3)
        assert result.counters.get("repeated_container_reads") == 0

    def test_read_amplification_bounded(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 512 * 1024)
        backup.backup("f", data)
        result = restore.restore("f", 0)
        # A fresh version's chunks are contiguous: amplification near 1.
        assert result.read_amplification < 1.3

    def test_prefetch_threads_speed_up(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 512 * 1024)
        backup.backup("f", data)
        slow = restore.restore("f", 0, prefetch_threads=0, verify=False)
        fast = restore.restore("f", 0, prefetch_threads=6, verify=False)
        assert fast.throughput_mb_s > 2 * slow.throughput_mb_s
        assert fast.data == slow.data

    def test_throughput_metrics(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 256 * 1024)
        backup.backup("f", data)
        result = restore.restore("f", 0)
        assert result.logical_bytes == len(data)
        assert result.containers_read >= 2
        assert result.containers_per_100mb > 0
        assert result.elapsed_seconds > 0


class TestBloomHashBudget:
    def test_verified_restore_computes_no_digests(
        self, engines, storage, bloom_digests
    ):
        """The full-vision statuses come from exact remaining-reference
        counts: a verified restore touches no Bloom filter at all (the
        counting filter it replaced cost three digests per record)."""
        backup, restore = engines
        generator = SDBGenerator(
            SDBConfig(table_count=1, initial_table_bytes=1 << 20, version_count=2, seed=24)
        )
        for version in generator.versions():
            (table,) = version.files
            backup.backup(table.path, table.data)
        records = storage.recipes.get_recipe(table.path, 1).all_records()
        assert len(records) > 100
        before = len(bloom_digests)
        result = restore.restore(table.path, 1, verify=True)
        assert result.data == table.data
        assert len(bloom_digests) == before


class TestMemoryPressure:
    def test_demoting_cache_still_reads_each_container_once(self, storage, rng):
        """A restore cache smaller than one repeated block demotes chunks
        referenced again (beyond the look-ahead window)
        to the disk layer; no container is fetched twice for them."""
        config = SlimStoreConfig(
            container_bytes=128 * 1024,
            segment_bytes=64 * 1024,
            restore_cache_bytes=32 * 1024,
        )
        block = random_bytes(rng, 64 * 1024)
        data = (
            block + random_bytes(rng, 3 << 20) + block + random_bytes(rng, 1 << 20) + block
        )
        RegisteringEngine(config, storage).backup("f", data)
        result = RestoreEngine(config, storage).restore("f", 0)
        assert result.data == data
        assert result.counters.get("disk_demotions") > 0
        assert result.counters.get("repeated_container_reads") == 0


class TestEventPipeline:
    def test_elapsed_comes_from_event_schedule(self, engines, rng):
        backup, restore = engines
        backup.backup("f", random_bytes(rng, 256 * 1024))
        result = restore.restore("f", 0)
        assert result.elapsed_seconds == result.pipeline.elapsed_seconds
        assert result.setup_seconds > 0
        assert len(result.read_seconds) == result.containers_read
        assert len(result.record_cpu) == len(result.record_reads)

    def test_zero_threads_matches_closed_form(self, engines, rng):
        """With no prefetching and no redirects the event schedule is
        ``cpu + download``, term for term."""
        backup, restore = engines
        backup.backup("f", random_bytes(rng, 256 * 1024))
        result = restore.restore("f", 0, prefetch_threads=0)
        assert result.counters.get("global_index_redirects") == 0
        serial = result.breakdown.cpu_seconds() + result.breakdown.download
        assert result.elapsed_seconds == pytest.approx(serial, rel=1e-9)

    def test_prefetched_elapsed_bounded_by_closed_form(self, engines, rng):
        """The event schedule approaches ``max(cpu, download/threads)``
        from above: startup and tail effects, never free speedup."""
        backup, restore = engines
        backup.backup("f", random_bytes(rng, 512 * 1024))
        result = restore.restore("f", 0, prefetch_threads=4, ranged=False)
        bound = max(result.breakdown.cpu_seconds(), result.breakdown.download / 4)
        assert result.elapsed_seconds >= bound * 0.999
        assert result.counters.get("prefetch_stalls") >= 1

    def test_ranged_restore_identical_bytes_fewer_read(self, engines, rng):
        backup, restore = engines
        data = random_bytes(rng, 256 * 1024)
        for _ in range(5):
            backup.backup("f", data)
            data = mutate(rng, data, runs=3, run_bytes=4 * 1024)
        whole = restore.restore("f", 4, ranged=False)
        ranged = restore.restore("f", 4, ranged=True)
        assert ranged.data == whole.data
        assert (
            ranged.counters.get("container_bytes_read")
            < whole.counters.get("container_bytes_read")
        )
        assert ranged.counters.get("ranged_bytes_saved") > 0
        assert ranged.counters.get("ranged_reads") >= ranged.containers_read
        assert ranged.read_amplification < whole.read_amplification

    def test_whole_mode_keeps_seed_traffic(self, engines, storage, rng):
        """Whole-container mode must not add any OSS requests over the
        seed access pattern (no metadata pre-reads)."""
        backup, restore = engines
        backup.backup("f", random_bytes(rng, 256 * 1024))
        before = storage.oss.stats.snapshot()
        result = restore.restore("f", 0, ranged=False)
        requests = storage.oss.stats.diff(before).get_requests
        # recipe + per-container data+meta (meta piggybacked = own request
        # in stats, no extra latency).
        assert requests == 1 + 2 * result.containers_read
        assert result.counters.get("plan_meta_reads") == 0


class TestGlobalIndexRedirect:
    def test_restore_after_chunk_moved(self, engines, storage, rng):
        """A chunk deleted from its recorded container is found through
        the global index (the Section VI-A redirect)."""
        backup, restore = engines
        data = random_bytes(rng, 128 * 1024)
        result = backup.backup("f", data)
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        victim = meta.live_entries()[0]

        # Move the chunk: store a copy in a fresh container, point the
        # global index there, delete the original.
        payload = storage.containers.read_data(cid)
        chunk = payload[victim.offset : victim.offset + victim.size]
        builder = storage.containers.new_builder(CONFIG.container_bytes)
        builder.add_chunk(victim.fp, chunk)
        storage.containers.write(builder)
        storage.global_index.assign(victim.fp, builder.container_id)
        meta.mark_deleted(victim.fp)
        storage.containers.update_meta(meta)
        storage.containers.rewrite(cid)

        result = restore.restore("f", 0)
        assert result.data == data
        assert result.counters.get("global_index_redirects") == 1

    def test_unresolvable_chunk_raises(self, engines, storage, rng):
        backup, restore = engines
        data = random_bytes(rng, 64 * 1024)
        result = backup.backup("f", data)
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        meta.mark_deleted(meta.live_entries()[0].fp)
        storage.containers.update_meta(meta)
        with pytest.raises(RestoreError):
            restore.restore("f", 0)

    def test_stale_index_entry_raises_with_container_id(self, engines, storage, rng):
        """An index entry pointing at a container that does not hold the
        chunk fails loudly, naming the container."""
        backup, restore = engines
        result = backup.backup("f", random_bytes(rng, 64 * 1024))
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        victim = meta.live_entries()[0]
        meta.mark_deleted(victim.fp)
        storage.containers.update_meta(meta)
        other = storage.containers.new_builder(CONFIG.container_bytes)
        other.add_chunk(b"\x42" * 20, b"unrelated bytes")
        storage.containers.write(other)
        storage.global_index.assign(victim.fp, other.container_id)
        for ranged in (False, True):
            with pytest.raises(RestoreError, match=f"container {other.container_id}"):
                restore.restore("f", 0, ranged=ranged)


class TestRedirectAfterAging:
    """Restoring old versions after reverse dedup + compaction moved
    chunks (Section VI-A: 'extra query of the global index')."""

    def test_old_version_restores_through_redirects(self, aged_store):
        store, payloads = aged_store
        result = store.restore("f", 0, ranged=False)
        assert result.data == payloads[0]
        assert result.counters.get("global_index_redirects") > 0

    def test_ranged_reads_still_apply_after_aging(self, aged_store):
        store, payloads = aged_store
        result = store.restore("f", 0, ranged=True)
        assert result.data == payloads[0]
        assert result.counters.get("global_index_redirects") > 0
        assert result.counters.get("ranged_reads") > 0
        assert result.counters.get("ranged_bytes_saved") > 0
        # Plan-time resolution reads each container once, even the ones
        # only reachable through the index.
        assert result.counters.get("repeated_container_reads") == 0

    def test_every_aged_version_roundtrips_both_modes(self, aged_store):
        store, payloads = aged_store
        for version, payload in enumerate(payloads):
            assert store.restore("f", version, ranged=False).data == payload
            assert store.restore("f", version, ranged=True).data == payload
