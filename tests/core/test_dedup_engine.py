"""Tests for the L-node backup engine (Section IV)."""

import pytest

from repro.core.config import SlimStoreConfig
from repro.core.dedup import BackupEngine, DedupCache
from repro.core.recipe import ChunkRecord
from repro.core.storage import StorageLayer
from repro.fingerprint.hashing import fingerprint
from repro.oss.object_store import ObjectStorageService
from tests.conftest import RegisteringEngine, mutate, random_bytes, stable_versions

CONFIG = SlimStoreConfig(
    container_bytes=128 * 1024,
    segment_bytes=64 * 1024,
    min_superchunk_bytes=16 * 1024,
    max_superchunk_bytes=64 * 1024,
    merge_threshold=3,
)


@pytest.fixture
def storage(oss) -> StorageLayer:
    return StorageLayer.create(oss)


@pytest.fixture
def engine(storage) -> BackupEngine:
    return RegisteringEngine(CONFIG, storage)


def record_for(index: int, ordinal: int = 0) -> ChunkRecord:
    return ChunkRecord(
        fp=fingerprint(f"r{ordinal}/{index}".encode()), container_id=0, size=4096
    )


class TestDedupCache:
    def test_lookup_after_insert(self):
        cache = DedupCache()
        records = [record_for(i) for i in range(4)]
        cache.insert_segment(0, records)
        found, location = cache.lookup(records[2].fp)
        assert found is records[2]
        assert location == (0, 2)

    def test_lookup_missing(self):
        assert DedupCache().lookup(b"\x00" * 20) is None

    def test_successor_within_segment(self):
        cache = DedupCache()
        records = [record_for(i) for i in range(3)]
        cache.insert_segment(0, records)
        following, location = cache.successor((0, 0))
        assert following is records[1]
        assert location == (0, 1)

    def test_successor_crosses_segment_boundary(self):
        cache = DedupCache()
        cache.insert_segment(0, [record_for(0, 0)])
        cache.insert_segment(1, [record_for(0, 1)])
        following, location = cache.successor((0, 0))
        assert location == (1, 0)

    def test_successor_none_at_end(self):
        cache = DedupCache()
        cache.insert_segment(0, [record_for(0)])
        assert cache.successor((0, 0)) is None

    def test_lru_eviction(self):
        cache = DedupCache(max_segments=2)
        segments = [[record_for(i, ordinal)] for ordinal, i in enumerate(range(3))]
        for ordinal, records in enumerate(segments):
            cache.insert_segment(ordinal, records)
        assert not cache.has_segment(0)
        assert cache.lookup(segments[0][0].fp) is None
        assert cache.lookup(segments[2][0].fp) is not None

    def test_superchunk_first_fp_indexed(self):
        cache = DedupCache()
        sc = ChunkRecord(
            fp=fingerprint(b"sc"), container_id=0, size=32768,
            is_superchunk=True, first_fp=fingerprint(b"first"), first_size=4096,
        )
        cache.insert_segment(0, [sc])
        found, _ = cache.lookup(fingerprint(b"first"))
        assert found is sc


class TestFirstBackup:
    def test_everything_unique(self, engine, rng):
        data = random_bytes(rng, 256 * 1024)
        result = engine.backup("f", data)
        assert result.version == 0
        assert result.counters.get("dup_chunks") == 0
        assert result.stored_chunk_bytes == len(data)
        assert result.dedup_ratio == 0.0

    def test_self_reference_deduplicated(self, engine, rng):
        block = random_bytes(rng, 64 * 1024)
        data = block + random_bytes(rng, 64 * 1024) + block
        result = engine.backup("f", data)
        assert result.counters.get("local_duplicates") > 0
        assert result.dedup_ratio > 0.2

    def test_recipe_persisted(self, engine, storage, rng):
        data = random_bytes(rng, 128 * 1024)
        result = engine.backup("f", data)
        recipe = storage.recipes.get_recipe("f", 0)
        assert recipe.total_bytes == len(data)
        assert recipe.chunk_count() == result.recipe.chunk_count()
        index = storage.recipes.open_recipe("f", 0).recipe_index(CONFIG.effective_sample_ratio())
        assert len(index) > 0

    def test_version_zero_registered(self, storage, rng):
        """The engine only returns the representatives; the caller's
        registration (``SlimStore``'s commit record) makes the version
        the path's latest."""
        result = BackupEngine(CONFIG, storage).backup("f", random_bytes(rng, 64 * 1024))
        assert result.version == 0
        assert storage.similar_index.latest_version("f") is None
        storage.similar_index.register("f", result.version, result.representatives)
        assert storage.similar_index.latest_version("f") == 0

    def test_header_probe_digests_are_reused(self, rng):
        """A first version inside ``header_probe_bytes`` is all header: the
        job cuts the chunks the similarity probe already hashed and must
        not hash them again.  The virtual clock still charges both passes,
        exactly as when the probe's digests were thrown away."""
        data = random_bytes(rng, 64 * 1024)
        assert len(data) < CONFIG.header_probe_bytes

        def first_backup(keep_probe_digests: bool):
            engine = RegisteringEngine(CONFIG, StorageLayer.create(ObjectStorageService()))
            hashed = []
            fingerprint = engine._fingerprint
            engine._fingerprint = lambda chunk: hashed.append(1) or fingerprint(chunk)
            if not keep_probe_digests:
                detect = engine._detect_base
                # Without the job's memo the probe hashes into its own dict.
                engine._detect_base = lambda *args: detect(*args[:-1])
            return engine.backup("f", data), len(hashed)

        result, hashed = first_backup(keep_probe_digests=True)
        discarded, rehashed = first_backup(keep_probe_digests=False)
        chunks = result.counters.get("chunks")
        assert result.counters.get("header_probes") == 1
        assert hashed == chunks
        assert rehashed == 2 * chunks
        assert result.breakdown == discarded.breakdown
        assert result.elapsed_seconds == discarded.elapsed_seconds
        assert result.recipe.all_records() == discarded.recipe.all_records()


class TestIncrementalBackup:
    def test_high_dedup_on_small_change(self, engine, rng):
        data = random_bytes(rng, 512 * 1024)
        engine.backup("f", data)
        changed = mutate(rng, data, runs=2, run_bytes=8 * 1024)
        result = engine.backup("f", changed)
        assert result.version == 1
        assert result.dedup_ratio > 0.85

    def test_detects_by_name(self, engine, rng):
        data = random_bytes(rng, 128 * 1024)
        engine.backup("f", data)
        result = engine.backup("f", data)
        assert result.counters.get("detect_by_name") == 1

    def test_detects_renamed_file_by_similarity(self, engine, rng):
        data = random_bytes(rng, 512 * 1024)
        engine.backup("old_name", data)
        result = engine.backup("new_name", mutate(rng, data, 1, 4096))
        assert result.counters.get("detect_by_similarity") == 1
        assert result.dedup_ratio > 0.5
        assert result.version == 0  # first version under the new name

    def test_unrelated_file_stores_everything(self, engine, rng):
        engine.backup("a", random_bytes(rng, 128 * 1024))
        other = random_bytes(rng, 128 * 1024)
        result = engine.backup("b", other)
        assert result.counters.get("detect_none") == 1
        assert result.stored_chunk_bytes == len(other)

    def test_skip_chunking_engages(self, engine, rng):
        data = random_bytes(rng, 512 * 1024)
        engine.backup("f", data)
        result = engine.backup("f", mutate(rng, data, 1, 4096))
        assert result.counters.get("skip_success") > 50

    def test_skip_chunking_disabled(self, storage, rng):
        engine = RegisteringEngine(CONFIG.with_overrides(skip_chunking=False), storage)
        data = random_bytes(rng, 256 * 1024)
        engine.backup("f", data)
        result = engine.backup("f", data)
        assert result.counters.get("skip_success") == 0
        assert result.dedup_ratio > 0.9  # dedup still works via the cache

    def test_duplicate_times_increment(self, engine, storage, rng):
        for data in stable_versions(random_bytes(rng, 128 * 1024), 3):
            engine.backup("f", data)
        recipe = storage.recipes.get_recipe("f", 2)
        times = [r.duplicate_times for r in recipe.all_records() if not r.is_superchunk]
        assert times and max(times) == 2


class TestChunkMerging:
    def test_superchunks_form_at_threshold(self, engine, rng):
        versions = stable_versions(random_bytes(rng, 256 * 1024), 5)
        results = [engine.backup("f", data) for data in versions]
        trigger = results[CONFIG.merge_threshold]
        assert trigger.counters.get("superchunks_created") > 0
        # Once merged, later versions match whole superchunks.
        assert results[-1].counters.get("superchunk_hits") > 0

    def test_superchunk_records_well_formed(self, engine, storage, rng):
        for data in stable_versions(random_bytes(rng, 256 * 1024), 5):
            engine.backup("f", data)
        recipe = storage.recipes.get_recipe("f", 4)
        superchunks = [r for r in recipe.all_records() if r.is_superchunk]
        assert superchunks
        for record in superchunks:
            assert CONFIG.min_superchunk_bytes <= record.size
            assert record.size <= CONFIG.max_superchunk_bytes
            assert len(record.first_fp) == 20
            assert 0 < record.first_size < record.size

    def test_merging_disabled(self, storage, rng):
        engine = RegisteringEngine(CONFIG.with_overrides(chunk_merging=False), storage)
        data = random_bytes(rng, 256 * 1024)
        for _ in range(5):
            result = engine.backup("f", data)
        assert result.counters.get("superchunks_created") == 0

    def test_partial_superchunk_failure_recovers(self, engine, storage, rng):
        for data in stable_versions(random_bytes(rng, 256 * 1024), 4):
            engine.backup("f", data)
        changed = mutate(rng, data, runs=1, run_bytes=2048)
        result = engine.backup("f", changed)
        # The damaged superchunk fails fingerprint verification but the
        # stream still deduplicates outside it.
        assert result.dedup_ratio > 0.5
        restored_recipe = storage.recipes.get_recipe("f", 4)
        assert restored_recipe.total_bytes == len(changed)


class TestRewriteHook:
    def test_rewrite_containers_store_duplicates_again(self, engine, storage, rng):
        data = random_bytes(rng, 128 * 1024)
        first = engine.backup("f", data)
        target = set(first.new_container_ids)
        result = engine.backup("f", data, rewrite_containers=target)
        assert result.counters.get("rewritten_chunks") > 0
        assert result.stored_chunk_bytes > 0


class TestAccounting:
    def test_logical_bytes_match_input(self, engine, rng):
        data = random_bytes(rng, 200 * 1024)
        result = engine.backup("f", data)
        assert result.logical_bytes == len(data)
        assert sum(r.size for r in result.recipe.all_records()) == len(data)

    def test_breakdown_nonzero(self, engine, rng):
        result = engine.backup("f", random_bytes(rng, 128 * 1024))
        assert result.breakdown.cpu_seconds() > 0
        assert result.breakdown.upload > 0
        assert result.throughput_mb_s > 0

    def test_referenced_containers_only_for_duplicates(self, engine, rng):
        data = random_bytes(rng, 128 * 1024)
        first = engine.backup("f", data)
        assert first.recipe.reused_containers(first.new_container_ids) == {}
        second = engine.backup("f", data)
        reused = second.recipe.reused_containers(second.new_container_ids)
        assert set(reused) <= set(first.new_container_ids)
        assert sum(reused.values()) > 0


class TestBytesScanned:
    """``counters["bytes_scanned"]``: bytes handed to the CDC scan kernel.

    Exact (a count, not a timing), so it is what shows that skip chunking
    skips on the host: a predicted cut costs one window hash, and the bytes
    between two verified cuts are never scanned."""

    def test_first_version_scans_the_file_about_once(self, engine, rng):
        data = random_bytes(rng, 1024 * 1024)
        result = engine.backup("f", data)
        scanned = result.counters.get("bytes_scanned")
        # Every extension re-reads window-1 bytes; each chunk's min-size
        # head may be left out.
        assert 0.7 * len(data) < scanned <= 1.05 * len(data)

    def test_unchanged_rebackup_scans_next_to_nothing(self, engine, rng):
        data = random_bytes(rng, 1024 * 1024)
        engine.backup("f", data)
        result = engine.backup("f", data)
        assert result.counters.get("skip_success") > 150
        assert result.counters.get("bytes_scanned") < 0.05 * len(data)

    def test_scan_restarts_where_a_skip_fails(self, engine, rng):
        data = random_bytes(rng, 1024 * 1024)
        engine.backup("f", data)
        changed = mutate(rng, data, runs=2, run_bytes=8 * 1024)
        result = engine.backup("f", changed)
        assert result.counters.get("skip_fail") >= 1
        scanned = result.counters.get("bytes_scanned")
        assert 2 * 8 * 1024 < scanned < 0.25 * len(data)

    def test_without_skip_chunking_everything_is_scanned(self, storage, rng):
        engine = RegisteringEngine(CONFIG.with_overrides(skip_chunking=False), storage)
        data = random_bytes(rng, 512 * 1024)
        engine.backup("f", data)
        result = engine.backup("f", data)
        assert result.counters.get("bytes_scanned") > 0.7 * len(data)

    def test_scanned_share_falls_as_skips_rise(self):
        """Over S-DB tables of rising duplication ratio (Fig 5c's sweep):
        more of each new version replays history, less of it is scanned."""
        from repro.oss.object_store import ObjectStorageService
        from repro.workloads import SDBConfig, SDBGenerator

        shares, skips = [], []
        for ratio in (0.65, 0.80, 0.95):
            generator = SDBGenerator(
                SDBConfig(
                    table_count=1,
                    initial_table_bytes=512 * 1024,
                    version_count=3,
                    duplication_ratio_min=ratio,
                    duplication_ratio_max=ratio,
                    seed=9,
                )
            )
            engine = RegisteringEngine(CONFIG, StorageLayer.create(ObjectStorageService()))
            scanned = logical = skipped = 0
            for version in generator.versions():
                for item in version.files:
                    result = engine.backup(item.path, item.data)
                    if version.version > 0:
                        scanned += result.counters.get("bytes_scanned")
                        skipped += result.counters.get("skip_success")
                        logical += len(item.data)
            shares.append(scanned / logical)
            skips.append(skipped)
        assert skips == sorted(skips) and skips[0] < skips[-1]
        assert shares == sorted(shares, reverse=True) and shares[-1] < shares[0]
        assert shares[-1] < 0.35
