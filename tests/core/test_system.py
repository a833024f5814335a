"""Tests for the SlimStore facade, version catalog and space accounting."""

import pytest

from repro import SlimStore, SlimStoreConfig
from repro.core.system import VersionCatalog
from repro.errors import VersionNotFoundError
from tests.conftest import mutate, random_bytes

CONFIG = SlimStoreConfig(
    container_bytes=64 * 1024,
    segment_bytes=32 * 1024,
    min_superchunk_bytes=16 * 1024,
    max_superchunk_bytes=32 * 1024,
    merge_threshold=3,
)


@pytest.fixture
def store() -> SlimStore:
    return SlimStore(CONFIG)


class TestVersionCatalog:
    def test_register_and_versions(self):
        catalog = VersionCatalog()
        catalog.register("f", 0, {1, 2}, [])
        catalog.register("f", 1, {2, 3}, [])
        assert catalog.versions("f") == [0, 1]

    def test_drop_returns_unreferenced_containers(self):
        catalog = VersionCatalog()
        catalog.register("f", 0, {1, 2}, [])
        catalog.register("f", 1, {2, 3}, [])
        collectable = catalog.drop_version("f", 0)
        assert collectable == [1]  # container 2 still referenced by v1

    def test_mark_phase_diffs_predecessor(self):
        catalog = VersionCatalog()
        catalog.register("f", 0, {1, 2}, [])
        catalog.register("f", 1, {2}, [])
        # Container 1 was marked garbage for v0 during v1's registration.
        assert 1 in catalog.drop_version("f", 0)

    def test_shared_containers_protected_across_files(self):
        catalog = VersionCatalog()
        catalog.register("a", 0, {7}, [])
        catalog.register("b", 0, {7}, [])
        assert catalog.drop_version("a", 0) == []
        assert catalog.drop_version("b", 0) == [7]

    def test_add_garbage(self):
        catalog = VersionCatalog()
        catalog.register("f", 0, {1}, [])
        catalog.add_garbage("f", 0, [9])
        collected = catalog.drop_version("f", 0)
        assert set(collected) == {1, 9}

    def test_drop_unknown_version_raises(self):
        with pytest.raises(VersionNotFoundError):
            VersionCatalog().drop_version("f", 0)


class TestSlimStoreFacade:
    def test_backup_restore_roundtrip(self, store, rng):
        data = random_bytes(rng, 256 * 1024)
        report = store.backup("db/t", data)
        assert report.version == 0
        assert report.path == "db/t"
        assert store.restore("db/t").data == data

    def test_restore_defaults_to_latest(self, store, rng):
        first = random_bytes(rng, 128 * 1024)
        second = mutate(rng, first, 2, 8192)
        store.backup("f", first)
        store.backup("f", second)
        assert store.restore("f").data == second
        assert store.restore("f", 0).data == first

    def test_versions_listing(self, store, rng):
        data = random_bytes(rng, 64 * 1024)
        for _ in range(3):
            store.backup("f", data)
        assert store.versions("f") == [0, 1, 2]

    def test_restore_unknown_path_raises(self, store):
        with pytest.raises(VersionNotFoundError):
            store.restore("ghost")

    def test_gnode_runs_by_default(self, store, rng):
        data = random_bytes(rng, 128 * 1024)
        report = store.backup("f", data)
        assert report.reverse_dedup is not None
        assert report.compaction is not None

    def test_gnode_can_be_skipped(self, rng):
        store = SlimStore(CONFIG)
        report = store.backup("f", random_bytes(rng, 64 * 1024), run_gnode=False)
        assert report.reverse_dedup is None
        assert report.compaction is None

    def test_skipped_gnode_pass_is_pending_until_drained(self, rng):
        store = SlimStore(CONFIG)
        for path in ("a", "b"):
            store.backup(path, random_bytes(rng, 64 * 1024), run_gnode=False)
        assert store.pending_versions() == [("a", 0), ("b", 0)]
        assert store.drain().chunks_scanned > 0
        assert store.pending_versions() == []
        assert store.drain() is None

    def test_gnode_disabled_by_config(self, rng):
        store = SlimStore(
            CONFIG.with_overrides(reverse_dedup=False, sparse_compaction=False)
        )
        report = store.backup("f", random_bytes(rng, 64 * 1024))
        assert report.reverse_dedup is None
        assert report.compaction is None

    def test_report_metrics(self, store, rng):
        report = store.backup("f", random_bytes(rng, 128 * 1024))
        assert report.throughput_mb_s > 0
        assert report.dedup_ratio == pytest.approx(0.0, abs=0.3)


class TestVersionDeletion:
    def test_delete_oldest_reclaims_space(self, store, rng):
        data = random_bytes(rng, 256 * 1024)
        payloads = [data]
        store.backup("f", data)
        for _ in range(4):
            payloads.append(mutate(rng, payloads[-1], 3, 16 * 1024))
            store.backup("f", payloads[-1])
        before = store.space_report().container_bytes
        reclaimed = sum(store.delete_version("f", v) for v in range(3))
        after = store.space_report().container_bytes
        assert store.versions("f") == [3, 4]
        assert after <= before
        assert after + reclaimed == pytest.approx(before, rel=0.01)
        # Remaining versions still restore byte-exact.
        for version in (3, 4):
            assert store.restore("f", version).data == payloads[version]

    def test_delete_requires_fifo_order(self, store, rng):
        data = random_bytes(rng, 64 * 1024)
        store.backup("f", data)
        store.backup("f", data)
        with pytest.raises(VersionNotFoundError):
            store.delete_version("f", 1)  # newest first is refused
        store.delete_version("f", 0)

    def test_deleted_recipe_gone(self, store, rng):
        data = random_bytes(rng, 64 * 1024)
        store.backup("f", data)
        store.backup("f", data)
        store.delete_version("f", 0)
        with pytest.raises(VersionNotFoundError):
            store.restore("f", 0)


class TestSpaceReport:
    def test_components_accounted(self, store, rng):
        store.backup("f", random_bytes(rng, 256 * 1024))
        report = store.space_report()
        assert report.container_bytes > 0
        assert report.recipe_bytes > 0
        assert report.similar_index_bytes > 0
        assert report.total_bytes >= (
            report.container_bytes + report.recipe_bytes
        )

    def test_dedup_bounds_growth(self, store, rng):
        data = random_bytes(rng, 256 * 1024)
        store.backup("f", data)
        first = store.space_report().container_bytes
        for _ in range(3):
            store.backup("f", data)
        final = store.space_report().container_bytes
        # Three identical versions cost far less than 3x the first.
        assert final < first * 1.6
