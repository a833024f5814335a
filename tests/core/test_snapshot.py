"""Tests for snapshots (full-volume backup runs) and G-node deep clean."""

import pytest

from repro import SlimStore, SlimStoreConfig
from repro.core.snapshot import Snapshot, SnapshotNotFoundError, SnapshotStore
from repro.core.system import VersionCatalog
from repro.errors import SimulatedCrashError, VersionNotFoundError
from repro.oss.faults import FaultPolicy
from tests.conftest import mutate, random_bytes

CONFIG = SlimStoreConfig(container_bytes=64 * 1024, segment_bytes=32 * 1024)


class TestSnapshotStore:
    def test_join_get_roundtrip(self):
        store = SnapshotStore()
        store.join("00000001", "a", 0)
        store.join("00000001", "b", 3)
        loaded = store.get("00000001")
        assert loaded == Snapshot("00000001", {"a": 0, "b": 3})
        # ... and through the catalog checkpoint's section.
        catalog = VersionCatalog()
        catalog.snapshots.load(store.to_json())
        rebuilt = VersionCatalog.from_json(catalog.to_json())
        assert rebuilt.snapshots.get("00000001") == loaded

    def test_missing_raises(self):
        with pytest.raises(SnapshotNotFoundError):
            SnapshotStore().get("missing")

    def test_ids_allocate_in_order(self):
        store = SnapshotStore()
        first, second = store.allocate_id(), store.allocate_id()
        assert first < second

    def test_recover_resumes_sequence(self, oss):
        store = SlimStore(CONFIG, oss)
        store.backup_snapshot({"a": b"a volume"})
        fresh = SlimStore(CONFIG, oss)
        fresh.recover()
        assert fresh.snapshots.list_ids() == ["00000000"]
        assert fresh.snapshots.allocate_id() == "00000001"

    def test_list_and_delete(self):
        store = SnapshotStore()
        store.join(store.allocate_id(), "a", 0)
        store.join(store.allocate_id(), "a", 1)
        assert store.list_ids() == ["00000000", "00000001"]
        store.drop("00000000")
        assert store.list_ids() == ["00000001"]
        # A dropped id is not handed out again by the same store.
        assert store.allocate_id() == "00000002"


class TestSystemSnapshots:
    @pytest.fixture
    def volume(self, rng):
        return {
            "db/a.tbl": random_bytes(rng, 128 * 1024),
            "db/b.tbl": random_bytes(rng, 96 * 1024),
            "logs/c.log": random_bytes(rng, 64 * 1024),
        }

    def test_backup_and_restore_snapshot(self, volume):
        store = SlimStore(CONFIG)
        snapshot_id, reports = store.backup_snapshot(volume)
        assert len(reports) == 3
        restored = store.restore_snapshot(snapshot_id)
        assert restored == volume

    def test_multiple_snapshots_restore_point_in_time(self, volume, rng):
        store = SlimStore(CONFIG)
        first_id, _ = store.backup_snapshot(volume)
        second_volume = dict(volume)
        second_volume["db/a.tbl"] = mutate(rng, volume["db/a.tbl"], 2, 8192)
        second_id, _ = store.backup_snapshot(second_volume)
        assert store.restore_snapshot(first_id) == volume
        assert store.restore_snapshot(second_id) == second_volume

    def test_delete_snapshot_fifo(self, volume, rng):
        store = SlimStore(CONFIG)
        first_id, _ = store.backup_snapshot(volume)
        second_volume = {p: mutate(rng, d, 1, 4096) for p, d in volume.items()}
        second_id, _ = store.backup_snapshot(second_volume)
        with pytest.raises(VersionNotFoundError):
            store.delete_snapshot(second_id)
        store.delete_snapshot(first_id)
        assert store.snapshots.list_ids() == [second_id]
        assert store.restore_snapshot(second_id) == second_volume

    def test_snapshot_dedup_across_runs(self, volume):
        store = SlimStore(CONFIG)
        store.backup_snapshot(volume)
        _, reports = store.backup_snapshot(volume)
        assert all(r.dedup_ratio > 0.9 for r in reports)


class TestDeepClean:
    def test_reclaims_marked_deleted_bytes(self, rng):
        store = SlimStore(
            CONFIG.with_overrides(container_rewrite_threshold=0.9)
        )
        data = random_bytes(rng, 256 * 1024)
        store.backup("f", data)
        for _ in range(4):
            data = mutate(rng, data, 3, 16 * 1024)
            store.backup("f", data)
        # With the rewrite threshold at 0.9, stale bytes accumulate.
        before = store.space_report().container_bytes
        reclaimed = store.gnode.deep_clean()
        after = store.space_report().container_bytes
        assert reclaimed > 0
        assert after == before - reclaimed
        # Every version still restores after the sweep.
        assert store.restore("f", 4).data == data

    def test_idempotent(self, rng):
        store = SlimStore(CONFIG)
        store.backup("f", random_bytes(rng, 128 * 1024))
        store.gnode.deep_clean()
        assert store.gnode.deep_clean() == 0

    def test_prunes_dangling_index_entries(self, rng):
        store = SlimStore(CONFIG)
        data = random_bytes(rng, 128 * 1024)
        store.backup("f", data)
        store.backup("f", mutate(rng, data, 4, 32 * 1024))
        store.delete_version("f", 0)
        dangling_before = sum(
            1
            for _fp, cid in store.storage.global_index.iter_items()
            if not store.storage.containers.exists(cid)
        )
        store.gnode.deep_clean()
        dangling_after = sum(
            1
            for _fp, cid in store.storage.global_index.iter_items()
            if not store.storage.containers.exists(cid)
        )
        assert dangling_after == 0
        if dangling_before:
            assert dangling_before > 0  # the sweep actually removed some
        # The surviving version still restores.
        assert store.restore("f", 1).data is not None


class TestReservedIds:
    def test_reserved_ids_advance_the_sequence(self, oss):
        """A run that died after its first member committed holds its id
        (the member's commit record names it): a new run must not reuse it.
        A run that died before any commit left no trace, and its id may be."""
        store = SlimStore(CONFIG, oss)
        store.backup_snapshot({"f": b"first run"})
        policy = FaultPolicy()
        policy.crash_after_writes(8)  # in g's job, after f's commit record
        oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.backup_snapshot({"f": b"second run", "g": b"never committed"})
        oss.set_fault_policy(None)
        fresh = SlimStore(CONFIG, oss)
        fresh.recover()
        assert fresh.snapshots.get("00000001").members == {"f": 1}
        assert fresh.snapshots.allocate_id() == "00000002"
