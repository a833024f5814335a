"""Tests for the LSM store, including a model-based hypothesis test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulatedCrashError
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.wal import OP_PUT, encode_record
from repro.oss import deltalog
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService


@pytest.fixture
def store(oss) -> LSMStore:
    return LSMStore(oss, "kv", memtable_bytes=512, compaction_threshold=4)


class TestBasicOperations:
    def test_put_get(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_missing_is_none(self, store):
        assert store.get(b"nope") is None

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None
        assert b"k" not in store

    def test_tombstone_value_rejected(self, store):
        with pytest.raises(ValueError):
            store.put(b"k", TOMBSTONE)

    def test_contains(self, store):
        store.put(b"k", b"v")
        assert b"k" in store
        assert b"other" not in store


class TestFlushAndRead:
    def test_flush_creates_sstable(self, store):
        store.put(b"k", b"v")
        store.flush()
        assert store.sstable_count == 1
        assert store.get(b"k") == b"v"

    def test_flush_empty_is_noop(self, store):
        assert store.flush() is None
        assert store.sstable_count == 0

    def test_automatic_flush_when_full(self, store):
        for i in range(100):
            store.put(f"key{i:04d}".encode(), b"v" * 20)
        assert store.sstable_count >= 1
        assert store.get(b"key0000") == b"v" * 20

    def test_newer_sstable_shadows_older(self, store):
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        store.flush()
        assert store.get(b"k") == b"new"

    def test_delete_shadows_old_sstable_value(self, store):
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        assert store.get(b"k") is None


class TestCompaction:
    def test_compaction_merges_tables(self, store):
        for generation in range(5):
            for i in range(20):
                store.put(f"key{i:03d}".encode(), f"gen{generation}".encode())
            store.flush()
        assert store.sstable_count < 4
        assert store.get(b"key010") == b"gen4"

    def test_compaction_drops_tombstones(self, store):
        for i in range(20):
            store.put(f"key{i:03d}".encode(), b"v")
        store.flush()
        for i in range(20):
            store.delete(f"key{i:03d}".encode())
        store.flush()
        store.compact()
        assert store.sstable_count == 0 or all(
            value != TOMBSTONE for _, value in store.iter_items()
        )
        assert store.get(b"key005") is None

    def test_iter_items_merged_view(self, store):
        store.put(b"a", b"1")
        store.flush()
        store.put(b"b", b"2")
        store.put(b"a", b"updated")
        assert list(store.iter_items()) == [(b"a", b"updated"), (b"b", b"2")]


class TestRecovery:
    def test_recover_from_sstables_and_wal(self, oss):
        store = LSMStore(oss, "kv", memtable_bytes=256)
        for i in range(30):
            store.put(f"key{i:03d}".encode(), f"value{i}".encode())
        store.delete(b"key005")
        # Simulate a crash: a new store instance over the same bucket.
        recovered = LSMStore(oss, "kv", memtable_bytes=256)
        recovered.recover()
        assert recovered.get(b"key020") == b"value20"
        assert recovered.get(b"key005") is None

    def test_recover_preserves_table_numbering(self, oss):
        store = LSMStore(oss, "kv", memtable_bytes=128)
        for i in range(50):
            store.put(f"key{i:03d}".encode(), b"x" * 16)
        recovered = LSMStore(oss, "kv", memtable_bytes=128)
        recovered.recover()
        recovered.put(b"new", b"value")
        recovered.flush()
        assert recovered.get(b"new") == b"value"
        assert recovered.get(b"key049") == b"x" * 16

    def test_every_reattach_keeps_what_earlier_instances_logged(self, oss):
        """A fresh store appends after the records it replayed instead of
        overwriting them."""
        store = LSMStore(oss, "kv")
        store.put(b"k1", b"v1")
        for key in (b"k2", b"k3"):
            store = LSMStore(oss, "kv")
            store.recover()
            store.put(key, b"v" + key[1:])
        survivor = LSMStore(oss, "kv")
        survivor.recover()
        assert list(survivor.iter_items()) == [
            (b"k1", b"v1"),
            (b"k2", b"v2"),
            (b"k3", b"v3"),
        ]

    def test_crash_between_flush_table_and_checkpoint_replays_harmlessly(self, oss):
        store = LSMStore(oss, "kv")
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        store.delete(b"a")
        policy = FaultPolicy()
        policy.crash_after_writes(1)  # the SSTable lands, the checkpoint not
        oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.flush()
        oss.set_fault_policy(None)
        survivor = LSMStore(oss, "kv")
        survivor.recover()
        assert survivor.sstable_count == 1
        assert list(survivor.iter_items()) == [(b"b", b"2")]
        # The replayed records reach the next table again; nothing changes.
        survivor.put(b"c", b"3")
        survivor.flush()
        survivor.recover()
        assert list(survivor.iter_items()) == [(b"b", b"2"), (b"c", b"3")]
        assert survivor.get(b"a") is None

    def test_rejects_tiny_compaction_threshold(self, oss):
        with pytest.raises(ValueError):
            LSMStore(oss, "kv", compaction_threshold=1)


class TestWalTraffic:
    def test_put_many_is_one_put_of_its_encoded_records(self, oss):
        store = LSMStore(oss, "kv")
        items = [(b"key%03d" % i, b"value%d" % i) for i in range(40)]
        before = oss.stats.snapshot()
        store.put_many(items)
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.delete_requests) == (1, 0)
        assert spent.bytes_written == sum(
            len(encode_record(OP_PUT, key, value)) for key, value in items
        )

    def test_a_due_fold_adds_one_checkpoint_put_and_one_delete(self, oss, monkeypatch):
        monkeypatch.setattr(deltalog, "FOLD_EVERY", 2)
        store = LSMStore(oss, "kv")
        store.put_many([(b"a", b"1")])
        before = oss.stats.snapshot()
        store.put_many([(b"b", b"2"), (b"c", b"3")])
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.delete_requests) == (2, 1)

    def test_an_empty_batch_writes_nothing(self, oss):
        store = LSMStore(oss, "kv")
        before = oss.stats.snapshot()
        store.put_many([])
        assert oss.stats.diff(before).put_requests == 0

    def test_a_bad_value_anywhere_rejects_the_whole_batch(self, oss):
        store = LSMStore(oss, "kv")
        with pytest.raises(ValueError):
            store.put_many([(b"a", b"1"), (b"b", TOMBSTONE)])
        assert oss.stats.put_requests == 0
        assert store.get(b"a") is None

    def test_flush_is_table_and_checkpoint_plus_a_delete_per_thousand_records(
        self, oss, monkeypatch
    ):
        monkeypatch.setattr(deltalog, "FOLD_EVERY", 1 << 30)
        store = LSMStore(oss, "kv")
        for i in range(2500):
            store.put(b"key%05d" % i, b"v")
        before = oss.stats.snapshot()
        store.flush()
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.delete_requests) == (2, 3)
        assert oss.peek_keys("kv", "wal/") == ["wal/default/active.wal"]


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=20),
            st.binary(min_size=1, max_size=8),
        ),
        max_size=60,
    )
)
@settings(max_examples=25, deadline=None)
def test_lsm_matches_dict_model(operations):
    """The LSM store behaves exactly like a dict under any op sequence."""
    store = LSMStore(ObjectStorageService(), "kv", memtable_bytes=128)
    model: dict[bytes, bytes] = {}
    for op, key_id, value in operations:
        key = f"key{key_id}".encode()
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            store.delete(key)
            model.pop(key, None)
    for key_id in range(21):
        key = f"key{key_id}".encode()
        assert store.get(key) == model.get(key)
    assert dict(store.iter_items()) == model
