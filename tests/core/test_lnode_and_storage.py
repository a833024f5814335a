"""Tests for the stateless L-node wrapper and the storage layer bundle."""

import pytest

from repro.core.config import SlimStoreConfig
from repro.core.lnode import LNode
from repro.core.storage import StorageLayer
from tests.conftest import random_bytes

CONFIG = SlimStoreConfig(container_bytes=64 * 1024, segment_bytes=32 * 1024)


@pytest.fixture
def storage(oss) -> StorageLayer:
    return StorageLayer.create(oss)


class TestStorageLayer:
    def test_create_wires_all_stores(self, storage, oss):
        assert storage.oss is oss
        assert storage.containers.oss is oss
        assert storage.similar_index.latest_version("x") is None
        assert storage.global_index.lookup(b"\x00" * 20) is None

    def test_global_index_always_prefilters(self, storage):
        """The layer's index is Bloom-prefiltered: an unseen fingerprint
        is definitely new, an assigned one may be present."""
        index = storage.global_index
        assert not index.maybe_contains(b"\x01" * 20)
        index.assign(b"\x01" * 20, 7)
        assert index.maybe_contains(b"\x01" * 20)


class TestLNode:
    def test_backup_and_restore_through_node(self, storage, rng):
        node = LNode(0, CONFIG, storage)
        data = random_bytes(rng, 128 * 1024)
        result = node.backup("f", data)
        assert result.version == 0
        restored = node.restore("f", 0)
        assert restored.data == data
        assert node.jobs_executed == 2

    def test_nodes_share_storage_state(self, storage, rng):
        """Statelessness: any node can serve any job because all state is
        in the storage layer."""
        first = LNode(0, CONFIG, storage)
        second = LNode(1, CONFIG, storage)
        data = random_bytes(rng, 128 * 1024)
        first_result = first.backup("f", data)
        storage.similar_index.register("f", 0, first_result.representatives)
        result = second.backup("f", data)  # dedups against node 0's work
        assert result.dedup_ratio > 0.9
        assert second.restore("f", 0).data == data

    def test_fresh_engine_per_job(self, storage, rng):
        """No dedup state leaks between jobs on the same node."""
        node = LNode(0, CONFIG, storage)
        data = random_bytes(rng, 64 * 1024)
        node.backup("a", data)
        result = node.backup("b", random_bytes(rng, 64 * 1024))
        assert result.counters.get("detect_none") == 1
