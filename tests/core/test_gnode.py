"""Tests for G-node space management (Sections V-B, VI-A)."""

from collections import Counter

import pytest

from repro.core.config import SlimStoreConfig
from repro.core.gnode import GNode
from repro.core.restore import RestoreEngine
from repro.core.storage import StorageLayer
from tests.conftest import RegisteringEngine, mutate, random_bytes

CONFIG = SlimStoreConfig(
    container_bytes=64 * 1024,
    segment_bytes=32 * 1024,
    chunk_merging=False,
    sparse_utilization_threshold=0.5,
    container_rewrite_threshold=0.2,
)


def compact(gnode: GNode, result):
    """Compact the sparse containers of one backup job's version."""
    return gnode.compact_sparse(
        result.path, result.version, result.recipe, result.new_container_ids
    )


@pytest.fixture
def storage(oss) -> StorageLayer:
    return StorageLayer.create(oss)


@pytest.fixture
def nodes(storage):
    return (
        RegisteringEngine(CONFIG, storage),
        RestoreEngine(CONFIG, storage),
        GNode(CONFIG, storage),
    )


class TestReverseDedup:
    def test_registers_new_chunks(self, nodes, storage, rng):
        backup, _, gnode = nodes
        result = backup.backup("f", random_bytes(rng, 128 * 1024))
        report = gnode.reverse_dedup(result.new_container_ids)
        assert report.chunks_scanned > 0
        assert report.duplicates_removed == 0
        # Every stored chunk is now known to the global index.
        meta = storage.containers.read_meta(result.new_container_ids[0])
        for entry in meta.live_entries():
            assert storage.global_index.lookup(entry.fp) is not None

    def test_finds_cross_file_duplicates(self, nodes, storage, rng):
        """Two unrelated paths with identical content: the L-node misses
        the duplicates (no name/similarity match registered yet at probe
        time for file 'b'... it will find them similar), so force the case
        with distinct payload framing."""
        backup, _, gnode = nodes
        shared = random_bytes(rng, 64 * 1024)
        first = backup.backup("a", random_bytes(rng, 32 * 1024) + shared)
        gnode.reverse_dedup(first.new_container_ids)
        # Different header defeats the header-probe similarity detection.
        second = backup.backup("b", random_bytes(rng, 512 * 1024) + shared)
        report = gnode.reverse_dedup(second.new_container_ids)
        if second.counters.get("detect_none"):
            assert report.duplicates_removed > 0
            assert report.bytes_marked_deleted > 0

    def test_reverse_dedup_deletes_old_copy(self, nodes, storage, rng):
        backup, restore, gnode = nodes
        data = random_bytes(rng, 128 * 1024)
        first = backup.backup("a", data)
        gnode.reverse_dedup(first.new_container_ids)
        # Back up identical content under an unrelated name but with the
        # similarity detection crippled so everything stores again.
        storage.similar_index.forget_version("a", 0)
        second = backup.backup("b", data)
        report = gnode.reverse_dedup(second.new_container_ids)
        assert report.duplicates_removed > 0
        # Old copies are marked deleted in the OLD containers, and both
        # files still restore (the old one via global-index redirects).
        assert restore.restore("b", 0).data == data
        assert restore.restore("a", 0).data == data

    def test_rewrite_threshold_reclaims_space(self, nodes, storage, rng):
        backup, _, gnode = nodes
        data = random_bytes(rng, 128 * 1024)
        first = backup.backup("a", data)
        gnode.reverse_dedup(first.new_container_ids)
        before = storage.containers.stored_bytes()
        storage.similar_index.forget_version("a", 0)
        second = backup.backup("b", data)
        report = gnode.reverse_dedup(second.new_container_ids)
        assert report.containers_rewritten > 0
        assert report.bytes_reclaimed > 0
        # Total never exceeds two copies and shrinks below it.
        assert storage.containers.stored_bytes() < before * 2

    def test_removed_duplicates_are_durable(self, nodes, storage, rng):
        """Every duplicate the passes count is a deletion mark on OSS:
        re-read from OSS, each fingerprint stored more than once keeps
        exactly one live copy, and the extra copies add up to the count."""
        backup, _, gnode = nodes
        containers = storage.containers
        stored: Counter[bytes] = Counter()
        removed = 0
        data = random_bytes(rng, 128 * 1024)
        for version in range(4):
            for name in ("a", "b"):
                result = backup.backup(f"{name}{version}", data)
                for cid in result.new_container_ids:
                    stored.update(e.fp for e in containers.read_meta(cid).entries)
                report = gnode.reverse_dedup(result.new_container_ids)
                removed += report.duplicates_removed
                # Hide the file from similarity detection so the next
                # backup stores the shared chunks again for the G-node.
                storage.similar_index.forget_version(result.path, result.version)
            data = mutate(rng, data, 2, 8 * 1024)
        duplicated = [fp for fp, copies in stored.items() if copies > 1]
        assert removed > 0
        assert sum(stored[fp] - 1 for fp in duplicated) == removed
        live: Counter[bytes] = Counter(
            entry.fp
            for cid in containers.container_ids()
            for entry in containers.read_meta(cid).live_lookup_entries()
        )
        assert {fp: live[fp] for fp in duplicated} == dict.fromkeys(duplicated, 1)

    def test_idempotent_on_reprocessing(self, nodes, rng):
        backup, _, gnode = nodes
        result = backup.backup("f", random_bytes(rng, 64 * 1024))
        gnode.reverse_dedup(result.new_container_ids)
        report = gnode.reverse_dedup(result.new_container_ids)
        assert report.duplicates_removed == 0


class TestSparseCompaction:
    def _build_fragmented(self, backup, gnode, rng, versions=6):
        """Age a file until old containers serve the new version sparsely."""
        data = random_bytes(rng, 256 * 1024)
        results = [backup.backup("f", data)]
        for _ in range(versions - 1):
            data = mutate(rng, data, runs=4, run_bytes=16 * 1024)
            results.append(backup.backup("f", data))
        return data, results

    def test_compaction_triggers_on_sparse_containers(self, nodes, rng):
        backup, _, gnode = nodes
        _, results = self._build_fragmented(backup, gnode, rng)
        reports = [compact(gnode, result) for result in results]
        assert any(report.sparse_containers for report in reports)
        moving = [r for r in reports if r.sparse_containers]
        assert all(r.chunks_moved > 0 for r in moving)

    def test_recipe_updated_and_restorable(self, nodes, storage, rng):
        backup, restore, gnode = nodes
        data, results = self._build_fragmented(backup, gnode, rng)
        report = compact(gnode, results[-1])
        latest = storage.recipes.get_recipe("f", results[-1].version)
        if report.sparse_containers:
            moved_into = set(report.new_container_ids)
            assert moved_into & latest.referenced_containers()
        assert restore.restore("f", results[-1].version).data == data

    def test_old_versions_survive_compaction(self, nodes, storage, rng):
        backup, restore, gnode = nodes
        data = random_bytes(rng, 256 * 1024)
        payloads = [data]
        backup.backup("f", data)
        for _ in range(5):
            payloads.append(mutate(rng, payloads[-1], runs=4, run_bytes=16 * 1024))
            result = backup.backup("f", payloads[-1])
            gnode.reverse_dedup(result.new_container_ids)
            compact(gnode, result)
        for version, payload in enumerate(payloads):
            assert restore.restore("f", version).data == payload, version

    def test_new_version_locality_improves(self, nodes, rng):
        backup, restore, gnode = nodes
        _, results = self._build_fragmented(backup, gnode, rng, versions=8)
        before = restore.restore("f", results[-1].version)
        report = compact(gnode, results[-1])
        after = restore.restore("f", results[-1].version)
        if report.sparse_containers:
            assert after.containers_read <= before.containers_read
        assert after.data == before.data

    def test_no_compaction_when_disabled_by_threshold(self, storage, rng):
        config = CONFIG.with_overrides(sparse_utilization_threshold=0.01)
        backup = RegisteringEngine(config, storage)
        gnode = GNode(config, storage)
        data = random_bytes(rng, 128 * 1024)
        backup.backup("f", data)
        result = backup.backup("f", mutate(rng, data, 2, 8192))
        report = compact(gnode, result)
        assert report.sparse_containers == []
        assert report.chunks_moved == 0
