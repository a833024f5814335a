"""Repository invariants after the full maintenance cycle under faults.

The G-node's offline passes (reverse dedup, sparse container compaction),
user-driven version collection and degraded-mode reclamation all rewrite
shared state while a seeded FaultPolicy injects transient OSS failures.
Whatever combination ran, three invariants must hold afterwards:

1. ``scrub()`` finds zero corrupt chunks and zero dangling records;
2. every retained version restores byte-identically;
3. the sharded global index is coherent — every entry resolves to a live
   chunk, and the batched path answers exactly like the serial path.
"""

from __future__ import annotations

import pytest

from tests.conftest import SMALL_CONFIG, make_chaos_store, make_version_chain


@pytest.fixture(scope="module")
def maintained_store():
    """A chaos-backed store after backups, deletes, a drain and compaction."""
    import numpy as np

    rng = np.random.default_rng(2468)
    store, faults = make_chaos_store(
        seed=4242,
        get_error_rate=0.04,
        put_error_rate=0.04,
        torn_write_rate=0.03,
    )
    chains = {
        "db/t1": make_version_chain(rng, versions=6, size=192 * 1024),
        "db/t2": make_version_chain(
            rng, versions=4, size=96 * 1024, runs=3, run_bytes=4 * 1024
        ),
    }
    for path, chain in chains.items():
        for version, data in enumerate(chain):
            if path == "db/t1" and version == 3:
                # One version lands during a read outage: degraded dedup.
                faults.outage({"get"})
                report = store.backup(path, data)
                faults.revive()
                assert report.degraded
            else:
                store.backup(path, data)

    # Version collection: retire the two oldest versions of the big file.
    store.delete_version("db/t1", 0)
    store.delete_version("db/t1", 1)
    # Reverse dedup over the degraded version's duplicate copies.
    drained = store.drain()
    assert drained is not None and store.pending_versions() == []
    # Quiesce the endpoint for the verification phase: the invariants are
    # about the state maintenance left behind, not about live fault noise.
    store.oss.set_fault_policy(None)
    return store, chains


def test_scrub_reports_zero_corruption(maintained_store):
    store, _ = maintained_store
    report = store.scrub()
    assert report.clean
    assert report.corrupt_chunks == []
    assert report.unresolvable_records == []
    assert report.containers_checked > 0
    assert report.chunks_verified > 0


def test_all_retained_versions_restore_byte_exact(maintained_store):
    store, chains = maintained_store
    assert store.versions("db/t1") == [2, 3, 4, 5]
    assert store.versions("db/t2") == [0, 1, 2, 3]
    for path, chain in chains.items():
        for version in store.versions(path):
            assert store.restore(path, version).data == chain[version]


def test_sharded_index_resolves_every_entry_to_a_live_chunk(maintained_store):
    store, _ = maintained_store
    index = store.storage.global_index
    assert index.shard_count == SMALL_CONFIG.index_shard_count > 1

    entries = list(index.iter_items())
    assert entries, "maintenance must not empty the index"
    containers = store.storage.containers
    meta_cache = {}
    for fp, container_id in entries:
        # Prefix sharding: the entry sits in the shard its prefix selects.
        expected_shard = int.from_bytes(fp[:2], "big") % index.shard_count
        assert index.shard_of(fp) == expected_shard
        assert containers.exists(container_id), fp.hex()[:12]
        meta = meta_cache.get(container_id)
        if meta is None:
            meta = meta_cache[container_id] = containers.read_meta(container_id)
        entry = meta.find(fp)
        assert entry is not None and not entry.deleted, (
            f"index points {fp.hex()[:12]} at container {container_id} "
            "but no live copy is there"
        )


def test_batched_lookup_agrees_with_serial_lookup(maintained_store):
    store, _ = maintained_store
    index = store.storage.global_index
    fps = [fp for fp, _owner in index.iter_items()]
    # Add fingerprints the index has never seen: batched must answer None.
    unknown = [bytes([i]) * 20 for i in range(7)]
    result = index.get_many(fps + unknown)
    assert result.failed == []
    assert len(result.shard_seconds) <= index.shard_count
    for fp in fps:
        assert result.owners[fp] == index.lookup(fp)
    for fp in unknown:
        assert result.owners[fp] is None
