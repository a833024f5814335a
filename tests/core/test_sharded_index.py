"""Sharded global index: placement, batched ops, recovery, degradation."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.global_index import GlobalIndex, shard_of
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService


def _fp(i: int) -> bytes:
    """A realistic fingerprint: uniform prefixes spread over the shards."""
    return hashlib.sha1(i.to_bytes(8, "big")).digest()


@pytest.fixture
def index(oss) -> GlobalIndex:
    return GlobalIndex(oss, shard_count=4)


class TestShardPlacement:
    def test_single_shard_maps_everything_to_zero(self):
        assert all(shard_of(_fp(i), 1) == 0 for i in range(100))

    def test_prefix_decides_the_shard(self):
        fp = bytes.fromhex("beef") + b"\x00" * 18
        assert shard_of(fp, 16) == 0xBEEF % 16

    def test_uniform_fingerprints_balance_the_shards(self):
        counts = [0] * 8
        for i in range(4096):
            counts[shard_of(_fp(i), 8)] += 1
        assert min(counts) > 4096 / 8 * 0.8

    def test_single_shard_keeps_the_seed_store_name(self, oss):
        legacy = GlobalIndex(oss, shard_count=1)
        legacy.assign(_fp(1), 7)
        legacy.flush()
        # A fresh single-shard index over the same bucket recovers it.
        attached = GlobalIndex(oss, shard_count=1)
        attached.recover()
        assert attached.lookup(_fp(1)) == 7


class TestShardedOperations:
    def test_lookup_assign_remove_roundtrip(self, index):
        for i in range(64):
            index.assign(_fp(i), i * 10)
        for i in range(64):
            assert index.lookup(_fp(i)) == i * 10
        index.remove(_fp(0))
        assert index.lookup(_fp(0)) is None

    def test_bloom_rejects_unknown_fingerprints(self, index):
        index.assign(_fp(1), 1)
        assert index.maybe_contains(_fp(1))
        assert not index.maybe_contains(_fp(999999))

    def test_get_many_matches_serial_lookups(self, index):
        for i in range(200):
            index.assign(_fp(i), i)
        index.flush()
        fps = [_fp(i) for i in range(250)]  # 50 of them unindexed
        result = index.get_many(fps)
        assert result.failed == []
        for i, fp in enumerate(fps):
            assert result.owners[fp] == (i if i < 200 else None)
        # One RPC per touched shard, and shard timings to match.
        assert len(result.shard_seconds) <= index.shard_count
        assert result.parallel_seconds() <= sum(result.shard_seconds)

    def test_put_many_matches_serial_assigns(self, index):
        seconds = index.put_many([(_fp(i), i) for i in range(100)])
        assert len(seconds) <= index.shard_count
        for i in range(100):
            assert index.lookup(_fp(i)) == i
            assert index.maybe_contains(_fp(i))

    def test_iter_items_spans_all_shards(self, index):
        assignments = {_fp(i): i for i in range(64)}
        index.put_many(assignments.items())
        assert dict(index.iter_items()) == assignments

    def test_recover_rebuilds_every_shard_and_bloom(self, oss):
        index = GlobalIndex(oss, shard_count=4)
        for i in range(128):
            index.assign(_fp(i), i)
        index.flush()

        attached = GlobalIndex(oss, shard_count=4)
        attached.recover()
        for i in range(128):
            assert attached.lookup(_fp(i)) == i
            assert attached.maybe_contains(_fp(i))
        stats = attached.shard_stats()
        assert len(stats) == 4
        assert sum(s["entries"] for s in stats) == 128
        assert all(s["entries"] > 0 for s in stats)

    def test_shard_count_must_be_positive(self, oss):
        with pytest.raises(ValueError):
            GlobalIndex(oss, shard_count=0)


class TestBatchDegradation:
    def test_failed_shards_collect_instead_of_raising(self):
        faults = FaultPolicy(seed=7)
        oss = ObjectStorageService(faults=faults)
        index = GlobalIndex(oss, shard_count=4)
        for i in range(64):
            index.assign(_fp(i), i)
        index.flush()  # push everything to SSTables so reads hit OSS

        faults.outage({"get"})
        result = index.get_many([_fp(i) for i in range(64)])
        faults.revive()

        assert result.owners == {}
        assert sorted(result.failed) == sorted(_fp(i) for i in range(64))
        assert index.counters.get("index_batch_shard_failures") == 4
        # Once OSS recovers the same batch answers normally.
        healthy = index.get_many([_fp(i) for i in range(64)])
        assert healthy.failed == []
        assert all(healthy.owners[_fp(i)] == i for i in range(64))
