"""Differential parity for browse: every ranged read must be
byte-identical to the corresponding slice of a full restore, across an
aged multi-version chain, and a committed write-back's full restore must
equal the in-cache view.  Also covers the fsck cross-checks for browse
staging debris and stale ``cache_flush`` intents."""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from repro import SlimStore
from repro.core.browse import STAGE_PREFIX, BrowseSession
from repro.core.recovery import RecoveryManager
from repro.core.restore_plan import RANGED_READ_GAP_BYTES, RestorePlanner
from repro.sim.metrics import Counters, TimeBreakdown
from tests.conftest import SMALL_CONFIG, make_version_chain, random_bytes

#: Aged-store geometry with browse blocks small enough that single reads
#: span block boundaries, a memory tier smaller than the file (so the
#: disk tier and demotions are exercised), and both tiers together large
#: enough that a fully-warmed file stays resident.
BROWSE_CONFIG = replace(
    SMALL_CONFIG,
    browse_block_bytes=8 * 1024,
    browse_cache_memory_bytes=128 * 1024,
    browse_cache_disk_bytes=256 * 1024,
    browse_readahead_blocks=2,
)


@pytest.fixture(scope="module")
def aged_chain():
    """A six-version aged chain (merging/compaction/reverse dedup ran) and
    the containers its compactions wrote."""
    rng = np.random.default_rng(90210)
    store = SlimStore(BROWSE_CONFIG)
    payloads = make_version_chain(rng)
    compacted: set[int] = set()
    for payload in payloads:
        report = store.backup("vol/f.bin", payload)
        if report.compaction is not None:
            compacted.update(report.compaction.new_container_ids)
    return store, payloads, compacted


@pytest.fixture(scope="module")
def aged(aged_chain):
    store, payloads, _ = aged_chain
    return store, payloads


class TestReadParity:
    def test_random_slices_match_full_restore(self, aged):
        store, payloads = aged
        session = BrowseSession(store)
        rng = np.random.default_rng(4242)
        for version, payload in enumerate(payloads):
            restored = store.restore("vol/f.bin", version).data
            assert restored == payload  # the oracle itself
            handle = session.open("vol/f.bin", version)
            assert handle.size == len(payload)
            for _ in range(12):
                offset = int(rng.integers(0, len(payload)))
                length = int(rng.integers(1, 40_000))
                assert (
                    handle.read(offset, length)
                    == restored[offset : offset + length]
                ), (version, offset, length)

    def test_full_read_matches_every_version(self, aged):
        store, payloads = aged
        session = BrowseSession(store)
        for version, payload in enumerate(payloads):
            handle = session.open("vol/f.bin", version)
            assert handle.read(0, handle.size) == payload

    def test_warm_reads_issue_zero_oss_gets(self, aged):
        store, payloads = aged
        session = BrowseSession(store)
        handle = session.open("vol/f.bin")
        handle.read(0, handle.size)
        rng = np.random.default_rng(777)
        before = store.oss.stats.get_requests
        for _ in range(20):
            offset = int(rng.integers(0, handle.size))
            handle.read(offset, int(rng.integers(1, 16_000)))
        assert store.oss.stats.get_requests == before

    def test_cold_read_amplification_below_whole_version(self, aged):
        store, payloads = aged
        session = BrowseSession(store)
        handle = session.open("vol/f.bin", 2)
        before = store.oss.stats.bytes_read
        handle.read(1_000, 2_000)
        cold_bytes = store.oss.stats.bytes_read - before
        assert 0 < cold_bytes < len(payloads[2])


class TestMovedChunkParity:
    """Cold reads of chunks the G-node moved after their version was
    written: a miss plans them like a restore and must read what the full
    restore reads."""

    @staticmethod
    def _moved(store, records, compacted) -> dict[str, list[int]]:
        """Record indices by how the planner finds each chunk: redirected by
        reverse dedup, in a container compaction wrote, behind an alias
        entry (a superchunk's first chunk)."""
        plan = RestorePlanner(store.storage).plan(
            records, True, RANGED_READ_GAP_BYTES, TimeBreakdown(), Counters(), {}
        )
        moved: dict[str, list[int]] = {"redirected": [], "compacted": [], "alias": []}
        for index, (record, owner) in enumerate(zip(records, plan.resolved)):
            if owner.container_id in compacted:
                moved["compacted"].append(index)
            elif owner.container_id != record.container_id:
                moved["redirected"].append(index)
            if plan.metas[owner.container_id].find(record.fp).alias:
                moved["alias"].append(index)
        return moved

    def test_moved_chunks_read_what_the_full_restore_reads(self, aged_chain):
        store, payloads, compacted = aged_chain
        assert compacted
        seen = {"redirected": 0, "compacted": 0, "alias": 0}
        for version in range(len(payloads)):
            restored = store.restore("vol/f.bin", version).data
            recipe = store.catalog.recipe_version("vol/f.bin", version)
            records = store.storage.recipes.get_recipe("vol/f.bin", recipe).all_records()
            starts = list(accumulate((record.size for record in records), initial=0))
            for kind, indices in self._moved(store, records, compacted).items():
                for index in indices[:: max(1, len(indices) // 4)]:
                    seen[kind] += 1
                    lo, hi = starts[index], starts[index + 1]
                    # The chunk alone, then a read straddling its end; each
                    # from a fresh session, so both are misses.
                    for offset, length in ((lo, hi - lo), (hi - 100, 200)):
                        session = BrowseSession(store)
                        got = session.read("vol/f.bin", offset, length, version)
                        assert got == restored[offset : offset + length], (
                            kind, version, index, offset,
                        )
                        assert session.stats.misses > 0
        assert all(seen.values()), seen

    def test_a_read_across_the_old_end_after_an_extending_write(self, aged):
        """The block holding the committed end misses after a write past it
        grew the file: its tail and the readahead past it are the hole's
        zeros, before and after the flush."""
        store, _ = aged
        base = store.restore("vol/f.bin").data
        handle = BrowseSession(store).open("vol/f.bin")
        end = handle.size
        tail = b"written well past the committed end"
        handle.write(end + 50_000, tail)
        expected = base + bytes(50_000) + tail
        assert handle.read(end - 5_000, 20_000) == expected[end - 5_000 : end + 15_000]
        assert handle.read(0, handle.size) == expected
        version = handle.flush().version
        assert store.restore("vol/f.bin", version).data == expected
        fresh = BrowseSession(store).open("vol/f.bin", version)
        assert fresh.read(end - 5_000, 20_000) == expected[end - 5_000 : end + 15_000]


class TestWriteBackParity:
    def test_committed_write_back_restores_to_in_cache_view(self, aged):
        store, payloads = aged
        session = BrowseSession(store)
        rng = np.random.default_rng(1717)
        handle = session.open("vol/f.bin")
        base_version = handle.version
        for _ in range(5):
            offset = int(rng.integers(0, handle.size - 4_000))
            handle.write(offset, random_bytes(rng, 4_000))
        handle.write(handle.size + 2_000, b"appended past a hole")
        in_cache = handle.read(0, handle.size)
        report = handle.flush()
        assert report.version == base_version + 1
        assert store.restore("vol/f.bin").data == in_cache
        # And the browse view of the published version agrees too.
        fresh = BrowseSession(store).open("vol/f.bin")
        assert fresh.read(0, fresh.size) == in_cache

    def test_flush_leaves_no_staging_and_journal_empty(self, aged):
        store, _ = aged
        session = BrowseSession(store)
        handle = session.open("vol/f.bin")
        handle.write(123, b"one more edit")
        handle.flush()
        assert not store.oss.peek_keys(store.bucket, STAGE_PREFIX)
        assert RecoveryManager(store).inspect().clean


class TestFsckCacheChecks:
    @pytest.fixture
    def store(self, rng):
        store = SlimStore(BROWSE_CONFIG)
        store.backup("f", random_bytes(rng, 50_000))
        return store

    def test_orphaned_staging_bytes_are_flagged_and_reaped(self, store):
        store.oss.put_object(store.bucket, "browsecache/000000000042/00000000",
                             b"orphaned staging bytes")
        manager = RecoveryManager(store)
        report = manager.inspect()
        assert not report.clean
        assert report.cache_debris == ["browsecache/000000000042/00000000"]
        recovery = manager.run(report.open_intents)
        assert recovery.cache_staging_reaped == [
            "browsecache/000000000042/00000000"
        ]
        after = manager.inspect()
        assert after.clean and not after.cache_debris

    def test_stale_cache_flush_intent_is_flagged_and_discarded(self, store):
        seq = store.storage.journal.begin(
            "cache_flush", staged=False, path="f", base_version=0, version=1,
            size=50_000, sha="0" * 64, blocks=[0], block_bytes=8 * 1024,
        )
        manager = RecoveryManager(store)
        report = manager.inspect()
        assert seq in report.stale_cache_intents
        recovery = manager.run(report.open_intents)
        assert (seq, "cache_flush") in recovery.discarded
        assert store.versions("f") == [0]  # nothing became visible
        assert manager.inspect().clean

    def test_staging_of_an_open_intent_is_not_debris(self, store):
        seq = store.storage.journal.begin(
            "cache_flush", staged=False, path="f", base_version=0, version=1,
            size=50_000, sha="0" * 64, blocks=[0], block_bytes=8 * 1024,
        )
        key = f"browsecache/{seq:012d}/00000000"
        store.oss.put_object(store.bucket, key, b"in-flight staging")
        report = RecoveryManager(store).inspect()
        # The in-flight flush owns its staging: stale intent, not debris.
        assert report.cache_debris == []
        assert seq in report.stale_cache_intents
