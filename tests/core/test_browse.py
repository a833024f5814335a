"""Unit tests for browse sessions: random-access reads, write-back
writes, truncate, flush-as-new-version, and the cache counters."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import SlimStore
from repro.core.browse import BrowseSession
from repro.core.container import ContainerMeta, ContainerStore
from repro.errors import (
    BrowseError,
    CacheFullError,
    IntegrityError,
    VersionNotFoundError,
)
from tests.conftest import SMALL_CONFIG, random_bytes

#: Small blocks so a ~100 KB file spans many cache blocks.
BROWSE_CONFIG = replace(
    SMALL_CONFIG,
    browse_block_bytes=8 * 1024,
    browse_cache_memory_bytes=32 * 1024,
    browse_cache_disk_bytes=64 * 1024,
    browse_readahead_blocks=2,
)


@pytest.fixture
def store(rng) -> tuple[SlimStore, list[bytes]]:
    store = SlimStore(BROWSE_CONFIG)
    v0 = random_bytes(rng, 100_000)
    v1 = bytearray(v0)
    v1[20_000:28_000] = random_bytes(rng, 8_000)
    store.backup("data/f.bin", v0)
    store.backup("data/f.bin", bytes(v1))
    return store, [v0, bytes(v1)]


@pytest.fixture
def session(store) -> BrowseSession:
    return BrowseSession(store[0])


class TestOpen:
    def test_open_latest_and_pinned(self, store, session):
        _, payloads = store
        assert session.open("data/f.bin").version == 1
        assert session.open("data/f.bin", 0).version == 0
        assert session.open("data/f.bin", 0).size == len(payloads[0])

    def test_open_missing_path_raises(self, session):
        with pytest.raises(VersionNotFoundError):
            session.open("nope")

    def test_open_missing_version_raises(self, session):
        with pytest.raises(VersionNotFoundError):
            session.open("data/f.bin", 7)

    def test_handles_are_memoised(self, session):
        assert session.open("data/f.bin") is session.open("data/f.bin", 1)


class TestRead:
    def test_slices_match_both_versions(self, store, session):
        _, payloads = store
        for version, payload in enumerate(payloads):
            handle = session.open("data/f.bin", version)
            for offset, length in [(0, 100), (19_990, 40), (25_000, 8192),
                                   (99_990, 100), (0, 200_000)]:
                assert handle.read(offset, length) == payload[offset:offset + length]

    def test_read_at_or_past_eof_is_empty(self, session):
        handle = session.open("data/f.bin")
        assert handle.read(handle.size, 10) == b""
        assert handle.read(handle.size + 5, 10) == b""
        assert handle.read(0, 0) == b""

    def test_negative_range_raises(self, session):
        handle = session.open("data/f.bin")
        with pytest.raises(BrowseError):
            handle.read(-1, 10)
        with pytest.raises(BrowseError):
            handle.read(0, -1)

    def test_warm_read_issues_no_oss_requests(self, store, session):
        slim, payloads = store
        handle = session.open("data/f.bin")
        handle.read(0, handle.size)  # cold: populates the cache
        before = slim.oss.stats.get_requests
        assert handle.read(10_000, 30_000) == payloads[1][10_000:40_000]
        assert slim.oss.stats.get_requests == before
        assert session.stats.misses > 0 and session.stats.hits > 0

    def test_readahead_pulls_adjacent_blocks(self, session):
        handle = session.open("data/f.bin")
        handle.read(0, 100)  # one touched block, two readahead
        assert session.stats.readahead_blocks == 2
        assert session.cache.contains(("data/f.bin", 1, 1))
        assert session.cache.contains(("data/f.bin", 1, 2))
        session.stats.misses = 0
        handle.read(8 * 1024, 100)  # readahead made this a hit
        assert session.stats.misses == 0

    def test_cold_read_is_ranged_not_whole_version(self, store, session):
        slim, payloads = store
        before = slim.oss.stats.bytes_read
        session.open("data/f.bin").read(0, 1_000)
        cold_bytes = slim.oss.stats.bytes_read - before
        assert cold_bytes < len(payloads[1])


class TestMissPath:
    def test_a_cold_session_slices_only_the_planned_extents(
        self, store, session, monkeypatch
    ):
        """A miss cuts each planned record out of its span by the extent
        the plan carries: it never walks a container's entries, and each
        extent is the owner metadata's entry for the chunk."""
        slim, payloads = store
        walked = []
        original = ContainerMeta.live_lookup_entries
        monkeypatch.setattr(
            ContainerMeta,
            "live_lookup_entries",
            lambda meta: walked.append(meta.container_id) or original(meta),
        )
        plans = []
        plan = session.planner.plan
        monkeypatch.setattr(
            session.planner, "plan", lambda *args, **kw: plans.append(plan(*args, **kw)) or plans[-1]
        )
        for version, payload in enumerate(payloads):
            recipe = slim.storage.recipes.get_recipe("data/f.bin", version)
            assert len(recipe.referenced_containers()) > 1
            handle = session.open("data/f.bin", version)
            assert handle.read(0, handle.size) == payload
        assert walked == []
        assert len(plans) == session.stats.misses > 2
        for plan in plans:
            assert len(plan.extents) == len(plan.resolved) > 0
            for record, extent in zip(plan.resolved, plan.extents):
                entry = plan.metas[record.container_id].find(record.fp)
                assert not entry.deleted
                assert extent == (entry.offset, entry.size)

    def test_a_corrupt_chunk_fails_verification(self, store, session):
        slim, _ = store
        records = slim.storage.recipes.get_recipe("data/f.bin", 1).all_records()
        record = records[3]
        entry = slim.storage.containers.read_meta(record.container_id).find(record.fp)
        objects = slim.oss._backend(slim.bucket)._objects
        key = ContainerStore.DATA_KEY.format(cid=record.container_id)
        damaged = bytearray(objects[key])
        damaged[entry.offset + 7] ^= 0xFF
        objects[key] = bytes(damaged)
        offset = sum(r.size for r in records[:3])
        with pytest.raises(IntegrityError):
            session.read("data/f.bin", offset + 100, 10)


class TestWrite:
    def test_read_your_writes(self, store, session):
        _, payloads = store
        handle = session.open("data/f.bin")
        assert handle.write(30_000, b"EDITED") == 6
        expected = bytearray(payloads[1])
        expected[30_000:30_006] = b"EDITED"
        assert handle.read(29_990, 30) == bytes(expected[29_990:30_020])
        assert handle.dirty
        assert handle.dirty_indices() == [30_000 // (8 * 1024)]

    def test_write_spanning_blocks(self, store, session):
        _, payloads = store
        handle = session.open("data/f.bin")
        patch = bytes(range(256)) * 100  # 25 600 bytes, spans 4+ blocks
        handle.write(10_000, patch)
        expected = bytearray(payloads[1])
        expected[10_000:10_000 + len(patch)] = patch
        assert handle.read(0, handle.size) == bytes(expected)

    def test_write_past_eof_extends_with_zero_hole(self, store, session):
        _, payloads = store
        handle = session.open("data/f.bin")
        base = handle.size
        handle.write(base + 5_000, b"tail")
        assert handle.size == base + 5_004
        assert handle.read(base, 5_000) == bytes(5_000)
        assert handle.read(base + 5_000, 10) == b"tail"

    def test_negative_offset_raises(self, session):
        with pytest.raises(BrowseError):
            session.open("data/f.bin").write(-1, b"x")

    def test_empty_write_is_a_noop(self, session):
        handle = session.open("data/f.bin")
        assert handle.write(0, b"") == 0
        assert not handle.dirty

    def test_cache_full_of_dirty_blocks_refuses_more_writes(self, rng):
        config = replace(
            SMALL_CONFIG,
            browse_block_bytes=8 * 1024,
            browse_cache_memory_bytes=8 * 1024,
            browse_cache_disk_bytes=8 * 1024,
            browse_readahead_blocks=0,
        )
        store = SlimStore(config)
        store.backup("f", random_bytes(rng, 40_000))
        session = BrowseSession(store)
        handle = session.open("f")
        handle.write(0, b"a" * 8 * 1024)
        handle.write(8 * 1024, b"b" * 8 * 1024)
        with pytest.raises(CacheFullError):
            handle.write(16 * 1024, b"c" * 8 * 1024)
        # Flushing drains the dirty set; the refused write then succeeds.
        handle.flush()
        assert handle.write(16 * 1024, b"c" * 8 * 1024) == 8 * 1024


class TestTruncate:
    def test_shrink_then_read(self, store, session):
        _, payloads = store
        handle = session.open("data/f.bin")
        handle.truncate(10_000)
        assert handle.size == 10_000
        assert handle.read(0, 100_000) == payloads[1][:10_000]
        assert handle.dirty  # resize alone dirties the file

    def test_shrink_keeps_writes_inside_new_size(self, session):
        handle = session.open("data/f.bin")
        handle.write(1_000, b"KEEP")
        handle.write(50_000, b"DROPPED")
        handle.truncate(10_000)
        assert handle.read(1_000, 4) == b"KEEP"
        assert handle.dirty_indices() == [0]

    def test_grow_reads_zeros(self, session):
        handle = session.open("data/f.bin")
        base = handle.size
        handle.truncate(base + 1_000)
        assert handle.read(base, 2_000) == bytes(1_000)

    def test_negative_size_raises(self, session):
        with pytest.raises(BrowseError):
            session.open("data/f.bin").truncate(-1)


class TestFlush:
    def test_clean_flush_is_none(self, session):
        assert session.open("data/f.bin").flush() is None
        assert session.flush() == []

    def test_flush_commits_new_version(self, store, session):
        slim, payloads = store
        handle = session.open("data/f.bin")
        handle.write(40_000, b"COMMITTED")
        report = handle.flush()
        assert report.version == 2 and report.base_version == 1
        assert report.blocks_written >= 1
        assert report.staged_bytes > 0
        expected = bytearray(payloads[1])
        expected[40_000:40_009] = b"COMMITTED"
        assert slim.restore("data/f.bin").data == bytes(expected)
        assert slim.versions("data/f.bin") == [0, 1, 2]
        # The handle now tracks the published version, clean.
        assert handle.version == 2 and not handle.dirty
        assert session.stats.dirty_writebacks >= 1

    def test_flush_keeps_cache_warm_under_new_version(self, store, session):
        slim, _ = store
        handle = session.open("data/f.bin")
        handle.read(0, handle.size)
        handle.write(0, b"warm")
        handle.flush()
        before = slim.oss.stats.get_requests
        assert handle.read(0, 4) == b"warm"
        assert slim.oss.stats.get_requests == before

    def test_flush_leaves_no_staging_debris(self, store, session):
        slim, _ = store
        handle = session.open("data/f.bin")
        handle.write(0, b"x")
        handle.flush()
        assert not slim.oss.peek_keys(slim.bucket, "browsecache/")

    def test_truncate_only_flush_commits(self, store, session):
        slim, payloads = store
        handle = session.open("data/f.bin")
        handle.truncate(5_000)
        report = handle.flush()
        assert report is not None
        assert slim.restore("data/f.bin").data == payloads[1][:5_000]

    def test_flush_of_pinned_old_version_branches_from_it(self, store, session):
        slim, payloads = store
        handle = session.open("data/f.bin", 0)
        handle.write(0, b"OLD-BASE-EDIT")
        report = handle.flush()
        assert report.base_version == 0 and report.version == 2
        expected = bytearray(payloads[0])
        expected[:13] = b"OLD-BASE-EDIT"
        assert slim.restore("data/f.bin", 2).data == bytes(expected)

    def test_session_flush_covers_all_dirty_files(self, store, session):
        slim, _ = store
        slim.backup("data/g.bin", b"other file contents")
        session.open("data/f.bin").write(0, b"f-edit")
        session.open("data/g.bin").write(0, b"g-edit")
        reports = session.flush()
        assert {r.path for r in reports} == {"data/f.bin", "data/g.bin"}
        assert session.flush() == []


class TestDiscardAndStat:
    def test_discard_throws_away_writes(self, store, session):
        _, payloads = store
        handle = session.open("data/f.bin")
        handle.write(0, b"ZZZ")
        handle.truncate(50)
        assert handle.discard() == 1
        assert not handle.dirty
        assert handle.size == len(payloads[1])
        assert handle.read(0, 3) == payloads[1][:3]

    def test_stat_reflects_dirtiness(self, session):
        handle = session.open("data/f.bin")
        stat = handle.stat()
        assert stat.path == "data/f.bin" and stat.version == 1
        assert stat.size == handle.size and not stat.dirty
        handle.write(0, b"x")
        assert handle.stat().dirty and handle.stat().dirty_blocks == 1

    def test_stats_line_mentions_counters(self, session):
        handle = session.open("data/f.bin")
        handle.read(0, 100)
        line = session.stats_line()
        assert line.startswith("blockcache:")
        assert "misses=1" in line
