"""Exact full vision: the restore cache's statuses against brute force.

:class:`FullVisionCache` keeps each fingerprint's remaining references in a
dict.  The property below drives it over repeat-heavy streams with window
and capacity settings small enough to force demotion, and after every
consume and every window slide compares ``status_of`` with a scan of the
remaining suffix.  Two facts follow that the cache relies on:

* a consumed fingerprint is always inside the window, so ``consume`` never
  has to drop anything (the window exit does it);
* every chunk in the memory ``S_L`` bucket still has a remaining
  reference, so eviction never meets a useless straggler.

The second test restores through the paper's counting Bloom filter
(``tests/kvstore/counting_bloom.py``) in place of the exact counts and
checks that both issue the same container reads.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import restore as restore_module
from repro.core.recipe import ChunkRecord
from repro.core.restore import RestoreEngine
from repro.core.restore_cache import (
    STATUS_IN_WINDOW,
    STATUS_LATER,
    STATUS_USELESS,
    FullVisionCache,
    LookAheadWindow,
)
from repro.core.storage import StorageLayer
from repro.workloads.sdb import SDBConfig, SDBGenerator
from tests.conftest import SMALL_CONFIG, RegisteringEngine
from tests.kvstore.counting_bloom import CountingBloomFilter

CHUNK = 100
STRANGER = b"\xee" * 20  # read alongside other chunks, never referenced


def fp_of(key: int) -> bytes:
    return key.to_bytes(20, "big")


def expected_status(fps: list[bytes], fp: bytes, consumed: int, position: int, window: int) -> str:
    if fp in fps[position : position + window]:
        return STATUS_IN_WINDOW
    if fp in fps[consumed:]:
        return STATUS_LATER
    return STATUS_USELESS


def check(cache: FullVisionCache, fps: list[bytes], consumed: int, position: int, window: int) -> None:
    for fp in set(fps) | {STRANGER}:
        assert cache.status_of(fp) == expected_status(fps, fp, consumed, position, window)
    assert all(cache.status_of(fp) == STATUS_IN_WINDOW for fp in cache._mem_window)
    assert all(cache.status_of(fp) == STATUS_LATER for fp in cache._mem_later)
    if not cache.counters.get("evicted_in_window"):
        # An in-window chunk demoted to disk and spliced from there is the
        # one way a useless chunk stays resident; without one, none does.
        assert all(cache.status_of(fp) != STATUS_USELESS for fp in cache._disk)
    assert cache.memory_used == sum(map(len, cache._mem_window.values())) + sum(
        map(len, cache._mem_later.values())
    )
    assert cache.disk_used == sum(map(len, cache._disk.values()))


@given(
    stream=st.integers(1, 8).flatmap(
        lambda alphabet: st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=60)
    ),
    window=st.integers(1, 16),
    memory_chunks=st.integers(1, 6),
    disk_chunks=st.one_of(st.integers(0, 4), st.just(10_000)),
)
@settings(max_examples=200, deadline=None)
def test_status_matches_brute_force(stream, window, memory_chunks, disk_chunks):
    fps = [fp_of(key) for key in stream]
    records = [ChunkRecord(fp=fp, container_id=0, size=CHUNK) for fp in fps]
    law = LookAheadWindow(records, window)
    cache = FullVisionCache(memory_chunks * CHUNK, disk_chunks * CHUNK, law)
    alphabet = max(stream) + 1
    large_disk = disk_chunks >= len(set(fps))
    cached: set[bytes] = set()
    check(cache, fps, 0, 0, window)
    for index, key in enumerate(stream):
        fp = fps[index]
        data = cache.lookup(fp)
        if data is None:
            # With room for every chunk on disk, nothing cached is lost.
            assert not (large_disk and fp in cached)
            # A container read: the wanted chunk, two neighbours, a stranger.
            for other in (fp, fp_of((key + 1) % alphabet), fp_of((key + 2) % alphabet), STRANGER):
                if cache.insert_chunk(other, other[-1:] * CHUNK):
                    cached.add(other)
            assert STRANGER not in cached
            data = cache.peek(fp)
            if data is None:
                # Its own neighbours pushed it out of a full disk layer:
                # the engine's demand re-read.
                assert not large_disk
                data = fp[-1:] * CHUNK
        assert data == fp[-1:] * CHUNK
        assert cache.status_of(fp) == STATUS_IN_WINDOW  # consume never drops
        cache.consume(fp)
        check(cache, fps, index + 1, index, window)
        law.advance_past(index)
        check(cache, fps, index + 1, index + 1, window)
    assert cache._remaining == {}
    if large_disk:
        assert cache.counters.get("disk_evictions") == 0


class _BloomCounts:
    """The paper's answer to "referenced later?": a counting Bloom filter."""

    def __init__(self, records: list[ChunkRecord]) -> None:
        self.cbf = CountingBloomFilter(max(64, len(records)), false_positive_rate=0.001)
        for record in records:
            self.cbf.add(record.fp)

    def __contains__(self, fp: bytes) -> bool:
        return self.cbf.count(fp) > 0


class PaperVisionCache(FullVisionCache):
    """The full-vision cache with the paper's filter in place of exact counts."""

    def __init__(self, memory_bytes: int, disk_bytes: int, law: LookAheadWindow) -> None:
        super().__init__(memory_bytes, disk_bytes, law)
        self._remaining = _BloomCounts(law.records)

    def consume(self, fp: bytes) -> None:
        try:
            self._remaining.cbf.remove(fp)
        except KeyError:
            pass  # a false-positive neighbour already consumed the slots


def restore_trace(engine: RestoreEngine, path: str, version: int, ranged: bool) -> dict:
    oss = engine.storage.oss
    before = oss.stats.snapshot()
    result = engine.restore(path, version, ranged=ranged)
    traffic = oss.stats.diff(before)
    return {
        "data": result.data,
        "get_requests": traffic.get_requests,
        "bytes_read": traffic.bytes_read,
        "read_seconds": result.read_seconds,
        "record_reads": result.record_reads,
        "demand_seconds": result.demand_seconds,
        "elapsed_seconds": result.elapsed_seconds,
        "counters": {
            name: result.counters.get(name)
            for name in (
                "containers_read",
                "repeated_container_reads",
                "cache_misses",
                "memory_hits",
                "disk_promotions",
                "disk_demotions",
                "evicted_in_window",
            )
        },
        "evicted_useless": result.counters.get("evicted_useless"),
    }


@pytest.mark.parametrize("ranged", [True, False], ids=["ranged", "whole"])
def test_exact_counts_read_what_the_paper_filter_reads(oss, monkeypatch, bloom_digests, ranged):
    """Self-referencing S-DB tables under a 16-record window and a cache
    small enough to demote ``S_L`` chunks: every version restores with the
    same bytes, the same container reads, the same OSS traffic and the
    same virtual seconds through either answer to "referenced later?".
    Exact counts can only drop a chunk the filter kept by a false
    positive."""
    monkeypatch.setattr(restore_module, "LAW_WINDOW_RECORDS", 16)
    config = replace(SMALL_CONFIG, restore_cache_bytes=48 * 1024)
    storage = StorageLayer.create(oss)
    backup = RegisteringEngine(config, storage)
    generator = SDBGenerator(
        SDBConfig(table_count=1, initial_table_bytes=512 * 1024, version_count=3, seed=28)
    )
    tables = []
    for version in generator.versions():
        (table,) = version.files
        backup.backup(table.path, table.data)
        tables.append(table.data)
    engine = RestoreEngine(config, storage)
    for version, payload in enumerate(tables):
        digests = len(bloom_digests)
        exact = restore_trace(engine, table.path, version, ranged)
        assert len(bloom_digests) == digests
        with monkeypatch.context() as patch:
            patch.setattr(restore_module, "FullVisionCache", PaperVisionCache)
            paper = restore_trace(engine, table.path, version, ranged)
        assert len(bloom_digests) > digests  # the filter really answered
        assert exact["data"] == paper["data"] == payload
        assert exact.pop("evicted_useless") >= paper.pop("evicted_useless")
        # Virtual seconds are clock differences taken at later clock times.
        for name in ("read_seconds", "demand_seconds", "elapsed_seconds"):
            assert exact.pop(name) == pytest.approx(paper.pop(name), rel=1e-9)
        assert exact == paper
        counters = exact["counters"]
        assert counters["repeated_container_reads"] == 0
        assert counters["disk_demotions"] > counters["evicted_in_window"]  # S_L demoted
