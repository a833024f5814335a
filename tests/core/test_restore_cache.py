"""Tests for the look-ahead window and the full-vision cache."""

import pytest

from repro.core.container import ChunkLocation, ContainerMeta
from repro.core.recipe import ChunkRecord
from repro.core.restore_cache import (
    STATUS_IN_WINDOW,
    STATUS_LATER,
    STATUS_USELESS,
    FullVisionCache,
    LookAheadWindow,
)
from repro.fingerprint.hashing import fingerprint


def records_for(sequence: list[str]) -> list[ChunkRecord]:
    return [
        ChunkRecord(fp=fingerprint(name.encode()), container_id=0, size=100)
        for name in sequence
    ]


def fp_of(name: str) -> bytes:
    return fingerprint(name.encode())


class TestLookAheadWindow:
    def test_initial_window(self):
        law = LookAheadWindow(records_for(["a", "b", "c", "d"]), window=2)
        assert fp_of("a") in law
        assert fp_of("b") in law
        assert fp_of("c") not in law

    def test_advance_slides(self):
        law = LookAheadWindow(records_for(["a", "b", "c", "d"]), window=2)
        law.advance_past(0)
        assert fp_of("a") not in law
        assert fp_of("c") in law

    def test_duplicate_fps_counted(self):
        law = LookAheadWindow(records_for(["a", "a", "b"]), window=2)
        law.advance_past(0)
        assert fp_of("a") in law  # second occurrence still inside
        law.advance_past(1)
        assert fp_of("a") not in law

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            LookAheadWindow(records_for(["a"]), window=0)


def build_cache(sequence: list[str], window: int = 2, memory: int = 1 << 20,
                disk: int = 1 << 20):
    records = records_for(sequence)
    law = LookAheadWindow(records, window)
    cache = FullVisionCache(memory, disk, law)
    return records, law, cache


def container_with(chunks: dict[str, bytes]) -> tuple[ContainerMeta, bytes]:
    meta = ContainerMeta(0)
    payload = bytearray()
    for name, data in chunks.items():
        meta.add(ChunkLocation(fp_of(name), len(payload), len(data)))
        payload += data
    return meta, bytes(payload)


class TestStatuses:
    def test_status_classification(self):
        _, law, cache = build_cache(["a", "b", "c", "d"], window=2)
        assert cache.status_of(fp_of("a")) == STATUS_IN_WINDOW
        assert cache.status_of(fp_of("c")) == STATUS_LATER
        assert cache.status_of(fp_of("zz")) == STATUS_USELESS

    def test_status_changes_as_stream_advances(self):
        _, law, cache = build_cache(["a", "b", "c"], window=1)
        assert cache.status_of(fp_of("a")) == STATUS_IN_WINDOW
        cache.consume(fp_of("a"))
        law.advance_past(0)
        assert cache.status_of(fp_of("a")) == STATUS_USELESS


class TestInsertAndLookup:
    def test_only_useful_chunks_cached(self):
        _, _, cache = build_cache(["a", "b"], window=2)
        meta, payload = container_with(
            {"a": b"A" * 100, "b": b"B" * 100, "junk": b"J" * 100}
        )
        inserted = cache.insert_container(meta, payload)
        assert inserted == 2
        assert cache.lookup(fp_of("a")) == b"A" * 100
        assert cache.lookup(fp_of("junk")) is None

    def test_deleted_entries_skipped(self):
        _, _, cache = build_cache(["a"], window=1)
        meta, payload = container_with({"a": b"A" * 100})
        meta.mark_deleted(fp_of("a"))
        assert cache.insert_container(meta, payload) == 0

    def test_consume_decrements_to_useless(self):
        _, law, cache = build_cache(["a", "b", "a"], window=1)
        meta, payload = container_with({"a": b"A" * 100})
        cache.insert_container(meta, payload)
        cache.consume(fp_of("a"))
        # One reference left (position 2): still cached.
        law.advance_past(0)
        assert cache.lookup(fp_of("a")) is not None

    def test_replace_swaps_the_cached_payload(self):
        _, _, cache = build_cache(["a", "b"], window=1, memory=150)
        meta, payload = container_with({"b": b"B" * 100, "a": b"A" * 100})
        cache.insert_container(meta, payload)
        assert cache.disk_used == 100  # b (S_L) was demoted to make room for a
        assert cache.counters.get("evicted_in_window") == 0
        cache.replace(fp_of("a"), b"a" * 100)
        cache.replace(fp_of("b"), b"b" * 100)
        assert cache.peek(fp_of("a")) == b"a" * 100
        assert cache.peek(fp_of("b")) == b"b" * 100
        assert (cache.memory_used, cache.disk_used) == (100, 100)


class TestEvictionPolicy:
    def test_useless_evicted_first(self):
        sequence = ["a", "b", "c", "d", "e", "f"]
        _, law, cache = build_cache(sequence, window=6, memory=350, disk=10_000)
        meta, payload = container_with({name: name.encode() * 100 for name in "abc"})
        cache.insert_container(meta, payload)
        for index, name in enumerate("abc"):
            cache.consume(fp_of(name))
            law.advance_past(index)
        # a-c consumed and out of window: useless.  New useful chunks push
        # them out rather than the useful ones.
        meta2, payload2 = container_with({name: name.encode() * 100 for name in "def"})
        cache.insert_container(meta2, payload2)
        assert cache.lookup(fp_of("d")) is not None
        assert cache.lookup(fp_of("e")) is not None

    def test_later_chunks_demoted_to_disk_not_lost(self):
        sequence = [chr(ord("a") + i) for i in range(10)]
        _, _, cache = build_cache(sequence, window=2, memory=250, disk=10_000)
        meta, payload = container_with(
            {name: name.encode() * 100 for name in sequence}
        )
        cache.insert_container(meta, payload)
        # Everything is useful (in window or later): overflow goes to the
        # disk layer instead of being dropped.
        assert cache.disk_used > 0
        for name in sequence:
            assert cache.lookup(fp_of(name)) is not None, name

    def test_disk_promotion_counts(self):
        sequence = [chr(ord("a") + i) for i in range(10)]
        _, _, cache = build_cache(sequence, window=2, memory=250, disk=10_000)
        meta, payload = container_with(
            {name: name.encode() * 100 for name in sequence}
        )
        cache.insert_container(meta, payload)
        for name in sequence:
            cache.lookup(fp_of(name))
        assert cache.counters.get("disk_promotions") >= 1

    def test_memory_capacity_validated(self):
        law = LookAheadWindow(records_for(["a"]), 1)
        with pytest.raises(ValueError):
            FullVisionCache(0, 100, law)


class TestWindowTransitions:
    def test_enter_exit_callbacks_fire_once_per_transition(self):
        records = records_for(["a", "b", "a", "c"])
        law = LookAheadWindow(records, window=2)
        entered, exited = [], []
        law.on_enter = entered.append
        law.on_exit = exited.append
        law.advance_past(0)  # window [1, 3): a's count moves from pos 0 to 2
        assert exited == []  # a never left — no spurious transition
        law.advance_past(1)  # window [2, 4): b left, c entered
        assert fp_of("b") in exited
        assert fp_of("c") in entered

    def test_useless_chunk_dropped_at_window_exit(self):
        _, law, cache = build_cache(["a", "b", "c"], window=1)
        meta, payload = container_with({"a": b"A" * 100})
        cache.insert_container(meta, payload)
        cache.consume(fp_of("a"))
        assert cache.memory_used == 100  # still S_I until the window moves
        law.advance_past(0)
        # a left the window with no reference left: dropped eagerly.
        assert cache.memory_used == 0
        assert cache.peek(fp_of("a")) is None

    def test_later_chunk_kept_at_window_exit(self):
        _, law, cache = build_cache(["a", "b", "a"], window=1)
        meta, payload = container_with({"a": b"A" * 100})
        cache.insert_container(meta, payload)
        cache.consume(fp_of("a"))
        law.advance_past(0)
        # Another reference at position 2: demoted to S_L, not dropped.
        assert cache.status_of(fp_of("a")) == STATUS_LATER
        assert cache.peek(fp_of("a")) == b"A" * 100


class TestInsertPromotion:
    def test_disk_resident_window_chunk_promoted_at_insert(self):
        """An S_I chunk sitting on disk is promoted when its container is
        read, not left to pay a disk round trip at consume time."""
        sequence = [chr(ord("a") + i) for i in range(10)]
        _, _, cache = build_cache(sequence, window=10, memory=250, disk=10_000)
        meta, payload = container_with(
            {name: name.encode() * 100 for name in sequence}
        )
        # First insertion overflows memory: later chunks land on disk.
        cache.insert_container(meta, payload)
        assert cache.disk_used > 0
        # Re-inserting the container (a repeated read in a bigger run)
        # promotes disk-resident in-window chunks back to memory.
        cache.insert_container(meta, payload)
        assert cache.counters.get("insert_promotions") >= 1
        assert cache.counters.get("disk_promotions") == 0

    def test_peek_never_counts_or_promotes(self):
        _, _, cache = build_cache(["a"], window=1)
        meta, payload = container_with({"a": b"A" * 100})
        cache.insert_container(meta, payload)
        assert cache.peek(fp_of("a")) == b"A" * 100
        assert cache.peek(fp_of("zz")) is None
        assert cache.counters.get("memory_hits") == 0
        assert cache.counters.get("cache_misses") == 0
