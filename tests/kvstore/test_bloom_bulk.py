"""Attach rebuilds the global index in bulk, bit for bit.

``BloomFilter.update`` sets the slots ``_positions`` gives for a whole
batch in numpy; ``LSMStore.recover`` decodes its WAL straight into the
memtable; ``GlobalIndex.recover`` fills each shard's filter with one
``update`` over ``LSMStore.live_keys``.  Every result is compared with
the per-key path it replaced: the scalar ``add`` loop, per-record
``MemTable.put``/``delete``, and a sorted full merge.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.global_index import GlobalIndex
from repro.errors import KVStoreError
from repro.kvstore.bloom import (
    _HEADER,
    _SCHEME_DOUBLE_HASHING,
    BloomFilter,
    _positions,
    _positions_many,
)
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import (
    OP_DELETE,
    OP_PUT,
    WriteAheadLog,
    encode_record,
    latest_entries,
)


def random_keys(count: int, seed: int) -> list[bytes]:
    rand = random.Random(seed)
    return [rand.randbytes(20) for _ in range(count)]


#: 5,000 items, a fifth of them repeats.
BIG_BATCH = random_keys(4000, 29) + random_keys(1000, 29)


def empty_filter(bits: int, hashes: int) -> BloomFilter:
    """A filter of exactly ``bits`` slots and ``hashes`` probes, opened from
    its persisted form."""
    body = bytes((bits + 7) // 8)
    return BloomFilter.from_bytes(_HEADER.pack(_SCHEME_DOUBLE_HASHING, bits, hashes, 0) + body)


class TestBulkUpdate:
    @given(
        items=st.lists(st.binary(max_size=24), max_size=64).flatmap(
            # Duplicates on purpose: every item may repeat.
            lambda pool: st.lists(st.sampled_from(pool), max_size=5000) if pool else st.just([])
        ),
        bits=st.integers(min_value=8, max_value=1 << 16),
        hashes=st.integers(min_value=1, max_value=10),
        seeded=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60)
    @example(items=BIG_BATCH, bits=8, hashes=10, seeded=0)
    @example(items=BIG_BATCH, bits=47926, hashes=7, seeded=3)
    @example(items=BIG_BATCH, bits=9973, hashes=1, seeded=0)
    def test_update_sets_what_the_add_loop_sets(self, items, bits, hashes, seeded):
        per_key = empty_filter(bits, hashes)
        bulk = empty_filter(bits, hashes)
        for index in range(seeded):  # a filter already holding keys
            per_key.add(b"held%d" % index)
            bulk.add(b"held%d" % index)
        for item in items:
            per_key.add(item)
        bulk.update(iter(items))
        assert bulk.to_bytes() == per_key.to_bytes()
        assert len(bulk) == len(per_key) == seeded + len(items)

    def test_empty_batch_changes_nothing(self):
        filt = BloomFilter(100)
        filt.add(b"x")
        before = filt.to_bytes()
        filt.update([])
        assert filt.to_bytes() == before

    @pytest.mark.parametrize("m", [8, 9973, (1 << 40) + 15, (1 << 63) - 25])
    def test_slots_match_the_scalar_reference(self, m):
        """No uint64 overflow up to the largest m the format allows."""
        items = random_keys(300, m)
        slots = _positions_many(items, 10, m)
        assert slots.shape == (10, 300)
        assert [list(map(int, column)) for column in slots.T] == [
            _positions(item, 10, m) for item in items
        ]

    def test_one_digest_per_item(self, bloom_digests):
        BloomFilter(1000, 0.001).update([b"a", b"b", b"a"])
        assert len(bloom_digests) == 3


class TestWalReplay:
    def test_last_write_wins_and_deletes_leave_tombstones(self):
        payload = b"".join(
            encode_record(op, key, value)
            for op, key, value in [
                (OP_PUT, b"a", b"1"),
                (OP_PUT, b"b", b"2"),
                (OP_DELETE, b"a", b""),
                (OP_PUT, b"b", b"3"),
                (OP_DELETE, b"c", b""),
                (OP_PUT, b"c", b"4"),
            ]
        )
        assert latest_entries(payload) == {b"a": TOMBSTONE, b"b": b"3", b"c": b"4"}

    @pytest.mark.parametrize("cut", [3, -2])
    def test_truncated_segment_raises(self, cut):
        payload = encode_record(OP_PUT, b"key", b"value")
        with pytest.raises(KVStoreError, match="truncated"):
            latest_entries(payload[:cut])

    def test_memtable_load_sizes_like_put(self):
        entries = {b"a": b"1", b"bb": TOMBSTONE}
        loaded = MemTable()
        loaded.load(dict(entries))
        built = MemTable()
        built.put(b"a", b"0000")
        built.put(b"a", b"1")
        built.delete(b"bb")
        assert loaded.byte_size == built.byte_size
        assert dict(loaded.items()) == dict(built.items())


# --- recover parity ----------------------------------------------------------
def per_key_recover(oss, index: GlobalIndex, shard: int, capacity: int):
    """What ``GlobalIndex.recover`` rebuilt for one shard before the bulk
    path, with the same OSS reads: SSTables opened in list order, the WAL
    replayed record by record through ``put``/``delete``, and the filter
    filled key by key from a sorted merge."""
    store = index._shards[shard]
    bucket, name = store._bucket, store._name
    tables = [
        SSTable.open(oss, bucket, key) for key in oss.list_objects(bucket, f"sst/{name}/")
    ]
    memtable = MemTable()
    for op, key, value in WriteAheadLog(oss, bucket, name).replay():
        if op == OP_PUT:
            memtable.put(key, value)
        elif op == OP_DELETE:
            memtable.delete(key)
    merged: dict[bytes, bytes] = {}
    for table in tables:
        for key, value in table.iter_items():
            merged[key] = value
    for key, value in memtable.sorted_items():
        merged[key] = value
    bloom = BloomFilter(capacity, 0.01)
    live = 0
    for key in sorted(merged):
        if merged[key] != TOMBSTONE:
            bloom.add(key)
            live += 1
    return bloom, memtable, live


def fingerprint(rand: random.Random) -> bytes:
    return rand.randbytes(20)


def churn(index: GlobalIndex, rand: random.Random) -> None:
    """Random put/delete batches across the shards, flushed at random
    points and compacted once, so live keys sit in SSTables, in the
    memtable and in both, and some of each are shadowed by tombstones."""
    known: list[bytes] = []
    for step in range(12):
        batch = [(fingerprint(rand), rand.randrange(1 << 20)) for _ in range(rand.randrange(1, 60))]
        # Overwrites of keys already stored.
        batch += [(fp, rand.randrange(1 << 20)) for fp in rand.sample(known, min(len(known), 5))]
        index.put_many(batch)
        known.extend(fp for fp, _ in batch)
        for fp in rand.sample(known, min(len(known), rand.randrange(0, 8))):
            index.remove(fp)
        if rand.random() < 0.4:
            index.flush()
        if step == 7:
            for store in index._shards:
                store.compact()
    # The newest write to some keys is a delete still in the memtable.
    for fp in rand.sample(known, 6):
        index.remove(fp)


@pytest.mark.parametrize("shard_count", [1, 4])
@pytest.mark.parametrize("seed", range(5))
def test_recover_matches_the_per_key_path(oss, shard_count, seed):
    capacity = 1 << 12
    writer = GlobalIndex(oss, bloom_capacity=capacity, shard_count=shard_count)
    churn(writer, random.Random(seed))
    per_shard = max(1024, capacity // shard_count)

    before = oss.stats.snapshot()
    oracle = [per_key_recover(oss, writer, shard, per_shard) for shard in range(shard_count)]
    oracle_reads = oss.stats.diff(before)

    attached = GlobalIndex(oss, bloom_capacity=capacity, shard_count=shard_count)
    before = oss.stats.snapshot()
    attached.recover()
    reads = vars(oss.stats.diff(before))
    for name, value in vars(oracle_reads).items():
        # Virtual seconds are clock differences taken at other clock times.
        assert reads[name] == (pytest.approx(value) if isinstance(value, float) else value)

    assert any(store.sstable_count for store in attached._shards)
    stats = attached.shard_stats()
    for shard, (bloom, memtable, live) in enumerate(oracle):
        store = attached._shards[shard]
        assert attached._blooms[shard].to_bytes() == bloom.to_bytes()
        assert dict(store._memtable.items()) == dict(memtable.items())
        assert store._memtable.byte_size == memtable.byte_size
        assert stats[shard]["entries"] == live == len(store.live_keys())
    tombstones = sum(
        value == TOMBSTONE for store in attached._shards for _, value in store._memtable.items()
    )
    assert tombstones >= 6
