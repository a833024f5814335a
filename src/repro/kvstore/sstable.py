"""Immutable sorted string tables persisted as OSS objects.

Layout of one SSTable object::

    [data records][sparse index][bloom filter][footer]

Data records are ``key_len(4) value_len(4) key value`` in key order.  The
sparse index holds every Nth key with its byte offset, so a point lookup
does one ranged GET covering a single index block — the access pattern that
makes an LSM tree viable on high-latency object storage.  The bloom filter
and sparse index are loaded once at open time and then served from node
memory, mirroring RocksDB's block cache.  The filter blob is
:meth:`BloomFilter.to_bytes`, which leads with a scheme byte; a table whose
filter names another scheme does not open.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from bisect import bisect_right

from repro.errors import KVStoreError
from repro.kvstore.bloom import BloomFilter
from repro.oss.object_store import ObjectStorageService

_RECORD = struct.Struct(">II")
_INDEX_ENTRY = struct.Struct(">IQ")
_FOOTER = struct.Struct(">QQQQQ8s")
_MAGIC = b"SSTABLE1"

#: A sparse index entry every this many records.
INDEX_INTERVAL = 16


def _encode_records(items: Iterable[tuple[bytes, bytes]]) -> tuple[bytes, list[tuple[bytes, int]], int]:
    data = bytearray()
    sparse: list[tuple[bytes, int]] = []
    count = 0
    previous_key: bytes | None = None
    for key, value in items:
        if previous_key is not None and key <= previous_key:
            raise KVStoreError(
                f"sstable input not strictly sorted: {key!r} after {previous_key!r}"
            )
        if count % INDEX_INTERVAL == 0:
            sparse.append((key, len(data)))
        data += _RECORD.pack(len(key), len(value))
        data += key
        data += value
        previous_key = key
        count += 1
    return bytes(data), sparse, count


class SSTable:
    """Read-side handle to one persisted SSTable."""

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str,
        object_key: str,
        bloom: BloomFilter,
        index_keys: list[bytes],
        index_offsets: list[int],
        data_length: int,
        entry_count: int,
    ) -> None:
        self._oss = oss
        self._bucket = bucket
        self.object_key = object_key
        self._bloom = bloom
        self._index_keys = index_keys
        self._index_offsets = index_offsets
        self._data_length = data_length
        self.entry_count = entry_count

    # --- construction -----------------------------------------------------
    @classmethod
    def write(
        cls,
        oss: ObjectStorageService,
        bucket: str,
        object_key: str,
        items: Iterable[tuple[bytes, bytes]],
        false_positive_rate: float = 0.01,
    ) -> "SSTable":
        """Serialise sorted ``items`` into a new OSS object and open it."""
        data, sparse, count = _encode_records(items)
        if count == 0:
            raise KVStoreError("refusing to write an empty sstable")

        bloom = BloomFilter(count, false_positive_rate)
        bloom.update([key for key, _value in _iter_records(data)])

        index_blob = bytearray()
        for key, offset in sparse:
            index_blob += _INDEX_ENTRY.pack(len(key), offset)
            index_blob += key
        bloom_blob = bloom.to_bytes()

        footer = _FOOTER.pack(
            len(data), len(index_blob), len(data) + len(index_blob), len(bloom_blob), count, _MAGIC
        )
        oss.create_bucket(bucket)
        oss.put_object(bucket, object_key, data + bytes(index_blob) + bloom_blob + footer)
        return cls(
            oss,
            bucket,
            object_key,
            bloom,
            [key for key, _ in sparse],
            [offset for _, offset in sparse],
            len(data),
            count,
        )

    @classmethod
    def open(cls, oss: ObjectStorageService, bucket: str, object_key: str) -> "SSTable":
        """Open an existing SSTable, loading footer, index and bloom."""
        total = oss.head_object(bucket, object_key)
        if total is None:
            raise KVStoreError(f"sstable object missing: {bucket}/{object_key}")
        footer = oss.get_range(bucket, object_key, total - _FOOTER.size, _FOOTER.size)
        data_len, index_len, bloom_off, bloom_len, count, magic = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise KVStoreError(f"bad sstable magic in {bucket}/{object_key}")

        index_blob = oss.get_range(bucket, object_key, data_len, index_len)
        bloom_blob = oss.get_range(bucket, object_key, bloom_off, bloom_len)

        index_keys: list[bytes] = []
        index_offsets: list[int] = []
        pos = 0
        while pos < len(index_blob):
            key_len, offset = _INDEX_ENTRY.unpack_from(index_blob, pos)
            pos += _INDEX_ENTRY.size
            index_keys.append(index_blob[pos : pos + key_len])
            index_offsets.append(offset)
            pos += key_len

        return cls(
            oss,
            bucket,
            object_key,
            BloomFilter.from_bytes(bloom_blob),
            index_keys,
            index_offsets,
            data_len,
            count,
        )

    # --- lookups ---------------------------------------------------------
    def may_contain(self, key: bytes) -> bool:
        """Bloom-filter membership test (no OSS traffic)."""
        return key in self._bloom

    def get(self, key: bytes) -> bytes | None:
        """Value for ``key`` (tombstones returned verbatim), else None."""
        if not self.may_contain(key) or not self._index_keys:
            return None
        block_index = bisect_right(self._index_keys, key) - 1
        if block_index < 0:
            return None
        start = self._index_offsets[block_index]
        end = (
            self._index_offsets[block_index + 1]
            if block_index + 1 < len(self._index_offsets)
            else self._data_length
        )
        block = self._oss.get_range(self._bucket, self.object_key, start, end - start)
        for record_key, value in _iter_records(block):
            if record_key == key:
                return value
            if record_key > key:
                return None
        return None

    def get_many(self, keys: Iterable[bytes]) -> dict[bytes, bytes]:
        """Batched point lookups; returns only the keys found here.

        Keys are Bloom-filtered, mapped to their index blocks, and adjacent
        needed blocks are coalesced into one ranged GET — the Rocks-OSS
        batching that lets a single round trip answer a whole container's
        worth of fingerprint queries instead of one GET per key.
        """
        if not self._index_keys:
            return {}
        by_block: dict[int, list[bytes]] = {}
        for key in dict.fromkeys(keys):
            if not self.may_contain(key):
                continue
            block_index = bisect_right(self._index_keys, key) - 1
            if block_index >= 0:
                by_block.setdefault(block_index, []).append(key)
        if not by_block:
            return {}

        results: dict[bytes, bytes] = {}
        blocks = sorted(by_block)
        run_start = 0
        while run_start < len(blocks):
            run_end = run_start
            while (
                run_end + 1 < len(blocks)
                and blocks[run_end + 1] == blocks[run_end] + 1
            ):
                run_end += 1
            first, last = blocks[run_start], blocks[run_end]
            start = self._index_offsets[first]
            end = (
                self._index_offsets[last + 1]
                if last + 1 < len(self._index_offsets)
                else self._data_length
            )
            wanted = {key for block in blocks[run_start : run_end + 1] for key in by_block[block]}
            blob = self._oss.get_range(self._bucket, self.object_key, start, end - start)
            for record_key, value in _iter_records(blob):
                if record_key in wanted:
                    results[record_key] = value
            run_start = run_end + 1
        return results

    def iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        """Full scan in key order (one whole-object GET), for compaction."""
        data = self._oss.get_range(self._bucket, self.object_key, 0, self._data_length)
        return _iter_records(data)

    @property
    def min_key(self) -> bytes:
        """Smallest key in the table."""
        return self._index_keys[0]


def _iter_records(data: bytes) -> Iterator[tuple[bytes, bytes]]:
    offset = 0
    while offset < len(data):
        key_len, value_len = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        key = data[offset : offset + key_len]
        value = data[offset + key_len : offset + key_len + value_len]
        offset += key_len + value_len
        yield key, value
