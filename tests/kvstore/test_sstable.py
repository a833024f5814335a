"""Tests for SSTables on OSS."""

import pytest

from repro.errors import KVStoreError
from repro.kvstore.sstable import _FOOTER, SSTable


def make_items(count: int) -> list[tuple[bytes, bytes]]:
    return [(f"key{i:05d}".encode(), f"value{i}".encode()) for i in range(count)]


class TestSSTableWrite:
    def test_write_and_get(self, oss):
        table = SSTable.write(oss, "b", "t1.sst", make_items(100))
        assert table.get(b"key00042") == b"value42"
        assert table.entry_count == 100

    def test_get_missing_is_none(self, oss):
        table = SSTable.write(oss, "b", "t1.sst", make_items(100))
        assert table.get(b"key99999") is None
        assert table.get(b"aaa") is None
        assert table.get(b"zzz") is None

    def test_unsorted_input_rejected(self, oss):
        with pytest.raises(KVStoreError):
            SSTable.write(oss, "b", "t.sst", [(b"b", b"1"), (b"a", b"2")])

    def test_duplicate_keys_rejected(self, oss):
        with pytest.raises(KVStoreError):
            SSTable.write(oss, "b", "t.sst", [(b"a", b"1"), (b"a", b"2")])

    def test_empty_input_rejected(self, oss):
        with pytest.raises(KVStoreError):
            SSTable.write(oss, "b", "t.sst", [])


class TestSSTableOpen:
    def test_open_existing(self, oss):
        SSTable.write(oss, "b", "t.sst", make_items(50))
        reopened = SSTable.open(oss, "b", "t.sst")
        assert reopened.entry_count == 50
        assert reopened.get(b"key00010") == b"value10"
        assert reopened.get(b"missing") is None

    def test_open_missing_raises(self, oss):
        oss.create_bucket("b")
        with pytest.raises(KVStoreError):
            SSTable.open(oss, "b", "ghost.sst")

    def test_open_corrupt_magic_raises(self, oss):
        SSTable.write(oss, "b", "t.sst", make_items(5))
        payload = bytearray(oss.get_object("b", "t.sst"))
        payload[-8:] = b"BADMAGIC"
        oss.put_object("b", "t.sst", bytes(payload))
        with pytest.raises(KVStoreError):
            SSTable.open(oss, "b", "t.sst")

    def test_a_filter_of_another_scheme_does_not_open(self, oss):
        """A filter probed with other slot positions would call stored keys
        absent: a footer blob without the current scheme byte is refused."""
        SSTable.write(oss, "b", "t.sst", make_items(30))
        payload = bytearray(oss.get_object("b", "t.sst"))
        bloom_offset = _FOOTER.unpack(payload[-_FOOTER.size :])[2]
        payload[bloom_offset] = 0
        oss.put_object("b", "t.sst", bytes(payload))
        with pytest.raises(ValueError, match="scheme"):
            SSTable.open(oss, "b", "t.sst")


class TestSSTableAccess:
    def test_bloom_prefilter_avoids_reads(self, oss):
        table = SSTable.write(oss, "b", "t.sst", make_items(100))
        before = oss.stats.get_requests
        for i in range(100):
            table.may_contain(f"absent{i}".encode())
        assert oss.stats.get_requests == before

    def test_point_lookup_reads_one_block(self, oss):
        table = SSTable.write(oss, "b", "t.sst", make_items(1000))
        before = oss.stats.snapshot()
        table.get(b"key00500")
        delta = oss.stats.diff(before)
        assert delta.get_requests <= 1
        # A block is far smaller than the whole table.
        assert delta.bytes_read < oss.peek_size("b", "t.sst") / 10

    def test_iter_items_in_order(self, oss):
        items = make_items(64)
        table = SSTable.write(oss, "b", "t.sst", items)
        assert list(table.iter_items()) == items

    def test_min_key(self, oss):
        table = SSTable.write(oss, "b", "t.sst", make_items(10))
        assert table.min_key == b"key00000"

    def test_single_entry_table(self, oss):
        table = SSTable.write(oss, "b", "t.sst", [(b"only", b"one")])
        assert table.get(b"only") == b"one"
        assert table.get(b"other") is None
