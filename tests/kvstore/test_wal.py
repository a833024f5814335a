"""Tests for the write-ahead log (a delta log: one record object per batch)."""

import pytest

from repro.errors import KVStoreError
from repro.kvstore.wal import (
    OP_DELETE,
    OP_PUT,
    WriteAheadLog,
    decode_records,
    encode_record,
    parse_checkpoint,
)
from repro.oss import deltalog
from repro.oss.object_store import ObjectStorageService

BUCKET = "walbucket"
CHECKPOINT = "wal/teststore/active.wal"
RECORDS = "wal/teststore/log/"


@pytest.fixture
def wal(oss: ObjectStorageService) -> WriteAheadLog:
    return WriteAheadLog(oss, BUCKET, "teststore")


def reopen(oss: ObjectStorageService) -> tuple[WriteAheadLog, list]:
    """A fresh instance over the same bucket and what it replays."""
    survivor = WriteAheadLog(oss, BUCKET, "teststore")
    return survivor, list(survivor.replay())


class TestRecordEncoding:
    def test_roundtrip(self):
        blob = encode_record(OP_PUT, b"key", b"value")
        blob += encode_record(OP_DELETE, b"gone", b"")
        records = list(decode_records(blob))
        assert records == [(OP_PUT, b"key", b"value"), (OP_DELETE, b"gone", b"")]

    def test_truncated_header_rejected(self):
        blob = encode_record(OP_PUT, b"k", b"v")
        with pytest.raises(KVStoreError):
            list(decode_records(blob[:3]))

    def test_truncated_body_rejected(self):
        blob = encode_record(OP_PUT, b"key", b"value")
        with pytest.raises(KVStoreError):
            list(decode_records(blob[:-2]))


class TestWriteAheadLog:
    def test_replay_active_segment(self, wal, oss):
        wal.log_put(b"a", b"1")
        wal.log_delete(b"b")
        records = list(wal.replay())
        assert records == [(OP_PUT, b"a", b"1"), (OP_DELETE, b"b", b"")]
        assert reopen(oss)[1] == records

    def test_persist_and_replay(self, wal, oss):
        """Every batch is durable once ``log`` returns: a fresh instance
        replays it, and its own appends continue the numbering."""
        wal.log([(OP_PUT, b"a", b"1"), (OP_PUT, b"b", b"2")])
        assert oss.peek_keys(BUCKET) == [RECORDS + "000000000000"]
        survivor, records = reopen(oss)
        assert records == [(OP_PUT, b"a", b"1"), (OP_PUT, b"b", b"2")]
        survivor.log_put(b"c", b"3")
        assert oss.peek_keys(BUCKET, RECORDS) == [
            RECORDS + "000000000000",
            RECORDS + "000000000001",
        ]
        assert [key for _, key, _ in reopen(oss)[1]] == [b"a", b"b", b"c"]

    def test_persist_empty_returns_none(self, wal, oss):
        """Nothing logged: replay yields nothing, and a truncate publishes
        an empty checkpoint without a DELETE."""
        assert list(wal.replay()) == []
        wal.truncate()
        assert oss.stats.delete_requests == 0
        assert parse_checkpoint(oss.get_object(BUCKET, CHECKPOINT)) == (0, b"")
        assert reopen(oss)[1] == []

    def test_pending_bytes(self, wal, oss):
        assert wal.pending_bytes == 0
        wal.log_put(b"a", b"1")
        wal.log_delete(b"b")
        expected = len(encode_record(OP_PUT, b"a", b"1")) + len(
            encode_record(OP_DELETE, b"b", b"")
        )
        assert wal.pending_bytes == expected
        survivor, _ = reopen(oss)
        assert survivor.pending_bytes == expected
        wal.truncate()
        assert wal.pending_bytes == 0

    def test_discard_persisted(self, wal, oss):
        """A truncate (the flush's: the records reached an SSTable) drops
        every record object with one batched DELETE."""
        wal.log_put(b"a", b"1")
        wal.log_put(b"b", b"2")
        before = oss.stats.snapshot()
        wal.truncate()
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.delete_requests) == (1, 1)
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]
        assert list(wal.replay()) == []
        assert reopen(oss)[1] == []

    def test_segment_ordering(self, wal, oss, monkeypatch):
        """Batches replay in logging order across folds and a reattach."""
        monkeypatch.setattr(deltalog, "FOLD_EVERY", 2)
        wal.log_put(b"first", b"1")
        wal.log([(OP_PUT, b"second", b"2"), (OP_DELETE, b"first", b"")])
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]  # folded at two records
        wal.log_put(b"third", b"3")
        survivor, records = reopen(oss)
        assert [(op, key) for op, key, _ in records] == [
            (OP_PUT, b"first"),
            (OP_PUT, b"second"),
            (OP_DELETE, b"first"),
            (OP_PUT, b"third"),
        ]
        survivor.fold_if_logged()
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]
        assert reopen(oss)[1] == records


class TestTraffic:
    def test_a_batch_is_one_put_of_its_encoded_records(self, wal, oss):
        batch = [(OP_PUT, b"key%d" % i, b"value%d" % i) for i in range(50)]
        before = oss.stats.snapshot()
        wal.log(batch)
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.get_requests, spent.delete_requests) == (1, 0, 0)
        assert spent.bytes_written == sum(len(encode_record(*record)) for record in batch)

    def test_records_are_piggybacked_and_checkpoints_are_not(self, wal, oss):
        latency = oss.cost_model.oss_request_latency
        before = oss.stats.snapshot()
        wal.log_put(b"a", b"1")
        assert oss.stats.diff(before).write_seconds < latency
        before = oss.stats.snapshot()
        wal.fold_if_logged()
        assert oss.stats.diff(before).write_seconds > latency


class TestCheckpointFormat:
    def test_golden_checkpoint_payload(self, wal, oss):
        wal.log_put(b"a", b"1")
        wal.log_delete(b"b")
        wal.fold_if_logged()
        assert oss.get_object(BUCKET, CHECKPOINT) == bytes.fromhex(
            "80"  # scheme
            "00000000000002"  # folded through record 2
            "00000015"  # 21 body bytes
            "0100000001000000016131"  # put a=1
            "02000000010000000062"  # delete b
        )

    @pytest.mark.parametrize("keep", ["header", "record boundary", "mid record"])
    def test_a_torn_checkpoint_raises(self, wal, oss, keep):
        """Torn at a record boundary the body still decodes, and its mark
        would call the dropped records' objects debris: it must raise."""
        wal.log_put(b"a", b"1")
        wal.log_put(b"b", b"2")
        wal.fold_if_logged()
        payload = oss.get_object(BUCKET, CHECKPOINT)
        cut = {"header": 8, "record boundary": len(payload) - 11, "mid record": -3}[keep]
        oss.put_object(BUCKET, CHECKPOINT, payload[:cut])
        with pytest.raises(KVStoreError, match="torn"):
            reopen(oss)

    def test_an_unknown_scheme_raises(self, wal, oss):
        wal.log_put(b"a", b"1")
        wal.fold_if_logged()
        payload = oss.get_object(BUCKET, CHECKPOINT)
        oss.put_object(BUCKET, CHECKPOINT, b"\x81" + payload[1:])
        with pytest.raises(KVStoreError, match="scheme"):
            reopen(oss)
