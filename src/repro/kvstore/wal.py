"""Write-ahead log for the LSM store.

The log is a :class:`~repro.oss.deltalog.DeltaLog`, the same mechanism as
the version catalog's: every logged batch is
appended as one small record object (RocksDB's WAL append, charged as a
piggybacked write to a node-local file), and the *checkpoint* at
``wal/{name}/active.wal`` holds the records not yet in an SSTable.  It is
rewritten every :data:`~repro.oss.deltalog.FOLD_EVERY` records and at
attach, and emptied when a memtable flush has put every record into an
SSTable.  Replay — checkpoint body, then the records logged since — rebuilds
the memtable after a crash and resumes the record numbering.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator

from repro.errors import KVStoreError
from repro.kvstore.memtable import TOMBSTONE
from repro.oss.deltalog import DeltaLog
from repro.oss.object_store import ObjectStorageService

_RECORD_HEADER = struct.Struct(">BII")  # op, key length, value length
_OP_PUT = 1
_OP_DELETE = 2
#: Checkpoint header: the scheme byte and, in the next seven bytes, the
#: record number folded through; then the body length.
_CHECKPOINT = struct.Struct(">QI")
_SCHEME = 0x80
_MARK_BITS = 56


def encode_record(op: int, key: bytes, value: bytes) -> bytes:
    """Binary encoding of one WAL record."""
    return _RECORD_HEADER.pack(op, len(key), len(value)) + key + value


def decode_records(payload: bytes) -> Iterator[tuple[int, bytes, bytes]]:
    """Decode a WAL segment back into (op, key, value) records."""
    offset = 0
    while offset < len(payload):
        if offset + _RECORD_HEADER.size > len(payload):
            raise KVStoreError("truncated WAL record header")
        op, key_len, value_len = _RECORD_HEADER.unpack_from(payload, offset)
        offset += _RECORD_HEADER.size
        end = offset + key_len + value_len
        if end > len(payload):
            raise KVStoreError("truncated WAL record body")
        key = payload[offset : offset + key_len]
        value = payload[offset + key_len : end]
        offset = end
        yield op, key, value


def latest_entries(payload: bytes) -> dict[bytes, bytes]:
    """The memtable a WAL segment rebuilds, decoded in one loop: the last
    write to a key wins and a delete leaves :data:`TOMBSTONE`."""
    entries: dict[bytes, bytes] = {}
    unpack = _RECORD_HEADER.unpack_from
    header = _RECORD_HEADER.size
    size = len(payload)
    offset = 0
    while offset < size:
        if offset + header > size:
            raise KVStoreError("truncated WAL record header")
        op, key_len, value_len = unpack(payload, offset)
        offset += header
        split = offset + key_len
        end = split + value_len
        if end > size:
            raise KVStoreError("truncated WAL record body")
        if op == _OP_PUT:
            entries[payload[offset:split]] = payload[split:end]
        elif op == _OP_DELETE:
            entries[payload[offset:split]] = TOMBSTONE
        offset = end
    return entries


def parse_checkpoint(payload: bytes) -> tuple[int, bytes]:
    """``(through, body)`` of a checkpoint object.

    A body whose length disagrees with the header is a torn checkpoint:
    raising beats dropping the records its ``through`` mark claims are
    folded.
    """
    if len(payload) < _CHECKPOINT.size:
        raise KVStoreError("torn WAL checkpoint header")
    word, length = _CHECKPOINT.unpack_from(payload)
    scheme, through = word >> _MARK_BITS, word & ((1 << _MARK_BITS) - 1)
    if scheme != _SCHEME:
        raise KVStoreError(f"unknown WAL checkpoint scheme {scheme}")
    if len(payload) != _CHECKPOINT.size + length:
        raise KVStoreError("torn WAL checkpoint body")
    return through, payload[_CHECKPOINT.size :]


class WriteAheadLog:
    """Per-store WAL: one record object per logged batch."""

    ACTIVE_KEY = "active.wal"

    def __init__(self, oss: ObjectStorageService, bucket: str, name: str) -> None:
        oss.create_bucket(bucket)
        prefix = f"wal/{name}/"
        self._log = DeltaLog(
            oss, bucket, prefix + self.ACTIVE_KEY, prefix + "log/", piggyback=True
        )
        #: Every record logged since the last flush, in order.
        self._segment = bytearray()

    def log(self, records: Iterable[tuple[int, bytes, bytes]]) -> None:
        """Durably append one batch of (op, key, value) records: one PUT."""
        batch = b"".join(encode_record(op, key, value) for op, key, value in records)
        self._log.append(batch)
        self._segment += batch
        self._log.fold_if_due(self._checkpoint)

    def log_put(self, key: bytes, value: bytes) -> None:
        """Durably append one put record."""
        self.log([(_OP_PUT, key, value)])

    def log_delete(self, key: bytes) -> None:
        """Durably append one delete record."""
        self.log([(_OP_DELETE, key, b"")])

    def _checkpoint(self, through: int) -> bytes:
        word = _SCHEME << _MARK_BITS | through
        return _CHECKPOINT.pack(word, len(self._segment)) + self._segment

    def fold_if_logged(self) -> None:
        """Fold when any record object exists (attach-time housekeeping)."""
        self._log.fold_if_logged(self._checkpoint)

    def truncate(self) -> None:
        """Every record reached an SSTable: publish an empty checkpoint and
        drop the records with one batched DELETE."""
        self._segment.clear()
        self._log.fold(self._checkpoint)

    def read(self) -> bytes:
        """Read the log back from OSS: the encoded records not yet in an
        SSTable.  Appends continue after the last record read."""
        checkpoint = self._log.read_checkpoint()
        through, body = (0, b"") if checkpoint is None else parse_checkpoint(checkpoint)
        self._segment = bytearray(body)
        for record in self._log.read_tail(through):
            self._segment += record
        return bytes(self._segment)

    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """:meth:`read`, decoded record by record."""
        return decode_records(self.read())

    @property
    def pending_bytes(self) -> int:
        """Encoded bytes of the records not yet in an SSTable."""
        return len(self._segment)


#: Re-exported opcodes for replay consumers.
OP_PUT = _OP_PUT
OP_DELETE = _OP_DELETE
