"""What the write-ahead log persisted before it became a delta log.

``LegacyWriteAheadLog`` is a copy of the previous writer: the whole active
segment re-PUT to ``wal/{name}/active.wal`` after every record.  It is kept
as the reference for the mirrors already sitting in existing repositories.
"""

from repro.kvstore.wal import OP_DELETE, OP_PUT, encode_record


class LegacyWriteAheadLog:
    ACTIVE_KEY = "active.wal"

    def __init__(self, oss, bucket: str, name: str) -> None:
        self._oss = oss
        self._bucket = bucket
        self._prefix = f"wal/{name}/"
        self._segment = bytearray()
        oss.create_bucket(bucket)

    def log_put(self, key: bytes, value: bytes) -> None:
        self._segment += encode_record(OP_PUT, key, value)
        self._mirror_active()

    def log_delete(self, key: bytes) -> None:
        self._segment += encode_record(OP_DELETE, key, b"")
        self._mirror_active()

    def _mirror_active(self) -> None:
        self._oss.put_object(
            self._bucket,
            self._prefix + self.ACTIVE_KEY,
            bytes(self._segment),
            piggyback=True,
        )
