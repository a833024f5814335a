"""Checkpoint + delta records: O(1) persistence for incrementally changing state.

Three owners keep their state on OSS through a :class:`DeltaLog`: the
version catalog (a few ops per backup, the similar-file index's
representatives among them), each Rocks-OSS write-ahead log (one record
per logged batch), and the durability tier (one record per tier step).  Re-PUTting
such a structure whole on every change makes the write cost quadratic in
its size.  A log keeps it as one *checkpoint* object plus a dense run of
small numbered *records*: a change appends one record (a single atomic
PUT), and every :data:`FOLD_EVERY` records the owner *folds* — re-publishes
the checkpoint and drops the records it now covers with one batched DELETE.

The log knows nothing about what the records mean.  The owner serialises
its checkpoint together with the sequence number the log says it is folded
through, and hands that number back to :meth:`DeltaLog.read_tail` on
attach; that is the whole crash protocol.  A crash between a fold's
checkpoint PUT and its DELETE leaves records numbered below the
checkpoint's mark — *debris* a reader recognises as already folded, skips,
and deletes with the next fold — so a fold needs no journal intent.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import RetryExhaustedError, TransientOSSError
from repro.oss.object_store import ObjectStorageService

#: Records between folds.  Swept on ``srctree_smallfiles`` (1,957 calls of
#: ~4 KiB, seed 1), OSS bytes moved per logical byte: 32 → 2.31, 64 → 2.04,
#: 256 → 1.83, 1024 → 1.78, ingest wall within 15% across the sweep.  At
#: that workload's 3-version horizon the checkpoint rewrites past 256 are
#: noise, and 256 bounds the tail an attach must read back.  They are not
#: noise over a long history: each fold re-PUTs the whole state, so on a
#: 24-version S-DB chain the checkpoints were 63% of the bytes PUT.
FOLD_EVERY = 256


class DeltaLog:
    """One checkpoint object plus numbered delta records under a prefix."""

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str,
        checkpoint_key: str,
        log_prefix: str,
        piggyback: bool = False,
    ) -> None:
        self._oss = oss
        self._bucket = bucket
        self._checkpoint_key = checkpoint_key
        self._prefix = log_prefix
        #: Charge record PUTs as appends to a node-local file (bandwidth,
        #: no round trip) — the WAL's cost model; checkpoints pay in full.
        self._piggyback = piggyback
        #: Record objects may exist at ``[_first, _next)``; those below
        #: ``_through`` (the checkpoint's mark) are debris.
        self._first = 0
        self._through = 0
        self._next = 0

    def key(self, seq: int) -> str:
        """Object key of record ``seq``."""
        return f"{self._prefix}{seq:012d}"

    @property
    def next_seq(self) -> int:
        """The number the next record gets."""
        return self._next

    # --- writes ------------------------------------------------------------
    def append(self, record: bytes) -> None:
        """Publish one record: a single atomic PUT.

        The number is allocated only after the PUT landed, so records are
        dense and a failed PUT's (possibly torn) object is overwritten by
        the next append.
        """
        self._oss.put_object(
            self._bucket, self.key(self._next), record, piggyback=self._piggyback
        )
        self._next += 1

    def fold(self, checkpoint: Callable[[int], bytes]) -> None:
        """Publish ``checkpoint(through)`` — the owner's whole state, marked
        as folded through record number ``through`` — then drop every record
        it covers with one batched DELETE."""
        self._oss.put_object(
            self._bucket, self._checkpoint_key, checkpoint(self._next)
        )
        self._through = self._next
        self._oss.delete_objects(self._bucket, self.record_keys())
        self._first = self._next

    def fold_if_due(self, checkpoint: Callable[[int], bytes]) -> None:
        """Housekeeping after an append: fold once :data:`FOLD_EVERY`
        records wait.

        The record this follows has landed, so a fold that cannot reach OSS
        is not the caller's failure: it stays due and the next append tries
        again.
        """
        if self._next - self._through >= FOLD_EVERY:
            try:
                self.fold(checkpoint)
            except (TransientOSSError, RetryExhaustedError):
                pass

    def fold_if_logged(self, checkpoint: Callable[[int], bytes]) -> None:
        """Attach-time housekeeping: fold when any record object (tail or
        debris) exists, so the next attach has nothing to replay."""
        if self.record_keys():
            self.fold(checkpoint)

    # --- reads -------------------------------------------------------------
    def read_checkpoint(self) -> bytes | None:
        """The checkpoint object, or None when none was ever folded."""
        if self._oss.peek_size(self._bucket, self._checkpoint_key) is None:
            return None
        return self._oss.get_object(self._bucket, self._checkpoint_key)

    def read_tail(self, through: int) -> list[bytes]:
        """Records numbered ``through`` and up, in order; resumes numbering.

        Both ends are found by probing record keys — up from ``through``
        for the live tail, down from ``through - 1`` for the debris of an
        interrupted fold — never by listing the bucket: records are dense,
        and a key scan costs more than the whole tail on a large bucket.
        """
        size = self._oss.peek_size
        first = through
        while first > 0 and size(self._bucket, self.key(first - 1)) is not None:
            first -= 1
        tail = []
        seq = through
        while size(self._bucket, self.key(seq)) is not None:
            tail.append(self._oss.get_object(self._bucket, self.key(seq)))
            seq += 1
        self._first, self._through, self._next = first, through, seq
        return tail

    # --- accounting --------------------------------------------------------
    def record_keys(self) -> list[str]:
        """Keys of every record object this log may hold, ascending."""
        return [self.key(seq) for seq in range(self._first, self._next)]

    def debris_keys(self) -> list[str]:
        """Records a checkpoint already covers (an interrupted fold)."""
        return [self.key(seq) for seq in range(self._first, self._through)]

    def stored_bytes(self) -> int:
        """Bytes of the checkpoint plus every record object (free)."""
        size = self._oss.peek_size
        return sum(
            size(self._bucket, key) or 0
            for key in [self._checkpoint_key, *self.record_keys()]
        )
