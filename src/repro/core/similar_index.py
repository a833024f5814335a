"""The similar-file index (Section III-B).

"Similar index stores the representative fingerprints of each file, which
is used to find similar files.  According to Broder's theorem, ... if two
files share some representative fingerprints, they are considered similar."

Detection order follows Section IV-A, step 1: the latest historical version
is found by file path first (cheap and usually right); only when that fails
does the L-node sample the file header and vote over representative
fingerprints.  The index is small and persisted to OSS so stateless L-nodes
can always load the current view: each registration appends one small record
to a :class:`~repro.oss.deltalog.DeltaLog`, and the whole index is only
rewritten (as the log's checkpoint) when the log folds.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Iterable

from repro.fingerprint.hashing import FP_SIZE
from repro.oss.deltalog import DeltaLog
from repro.oss.object_store import ObjectStorageService

_OBJECT_KEY = "similar/index"
_LOG_PREFIX = "similar/log/"
_HEADER = struct.Struct(">II")          # file count, representative count
_NAME_ENTRY = struct.Struct(">HI")      # path length, latest version
_REP_ENTRY = struct.Struct(">20sHI")    # fp, path length, version
#: Checkpoint trailer: the log sequence number it is folded through.  It
#: follows the counted entries, so a reader of the trailer-less format never
#: reaches it, and a checkpoint without one is folded through 0.
_LOG_NEXT = struct.Struct(">Q")


class SimilarFileIndex:
    """Path → latest version plus representative fingerprint votes."""

    def __init__(self, oss: ObjectStorageService, bucket: str = "slimstore") -> None:
        self._oss = oss
        self._bucket = bucket
        self._latest: dict[str, int] = {}
        self._by_rep: dict[bytes, tuple[str, int]] = {}
        oss.create_bucket(bucket)
        #: Checkpoint ``similar/index`` plus one record per registration.
        self.log = DeltaLog(oss, bucket, _OBJECT_KEY, _LOG_PREFIX)

    # --- queries -----------------------------------------------------------
    def latest_version(self, path: str) -> int | None:
        """Most recent backup version of ``path``, or None."""
        return self._latest.get(path)

    def find_similar(
        self, sample_fps: Iterable[bytes], min_votes: int = 1
    ) -> tuple[str, int] | None:
        """The (path, version) sharing the most representative fingerprints.

        Returns None when no candidate reaches ``min_votes`` shared
        fingerprints — such files are backed up without a dedup base.
        """
        votes: Counter[tuple[str, int]] = Counter()
        for fp in sample_fps:
            owner = self._by_rep.get(fp)
            if owner is not None:
                votes[owner] += 1
        if not votes:
            return None
        best, best_votes = votes.most_common(1)[0]
        if best_votes < min_votes:
            return None
        return best

    # --- updates ---------------------------------------------------------------
    def register(self, path: str, version: int, representatives: Iterable[bytes]) -> None:
        """Record a finished backup and persist it as one log record."""
        latest = max(version, self._latest.get(path, version))
        owned = {fp: (path, version) for fp in representatives}
        self.log.append(_encode({path: latest}, owned))
        self._latest[path] = latest
        self._by_rep.update(owned)
        self.log.fold_if_due(self._checkpoint)

    def forget_version(self, path: str, version: int) -> None:
        """Drop the entries pointing at a deleted recipe: its representatives
        (later versions took over the ones they share) and, if it is the
        path's latest, the path.  Folds only when something was dropped."""
        stale = [
            fp for fp, owner in self._by_rep.items() if owner == (path, version)
        ]
        for fp in stale:
            del self._by_rep[fp]
        was_latest = self._latest.get(path) == version
        if was_latest:
            del self._latest[path]
        if stale or was_latest:
            self._persist()

    def rollback_registration(
        self, path: str, version: int, previous: int | None
    ) -> None:
        """Undo an uncommitted version's registration (crash recovery).

        Unlike :meth:`forget_version` — which retires a *committed*
        version and may leave the path unknown — a rollback restores
        ``previous`` (the newest committed version's recipe owner) as the
        path's latest, so the next backup of ``path`` deduplicates against
        it instead of a base that no longer exists.
        """
        stale = [
            fp for fp, owner in self._by_rep.items() if owner == (path, version)
        ]
        for fp in stale:
            del self._by_rep[fp]
        if self._latest.get(path) == version:
            if previous is None:
                del self._latest[path]
            else:
                self._latest[path] = previous
        self._persist()

    # --- persistence ------------------------------------------------------------
    def _checkpoint(self, log_next: int) -> bytes:
        return _encode(self._latest, self._by_rep) + _LOG_NEXT.pack(log_next)

    def _persist(self) -> None:
        """Fold: rewrite the whole index as the log's checkpoint."""
        self.log.fold(self._checkpoint)

    def fold_if_logged(self) -> None:
        """Fold when any record object exists (attach-time housekeeping)."""
        self.log.fold_if_logged(self._checkpoint)

    def _apply(self, payload: bytes) -> int:
        """Upsert one blob's entries (checkpoint body or a log record);
        returns the offset just past them."""
        name_count, rep_count = _HEADER.unpack_from(payload, 0)
        position = _HEADER.size
        for _ in range(name_count):
            path_len, version = _NAME_ENTRY.unpack_from(payload, position)
            position += _NAME_ENTRY.size
            path = payload[position : position + path_len].decode()
            position += path_len
            self._latest[path] = version
        for _ in range(rep_count):
            fp, path_len, version = _REP_ENTRY.unpack_from(payload, position)
            position += _REP_ENTRY.size
            path = payload[position : position + path_len].decode()
            position += path_len
            if len(fp) != FP_SIZE:
                continue
            self._by_rep[fp] = (path, version)
        return position

    def load(self) -> bool:
        """Reload state from OSS (checkpoint, then the log's tail in
        order); True if anything was persisted."""
        self._latest.clear()
        self._by_rep.clear()
        checkpoint = self.log.read_checkpoint()
        through = 0
        if checkpoint is not None:
            end = self._apply(checkpoint)
            if len(checkpoint) >= end + _LOG_NEXT.size:
                (through,) = _LOG_NEXT.unpack_from(checkpoint, end)
        tail = self.log.read_tail(through)
        for record in tail:
            self._apply(record)
        return checkpoint is not None or bool(tail)

    def stored_bytes(self) -> int:
        """Bytes of the persisted index: checkpoint plus un-folded records
        (free)."""
        return self.log.stored_bytes()


def _encode(latest: dict[str, int], by_rep: dict[bytes, tuple[str, int]]) -> bytes:
    """The index blob format: header, name entries, representative entries."""
    blob = bytearray(_HEADER.pack(len(latest), len(by_rep)))
    for path, version in sorted(latest.items()):
        encoded = path.encode()
        blob += _NAME_ENTRY.pack(len(encoded), version)
        blob += encoded
    for fp, (path, version) in sorted(by_rep.items()):
        encoded = path.encode()
        blob += _REP_ENTRY.pack(fp, len(encoded), version)
        blob += encoded
    return bytes(blob)
