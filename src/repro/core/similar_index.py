"""The similar-file index (Section III-B).

"Similar index stores the representative fingerprints of each file, which
is used to find similar files.  According to Broder's theorem, ... if two
files share some representative fingerprints, they are considered similar."

Detection order follows Section IV-A, step 1: the latest historical version
is found by file path first (cheap and usually right); only when that fails
does the L-node sample the file header and vote over representative
fingerprints.  The index is small and persisted to OSS so stateless
L-nodes can always load it — here as a view of the version catalog
(:class:`~repro.core.system.VersionCatalog`): a version's representatives
ride its commit record, the checkpoint carries them, and a path's latest
version is its newest live version's recipe.  The index writes nothing;
:func:`read_legacy` reads the layout written before (``similar/index`` +
``similar/log/<seq>``).
"""

from __future__ import annotations

import base64
import struct
from collections import Counter
from collections.abc import Iterable

from repro.fingerprint.hashing import FP_SIZE
from repro.oss.deltalog import DeltaLog
from repro.oss.object_store import ObjectStorageService

#: The (path, version) a representative fingerprint votes for.
Owner = tuple[str, int]


class SimilarFileIndex:
    """Path → latest version plus representative fingerprint votes."""

    def __init__(self) -> None:
        self._latest: dict[str, int] = {}
        self._by_rep: dict[bytes, Owner] = {}

    # --- queries -----------------------------------------------------------
    def latest_version(self, path: str) -> int | None:
        """Most recent backup version of ``path``, or None."""
        return self._latest.get(path)

    def find_similar(
        self, sample_fps: Iterable[bytes], min_votes: int = 1
    ) -> Owner | None:
        """The (path, version) sharing the most representative fingerprints.

        Returns None when no candidate reaches ``min_votes`` shared
        fingerprints — such files are backed up without a dedup base.
        """
        votes: Counter[Owner] = Counter()
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

    def owners(self) -> dict[Owner, list[bytes]]:
        """Each (path, version) → the representatives it owns, sorted."""
        return _group(self._by_rep)

    # --- updates ---------------------------------------------------------------
    def register(self, path: str, version: int, representatives: Iterable[bytes]) -> None:
        """Record a finished backup (the last registration of a fp wins)."""
        self._latest[path] = max(version, self._latest.get(path, version))
        for fp in representatives:
            self._by_rep[fp] = (path, version)

    def forget_version(self, path: str, version: int) -> None:
        """Drop the entries pointing at a deleted recipe: its representatives
        (later versions took over the ones they share) and, if it is the
        path's latest, the path."""
        stale = [fp for fp, owner in self._by_rep.items() if owner == (path, version)]
        for fp in stale:
            del self._by_rep[fp]
        if self._latest.get(path) == version:
            del self._latest[path]

    def load(self, owners: dict[Owner, Iterable[bytes]], latest: dict | None = None) -> None:
        """Replace the view: owner → its representatives, path → latest."""
        self._by_rep = {fp: owner for owner, fps in owners.items() for fp in fps}
        self._latest = dict(latest or {})


# --- the commit record's encoding -------------------------------------------
def pack(representatives: Iterable[bytes]) -> str:
    """Base64 of the concatenated fingerprints (a JSON-ready op element)."""
    return base64.b64encode(b"".join(representatives)).decode()


def unpack(packed: str) -> list[bytes]:
    """The fingerprints :func:`pack` encoded, in order."""
    raw = base64.b64decode(packed)
    return [raw[i : i + FP_SIZE] for i in range(0, len(raw), FP_SIZE)]


# --- the legacy layout ----------------------------------------------------------
_LEGACY_KEY = "similar/index"
_LEGACY_LOG_PREFIX = "similar/log/"
_HEADER = struct.Struct(">II")          # file count, representative count
_NAME_ENTRY = struct.Struct(">HI")      # path length, latest version
_REP_ENTRY = struct.Struct(">20sHI")    # fp, path length, version
_LOG_NEXT = struct.Struct(">Q")        # checkpoint trailer: folded through


def _apply(by_rep: dict[bytes, Owner], payload: bytes) -> int:
    """Upsert one legacy blob's representatives (its path entries are
    skipped); returns the offset just past them."""
    name_count, rep_count = _HEADER.unpack_from(payload, 0)
    position = _HEADER.size
    for _ in range(name_count):
        path_len, _version = _NAME_ENTRY.unpack_from(payload, position)
        position += _NAME_ENTRY.size + path_len
    for _ in range(rep_count):
        fp, path_len, version = _REP_ENTRY.unpack_from(payload, position)
        position += _REP_ENTRY.size
        path = payload[position : position + path_len].decode()
        position += path_len
        if len(fp) == FP_SIZE:
            by_rep[fp] = (path, version)
    return position


def read_legacy(
    oss: ObjectStorageService, bucket: str
) -> tuple[dict[Owner, list[bytes]], list[str]]:
    """The owners the legacy layout holds (checkpoint, then its log's tail)
    and every key it occupies, fold debris included; ``({}, [])`` if none."""
    log = DeltaLog(oss, bucket, _LEGACY_KEY, _LEGACY_LOG_PREFIX)
    by_rep: dict[bytes, Owner] = {}
    keys: list[str] = []
    checkpoint = log.read_checkpoint()
    through = 0
    if checkpoint is not None:
        keys.append(_LEGACY_KEY)
        end = _apply(by_rep, checkpoint)
        if len(checkpoint) >= end + _LOG_NEXT.size:
            (through,) = _LOG_NEXT.unpack_from(checkpoint, end)
    for record in log.read_tail(through):
        _apply(by_rep, record)
    return _group(by_rep), keys + log.record_keys()


def _group(by_rep: dict[bytes, Owner]) -> dict[Owner, list[bytes]]:
    grouped: dict[Owner, list[bytes]] = {}
    for fp, owner in sorted(by_rep.items()):
        grouped.setdefault(owner, []).append(fp)
    return grouped
