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
version is its newest live version's recipe.  The index writes nothing.
"""

from __future__ import annotations

import base64
from collections import Counter
from collections.abc import Iterable

from repro.fingerprint.hashing import FP_SIZE

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


def _group(by_rep: dict[bytes, Owner]) -> dict[Owner, list[bytes]]:
    grouped: dict[Owner, list[bytes]] = {}
    for fp, owner in sorted(by_rep.items()):
        grouped.setdefault(owner, []).append(fp)
    return grouped
