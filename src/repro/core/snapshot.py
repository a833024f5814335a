"""Snapshots: grouping one full-volume backup run across files.

The paper's service scenario is "continuous backup requirements for
full-volume data" — a user uploads the state of *all* their files at one
point in time.  A snapshot records which version of each file belongs to
one backup run, so a whole run can be restored or collected as a unit
while the per-file machinery (recipes, versions, dedup) stays unchanged.

Snapshots are catalog state with no object of their own: a member joins
its run in the catalog record that commits it (a ``join_snapshot`` op), a
delete drops the run in the record that drops its members, and the
checkpoint carries :class:`SnapshotStore` as its ``"snapshots"`` section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


class SnapshotNotFoundError(ReproError, KeyError):
    """The requested snapshot does not exist."""

    def __init__(self, snapshot_id: str) -> None:
        super().__init__(f"snapshot not found: {snapshot_id}")
        self.snapshot_id = snapshot_id


@dataclass
class Snapshot:
    """One full-volume backup run: file path → version number."""

    snapshot_id: str
    members: dict[str, int] = field(default_factory=dict)


class SnapshotStore:
    """Snapshot id → members, with ordered ids (no request of its own)."""

    def __init__(self) -> None:
        self._members: dict[str, dict[str, int]] = {}
        #: Ids handed out by this process stay distinct even while their
        #: runs have no committed member yet.
        self._next_id = 0

    def allocate_id(self) -> str:
        """The next snapshot id (zero-padded so ids sort by time): past
        every known id and every id this store handed out."""
        known = (int(sid) + 1 for sid in self._members if sid.isdigit())
        number = max(self._next_id, *known, 0)
        self._next_id = number + 1
        return f"{number:08d}"

    def get(self, snapshot_id: str) -> Snapshot:
        """One snapshot's members."""
        if snapshot_id not in self._members:
            raise SnapshotNotFoundError(snapshot_id)
        return Snapshot(snapshot_id, dict(self._members[snapshot_id]))

    def list_ids(self) -> list[str]:
        """All snapshot ids, oldest first."""
        return sorted(self._members)

    def join(self, snapshot_id: str, path: str, version: int) -> None:
        """Record ``version`` of ``path`` as a member of the run."""
        self._members.setdefault(snapshot_id, {})[path] = version

    def drop(self, snapshot_id: str) -> None:
        """Forget a run (its members' versions are the caller's)."""
        self._members.pop(snapshot_id, None)

    def to_json(self) -> dict[str, dict[str, int]]:
        """The catalog checkpoint's ``"snapshots"`` section."""
        return {sid: dict(sorted(m.items())) for sid, m in sorted(self._members.items())}

    def load(self, members: dict[str, dict[str, int]]) -> None:
        """Add runs (a checkpoint's section)."""
        for snapshot_id, paths in members.items():
            for path, version in paths.items():
                self.join(str(snapshot_id), str(path), int(version))

