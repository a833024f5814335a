"""OSSFS: file-system facades over the object store and over backups.

The paper's restic comparison mounts OSS "like the local file system" with
the OSSFS tool.  :class:`OssFileSystem` reproduces that arrangement:
path-style reads/writes translate one-to-one into OSS requests, so a system
written against a local filesystem (the restic model) inherits OSS latency
for every file touch — which is precisely why its shared index serialises
so badly.

:class:`BrowseFileSystem` is the same mount-like shape pointed at *backup
versions* instead of raw objects: paths name logical files in a SlimStore
catalog, reads go through the L-node write-back block cache
(:mod:`repro.core.browse`) with ranged-GET planning and readahead, and
writes are write-back — acknowledged in cache, committed as a new version
on ``flush``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ObjectNotFoundError
from repro.oss.object_store import ObjectStorageService

if TYPE_CHECKING:
    from repro.core.browse import BrowseSession, BrowseStat, FlushReport


class OssFileSystem:
    """File-like operations, each backed by one or more OSS requests."""

    def __init__(self, oss: ObjectStorageService, bucket: str) -> None:
        self._oss = oss
        self._bucket = bucket
        oss.create_bucket(bucket)

    def write_file(self, path: str, data: bytes) -> None:
        """Write a whole file (one OSS PUT)."""
        self._oss.put_object(self._bucket, self._normalize(path), data)

    def read_file(self, path: str) -> bytes:
        """Read a whole file (one OSS GET); FileNotFoundError if absent."""
        try:
            return self._oss.get_object(self._bucket, self._normalize(path))
        except ObjectNotFoundError as exc:
            raise FileNotFoundError(path) from exc

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Ranged read (one HEAD + one OSS ranged GET).

        POSIX ``pread`` semantics at the end of the object: a read that
        starts inside it but runs past the end returns the short tail,
        and a read starting exactly at EOF returns ``b""``.  A read
        starting *past* EOF is a caller bug and raises ``ValueError``
        (fully out-of-range), as does a negative offset or length.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range: offset={offset} length={length}")
        key = self._normalize(path)
        size = self._oss.head_object(self._bucket, key)
        if size is None:
            raise FileNotFoundError(path)
        if offset > size:
            raise ValueError(
                f"read offset {offset} past EOF of {path} ({size} bytes)"
            )
        length = min(length, size - offset)
        if length == 0:
            return b""
        try:
            return self._oss.get_range(self._bucket, key, offset, length)
        except ObjectNotFoundError as exc:
            raise FileNotFoundError(path) from exc

    def delete_file(self, path: str) -> bool:
        """Delete a file; True if it existed."""
        return self._oss.delete_object(self._bucket, self._normalize(path))

    def exists(self, path: str) -> bool:
        """True if the file exists (one OSS HEAD)."""
        return self._oss.object_exists(self._bucket, self._normalize(path))

    def list_dir(self, path: str) -> list[str]:
        """Sorted paths under the directory ``path`` (one OSS LIST)."""
        prefix = self._normalize(path)
        if prefix and not prefix.endswith("/"):
            prefix += "/"
        return self._oss.list_objects(self._bucket, prefix)

    def file_size(self, path: str) -> int:
        """Size in bytes; FileNotFoundError if absent."""
        size = self._oss.head_object(self._bucket, self._normalize(path))
        if size is None:
            raise FileNotFoundError(path)
        return size

    @staticmethod
    def _normalize(path: str) -> str:
        return path.lstrip("/")


class BrowseFileSystem:
    """Mount-like file operations over backup versions.

    The browse analogue of :class:`OssFileSystem`: the same method shape,
    but each path names a logical backup file (optionally pinned to a
    version) and every access rides one
    :class:`~repro.core.browse.BrowseSession` — cached random-access
    reads, write-back writes, and a ``flush`` that commits dirtied files
    as new versions through the backup path.
    """

    def __init__(self, session: "BrowseSession") -> None:
        self._session = session

    def read_file(self, path: str, version: int | None = None) -> bytes:
        """The file's whole content at ``version`` (latest when None)."""
        handle = self._open(path, version)
        return handle.read(0, handle.size)

    def read_range(
        self, path: str, offset: int, length: int, version: int | None = None
    ) -> bytes:
        """Ranged read with the same EOF contract as :class:`OssFileSystem`:
        short tail inside the file, ``b""`` at EOF, ``ValueError`` past it.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range: offset={offset} length={length}")
        handle = self._open(path, version)
        if offset > handle.size:
            raise ValueError(
                f"read offset {offset} past EOF of {path} ({handle.size} bytes)"
            )
        return handle.read(offset, length)

    def write_file(self, path: str, data: bytes) -> None:
        """Replace the file's content (write-back; commit on ``flush``)."""
        handle = self._open(path, None)
        if data:
            handle.write(0, data)
        handle.truncate(len(data))

    def write_range(self, path: str, offset: int, data: bytes) -> int:
        """Write-back ``data`` at ``offset`` in the latest version."""
        return self._open(path, None).write(offset, data)

    def flush(self, path: str | None = None) -> list["FlushReport"]:
        """Commit dirtied files as new versions; returns their reports."""
        return self._session.flush(path)

    def exists(self, path: str) -> bool:
        """True if the catalog holds any version of ``path``."""
        return bool(self._session.store.catalog.versions(self._normalize(path)))

    def list_dir(self, path: str) -> list[str]:
        """Sorted catalog paths under the directory ``path``."""
        prefix = self._normalize(path)
        if prefix and not prefix.endswith("/"):
            prefix += "/"
        return sorted(
            p for p in self._session.store.catalog.paths() if p.startswith(prefix)
        )

    def file_size(self, path: str, version: int | None = None) -> int:
        """Logical size in bytes (un-flushed writes included)."""
        return self._open(path, version).size

    def versions(self, path: str) -> list[int]:
        """Live backup versions of ``path``."""
        return self._session.store.catalog.versions(self._normalize(path))

    def stat(self, path: str, version: int | None = None) -> "BrowseStat":
        """Size/version/dirtiness of one file."""
        return self._open(path, version).stat()

    def _open(self, path: str, version: int | None):
        try:
            return self._session.open(self._normalize(path), version)
        except KeyError as exc:  # VersionNotFoundError subclasses KeyError
            raise FileNotFoundError(path) from exc

    @staticmethod
    def _normalize(path: str) -> str:
        return path.lstrip("/")
