"""Byte-storage backends behind the simulated OSS.

The object store itself only deals in keys and byte strings; where those
bytes physically live is a backend concern.  ``InMemoryBackend`` is the
default for tests and benchmarks, ``FilesystemBackend`` persists objects
under a directory for the examples that want durable state.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path


class StorageBackend(ABC):
    """Minimal key → bytes storage contract used by the object store."""

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, overwriting any previous value."""

    @abstractmethod
    def get(self, key: str) -> bytes | None:
        """Return the bytes stored under ``key`` or None if absent."""

    def get_range(self, key: str, offset: int, length: int) -> bytes | None:
        """``length`` bytes at ``offset`` of the object, or None if absent.

        The default slices a whole :meth:`get`; backends with real random
        access (files) override it to read only the requested span, which
        is also what makes concurrent ranged reads cheap.
        """
        data = self.get(key)
        if data is None:
            return None
        return data[offset : offset + length]

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; return True if it existed."""

    @abstractmethod
    def keys(self, prefix: str = "") -> Iterator[str]:
        """Iterate over the stored keys starting with ``prefix``, in sorted
        order (the filter runs before the sort)."""

    @abstractmethod
    def size(self, key: str) -> int | None:
        """Byte length of the object under ``key`` or None if absent."""

    def contains(self, key: str) -> bool:
        """True if ``key`` currently holds an object."""
        return self.size(key) is not None

    def total_bytes(self) -> int:
        """Sum of all stored object sizes (handy for space accounting).

        Backends with cheaper bookkeeping (e.g. an in-memory dict) should
        override this key-by-key default.
        """
        return sum(self.size(key) or 0 for key in self.keys())


class InMemoryBackend(StorageBackend):
    """Dictionary-backed storage; the default for simulation runs."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self._objects[key] = bytes(data)

    def get(self, key: str) -> bytes | None:
        return self._objects.get(key)

    def delete(self, key: str) -> bool:
        return self._objects.pop(key, None) is not None

    def keys(self, prefix: str = "") -> Iterator[str]:
        return iter(sorted([key for key in self._objects if key.startswith(prefix)]))

    def size(self, key: str) -> int | None:
        data = self._objects.get(key)
        return None if data is None else len(data)

    def total_bytes(self) -> int:
        """Sum of all stored object sizes, without per-key stat calls."""
        return sum(len(data) for data in self._objects.values())


class FilesystemBackend(StorageBackend):
    """Stores each object as a file under a root directory.

    Keys may contain ``/`` which map to subdirectories.  Used by examples
    that want backups to survive process restarts.

    Ranged reads go through :func:`os.pread` on a small LRU cache of open
    descriptors: pread carries its own offset, so any number of threads
    can read the same container concurrently with no seek state to race
    on.  ``put``/``delete`` swap the inode (atomic ``os.replace``),
    so both invalidate the cached descriptor under the lock.
    """

    _FD_CACHE_SIZE = 128

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._fds: OrderedDict[str, int] = OrderedDict()
        self._fd_lock = threading.Lock()

    def _fd(self, key: str, path: Path) -> int | None:
        with self._fd_lock:
            fd = self._fds.get(key)
            if fd is not None:
                self._fds.move_to_end(key)
                return fd
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        with self._fd_lock:
            raced = self._fds.get(key)
            if raced is not None:
                # Another thread opened it first; keep theirs.
                self._fds.move_to_end(key)
                os.close(fd)
                return raced
            self._fds[key] = fd
            while len(self._fds) > self._FD_CACHE_SIZE:
                _, old = self._fds.popitem(last=False)
                os.close(old)
        return fd

    def _drop_fd(self, key: str) -> None:
        with self._fd_lock:
            fd = self._fds.pop(key, None)
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        """Release every cached descriptor."""
        with self._fd_lock:
            fds, self._fds = list(self._fds.values()), OrderedDict()
        for fd in fds:
            os.close(fd)

    def _path(self, key: str) -> Path:
        if not key or key.startswith("/") or ".." in key.split("/"):
            raise ValueError(f"unsafe object key: {key!r}")
        path = self._root / key
        if path == self._root:
            # Keys like "." normalise to the root directory itself.
            raise ValueError(f"unsafe object key: {key!r}")
        return path

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(data)
        try:
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self._drop_fd(key)

    def get(self, key: str) -> bytes | None:
        path = self._path(key)
        if not path.is_file():
            return None
        return path.read_bytes()

    def get_range(self, key: str, offset: int, length: int) -> bytes | None:
        fd = self._fd(key, self._path(key))
        if fd is None:
            return None
        chunks = []
        remaining = length
        while remaining > 0:
            piece = os.pread(fd, remaining, offset + length - remaining)
            if not piece:
                break
            chunks.append(piece)
            remaining -= len(piece)
        return b"".join(chunks)

    def delete(self, key: str) -> bool:
        path = self._path(key)
        if not path.is_file():
            return False
        path.unlink()
        self._drop_fd(key)
        return True

    def keys(self, prefix: str = "") -> Iterator[str]:
        # Only the directory a prefix names can hold its keys: walk that.
        directory = prefix.rpartition("/")[0]
        try:
            top = self._path(directory) if directory else self._root
        except ValueError:
            return iter([])  # no stored key starts with an unsafe path
        found = []
        for path in top.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                key = path.relative_to(self._root).as_posix()
                if key.startswith(prefix):
                    found.append(key)
        return iter(sorted(found))

    def size(self, key: str) -> int | None:
        path = self._path(key)
        if not path.is_file():
            return None
        return path.stat().st_size
