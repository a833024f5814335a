"""Shared dataset structures, generator base class and mutation helpers."""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


@dataclass
class BackupFile:
    """One file of one backup version."""

    path: str
    data: bytes

    @property
    def size(self) -> int:
        """File length in bytes."""
        return len(self.data)


@dataclass
class DatasetVersion:
    """One full-volume backup version: every file at a point in time."""

    version: int
    files: list[BackupFile] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Logical size of this version."""
        return sum(item.size for item in self.files)


@dataclass
class DatasetSummary:
    """The Table I characteristics of a generated dataset.

    ``average_duplication_ratio`` is the paper's headline metric and
    deliberately counts only *cross-version* duplication (bytes of a
    version whose content survives from the previous version), while
    ``self_reference`` is the dataset's intra-version duplication target.
    The two observed ratios are carried separately so one number never
    silently absorbs the other: ``cross_version_duplication`` is the
    generator's observed inter-version duplicate fraction (content-wise:
    a page copied from elsewhere in the same file still duplicates
    previous-version content and counts here too), and
    ``intra_version_duplication`` is the observed fraction of bytes that
    duplicate earlier content of the *same* version.
    """

    name: str
    total_bytes: int
    version_count: int
    file_count: int
    average_duplication_ratio: float
    self_reference: float
    #: Observed inter-version duplicate fraction (None when the generator
    #: predates split accounting).
    cross_version_duplication: float | None = None
    #: Observed intra-version duplicate fraction.
    intra_version_duplication: float | None = None

    def rows(self) -> list[tuple[str, str]]:
        """(label, value) pairs formatted like the paper's Table I."""
        rows = [
            ("Dataset name", self.name),
            ("Total size (MB)", f"{self.total_bytes / (1 << 20):.2f}"),
            ("# of versions", str(self.version_count)),
            ("# of files", str(self.file_count)),
            ("Average duplication ratio", f"{self.average_duplication_ratio:.2f}"),
            ("Self-reference", f"{self.self_reference:.1%}"),
        ]
        if self.cross_version_duplication is not None:
            rows.append(
                ("Cross-version duplication", f"{self.cross_version_duplication:.2f}")
            )
        if self.intra_version_duplication is not None:
            rows.append(
                ("Intra-version duplication", f"{self.intra_version_duplication:.1%}")
            )
        return rows


@dataclass(frozen=True)
class DuplicationBreakdown:
    """Content-measured duplication of a version stream, split by kind.

    Computed by :func:`measure_duplication` from the emitted bytes alone
    (fixed-size block hashing), so it audits whatever accounting a
    generator claims: ``cross_version_ratio`` is the fraction of
    version-N bytes (N >= 1) whose block content already existed
    anywhere in version N-1, and ``intra_version_ratio`` is the fraction
    of bytes (all versions) whose block content appeared earlier in the
    *same* version.  A block counts at most once: intra-duplication
    takes precedence, mirroring how a dedup system stores one copy per
    stream position.
    """

    cross_version_bytes: int
    intra_version_bytes: int
    #: Bytes of versions 1.. (the cross-version denominator).
    successor_bytes: int
    #: Bytes of every version (the intra-version denominator).
    total_bytes: int

    @property
    def cross_version_ratio(self) -> float:
        """Inter-version duplicate fraction over versions 1.. ."""
        if self.successor_bytes == 0:
            return 0.0
        return self.cross_version_bytes / self.successor_bytes

    @property
    def intra_version_ratio(self) -> float:
        """Intra-version duplicate fraction over the whole stream."""
        if self.total_bytes == 0:
            return 0.0
        return self.intra_version_bytes / self.total_bytes


def _version_blocks(version: DatasetVersion, block_bytes: int):
    """Yield (digest, size) of each fixed block, files in stream order."""
    for item in version.files:
        data = item.data
        for start in range(0, len(data), block_bytes):
            block = data[start : start + block_bytes]
            yield hashlib.blake2b(block, digest_size=16).digest(), len(block)


def measure_duplication(
    versions: list[DatasetVersion], block_bytes: int = 4096
) -> DuplicationBreakdown:
    """Measure intra- and cross-version duplication from content alone.

    Blocks are cut at fixed ``block_bytes`` boundaries per file, so the
    measurement is exact for generators that mutate block-aligned
    content and a close lower bound otherwise (an unaligned edit breaks
    the blocks it straddles).  This is the auditor the unit tests run
    against hand-computed tiny datasets.
    """
    cross = intra = successor = total = 0
    previous: set[bytes] = set()
    for index, version in enumerate(versions):
        seen: set[bytes] = set()
        for digest, size in _version_blocks(version, block_bytes):
            total += size
            if index > 0:
                successor += size
            if digest in seen:
                intra += size
            elif index > 0 and digest in previous:
                cross += size
            seen.add(digest)
        previous = seen
    return DuplicationBreakdown(
        cross_version_bytes=cross,
        intra_version_bytes=intra,
        successor_bytes=successor,
        total_bytes=total,
    )


def random_block(rng: np.random.Generator, size: int) -> bytes:
    """Uniformly random bytes — incompressible, dedupe-hostile content."""
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class WorkloadGenerator(ABC):
    """Base class of every seeded multi-version workload generator.

    Subclasses mutate their private state in :meth:`next_version` and
    render it in :meth:`current_version`.  The base tracks the version
    counter, the logical byte total, the observed split duplication
    accounting, and — crucially for the analytical dedup oracle — the
    generator's *innovation*: every fresh uniformly random byte drawn
    through :meth:`_fresh` is incompressible new content, so the sum is
    a Niesen-style ceiling on how much unique data the version stream
    can possibly contain.
    """

    name: str = "abstract"

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._version = 0
        self._total_bytes = 0
        #: Uniformly random bytes drawn so far (the innovation process).
        self.fresh_random_bytes = 0
        #: Per-version observed inter-version duplicate fractions.
        self._observed_cross: list[float] = []
        #: Per-version observed intra-version duplicate fractions.
        self._observed_intra: list[float] = []

    # --- innovation-counted randomness --------------------------------------
    def _fresh(self, size: int) -> bytes:
        """Fresh random content, counted toward the innovation total."""
        self.fresh_random_bytes += size
        return random_block(self._rng, size)

    # --- version stream ------------------------------------------------------
    @abstractmethod
    def current_version(self) -> DatasetVersion:
        """The current state of every file as one backup version."""

    @abstractmethod
    def next_version(self) -> DatasetVersion:
        """Mutate the population and return the new backup version."""

    @property
    def version_count(self) -> int:
        """Configured number of versions (from ``self.config``)."""
        return int(self.config.version_count)  # type: ignore[attr-defined]

    def versions(self) -> list[DatasetVersion]:
        """All configured versions, version 0 first."""
        output = [self.current_version()]
        self._total_bytes = output[0].total_bytes
        for _ in range(self.version_count - 1):
            output.append(self.next_version())
        return output

    # --- reporting ------------------------------------------------------------
    def _observed_cross_ratio(self, default: float) -> float:
        if not self._observed_cross:
            return default
        return float(np.mean(self._observed_cross))

    def _observed_intra_ratio(self, default: float = 0.0) -> float:
        if not self._observed_intra:
            return default
        return float(np.mean(self._observed_intra))

    @abstractmethod
    def summary(self) -> DatasetSummary:
        """Table I-style characteristics of the data generated so far."""
