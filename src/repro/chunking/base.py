"""Chunker contracts and the precomputed boundary set.

A chunker turns a byte buffer into content-defined cut points.  The API is
incremental — ``next_cut(start)`` / ``is_cut(start, end)`` — because the
dedup engine interleaves normal CDC with history-aware skip chunking, which
jumps ahead and only *verifies* that the landing position satisfies the cut
condition (Section IV-B of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ChunkingError


@dataclass(frozen=True)
class ChunkerParams:
    """Min/average/max chunk size bounds shared by all CDC algorithms."""

    min_size: int = 1024
    avg_size: int = 4096
    max_size: int = 32768

    def __post_init__(self) -> None:
        if not 0 < self.min_size <= self.avg_size <= self.max_size:
            raise ChunkingError(
                f"invalid chunk sizes: min={self.min_size} "
                f"avg={self.avg_size} max={self.max_size}"
            )
        if self.avg_size & (self.avg_size - 1):
            raise ChunkingError(f"avg_size must be a power of two: {self.avg_size}")

    def scaled(self, avg_size: int) -> "ChunkerParams":
        """The same shape (min=avg/4, max=avg*8) at a different average."""
        return ChunkerParams(
            min_size=max(64, avg_size // 4),
            avg_size=avg_size,
            max_size=avg_size * 8,
        )


@dataclass(frozen=True)
class RawChunk:
    """One cut chunk: its position in the stream and its payload view.

    ``data`` is a zero-copy :class:`memoryview` slice of the chunked
    buffer (hashing, container packing and ``bytes.join`` all accept
    buffer objects directly); call :meth:`tobytes` only when an owning
    copy is genuinely needed.
    """

    start: int
    end: int
    data: bytes | memoryview

    @property
    def size(self) -> int:
        """Chunk length in bytes."""
        return self.end - self.start

    def tobytes(self) -> bytes:
        """An owning ``bytes`` copy of the payload."""
        return bytes(self.data)


def first_in(positions: list[int], lo: int, hi: int) -> int | None:
    """Smallest position ``p`` of an ascending list with ``lo < p <= hi``."""
    index = bisect_right(positions, lo)
    if index < len(positions) and positions[index] <= hi:
        return positions[index]
    return None


class BoundarySet:
    """Hash-condition positions for one buffer, cut-point queries on top.

    ``positions`` are stream offsets ``p`` where the rolling hash of the
    window ending at ``p`` satisfies the (permissive) cut condition;
    ``strict`` marks the subset that also satisfies the strict condition
    (FastCDC's small mask).  For single-mask algorithms both sets coincide.
    """

    def __init__(
        self,
        length: int,
        params: ChunkerParams,
        positions: np.ndarray,
        strict_positions: np.ndarray | None = None,
    ) -> None:
        self.length = length
        self.params = params
        self._positions = np.asarray(positions, dtype=np.int64)
        self._strict = (
            self._positions
            if strict_positions is None
            else np.asarray(strict_positions, dtype=np.int64)
        )
        # Queries bisect plain lists: one C-speed ``tolist()`` per array,
        # where bisecting the arrays boxes an element per probe.
        self._position_list: list[int] = self._positions.tolist()
        self._strict_list: list[int] = (
            self._position_list if strict_positions is None else self._strict.tolist()
        )

    def offsets(self) -> tuple[list[int], list[int]]:
        """``(permissive, strict)`` ascending positions as plain lists
        (one list twice for a single-mask algorithm)."""
        return self._position_list, self._strict_list

    def next_cut(self, start: int) -> int:
        """The CDC cut position for a chunk starting at ``start``.

        Semantics follow FastCDC's normalized chunking: look for a strict
        (small-mask) boundary in ``(start+min, start+avg]``, then a
        permissive (large-mask) boundary in ``(start+avg, start+max)``,
        else cut at ``start+max``.  End of buffer is always a boundary.
        For single-mask chunkers the two phases collapse into "first
        boundary in ``(start+min, start+max)``".
        """
        if start < 0 or start >= self.length:
            raise ChunkingError(f"cut start {start} outside buffer of {self.length}")
        min_pos = start + self.params.min_size
        avg_pos = start + self.params.avg_size
        max_pos = start + self.params.max_size
        if min_pos >= self.length:
            return self.length

        candidate = first_in(self._strict_list, min_pos, min(avg_pos, self.length))
        if candidate is None:
            candidate = first_in(
                self._position_list, min(avg_pos, self.length), min(max_pos, self.length)
            )
        if candidate is not None:
            return candidate
        return min(max_pos, self.length)

    def is_cut(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is an admissible chunk ending on a cut.

        This is the skip-chunking probe: "if the position after skipping
        meets the cut condition, the skip chunking is successful".  The end
        of the buffer is always admissible (a final partial chunk).
        """
        size = end - start
        if size <= 0 or size > self.params.max_size:
            return False
        if end == self.length:
            return True
        if size < self.params.min_size:
            return False
        if size == self.params.max_size:
            return True
        positions = (
            self._strict_list if size <= self.params.avg_size else self._position_list
        )
        return first_in(positions, end - 1, end) is not None


class Chunker(ABC):
    """A content-defined (or fixed) chunking algorithm."""

    #: Cost-model algorithm key ("rabin", "gear", "fastcdc", "fixed").
    name: str = "abstract"
    #: Rolling-hash window width in bytes; None for a chunker that never
    #: looks at content (fixed-size), which has no :meth:`candidates`.
    window: int | None = None

    def __init__(self, params: ChunkerParams | None = None) -> None:
        self.params = params or ChunkerParams()
        if self.window is not None and self.params.min_size <= self.window:
            raise ValueError(
                f"min chunk size {self.params.min_size} must exceed the "
                f"{self.window}-byte {self.name} window"
            )

    def candidates(self, buf: bytes | memoryview) -> list[np.ndarray]:
        """Hash-condition offsets of every full window in ``buf``.

        The scan :meth:`boundaries` wraps, without its whole-buffer rules:
        ``[permissive]`` or ``[permissive, strict]`` ascending int64
        offsets, in :class:`BoundarySet` argument order.  Offsets are
        window *ends* local to ``buf`` (the first possible one is
        ``window``), so ``buf`` may be any slice of a stream and the
        caller adds the slice origin.
        """
        raise NotImplementedError(f"{self.name} chunking scans no content")

    def is_candidate(self, buf: bytes | memoryview, end: int, strict: bool) -> bool:
        """Whether ``end`` is among :meth:`candidates` of ``buf``.

        One window hash instead of a scan: the skip-chunking probe, which
        asks about a single predicted offset.  ``strict`` picks the
        condition (they coincide for a single-mask algorithm), and
        ``window <= end <= len(buf)``.  Must equal the scan kernel bit for
        bit (``tests/chunking/test_boundary_cursor.py``).
        """
        raise NotImplementedError(f"{self.name} chunking scans no content")

    @abstractmethod
    def boundaries(self, data: bytes) -> BoundarySet:
        """Precompute every hash-condition position in ``data``."""

    def chunk(self, data: bytes) -> list[RawChunk]:
        """Cut ``data`` into chunks by repeatedly applying ``next_cut``.

        Payloads are zero-copy ``memoryview`` slices of ``data`` — the
        hot loop never duplicates the stream (the per-chunk ``bytes``
        copy used to dominate allocation; see the zero-copy
        microbenchmark under ``benchmarks/``).
        """
        boundary_set = self.boundaries(data)
        view = memoryview(data)
        chunks: list[RawChunk] = []
        start = 0
        while start < len(data):
            end = boundary_set.next_cut(start)
            chunks.append(RawChunk(start, end, view[start:end]))
            start = end
        return chunks


def make_chunker(name: str, params: ChunkerParams | None = None) -> Chunker:
    """Factory mapping config strings to chunker instances."""
    from repro.chunking.fastcdc import FastCDCChunker
    from repro.chunking.fixed import FixedChunker
    from repro.chunking.gear import GearChunker
    from repro.chunking.rabin import RabinChunker

    registry = {
        "rabin": RabinChunker,
        "gear": GearChunker,
        "fastcdc": FastCDCChunker,
        "fixed": FixedChunker,
    }
    cls = registry.get(name)
    if cls is None:
        raise ChunkingError(f"unknown chunker: {name!r} (choose from {sorted(registry)})")
    return cls(params)
