"""The lazy boundary cursor: scan only what classification asks for.

:class:`~repro.chunking.base.BoundarySet` scans a whole buffer before the
first query.  That wastes exactly the work history-aware skip chunking
exists to avoid (Section IV-B): across a duplicate run the dedup engine
replays the previous version's chunk sizes and only *verifies* each
predicted cut, so the bytes in between never need the byte-by-byte scan.
:class:`BoundaryCursor` answers the same two queries on demand —
``next_cut`` scans forward from where CDC actually runs, ``is_cut`` hashes
the single window that ends on the predicted offset — and returns, query
for query, what the eager set of the same buffer returns.
"""

from __future__ import annotations

from repro.chunking.base import Chunker, first_in
from repro.errors import ChunkingError

#: Read-ahead: bytes scanned past the covered range by the first extension
#: after a jump, doubling with each consecutive extension up to the cap.
#: Chosen once by measurement, not a knob (``benchmarks/e2e`` workload
#: ``sdb_serial``, seed 1: 81 MiB logical over four versions, 11.5k skipped
#: chunks, 152 failed skips; one process, best of 3 ingests).  Every CDC
#: re-entry — a failed skip, the start of each modified page run — pays the
#: first step and usually cuts a chunk or two before skipping resumes, so
#: what it scans past them is wasted.  Share of logical bytes handed to
#: the kernel (versions 1-3 alone) and full / incremental ingest MiB/s, by
#: first step under a 1 MiB cap: 4 KiB 0.423 (0.234) 74 / 145, 8 KiB 0.431
#: (0.244) 74 / 146, 16 KiB 0.438 (0.253) 75 / 143, 64 KiB 0.476 (0.304)
#: 76 / 134, 1 MiB 0.719 (0.627) 74 / 105 — the last is a fixed 1 MiB slab,
#: which gives back most of the gain.  4 and 8 KiB read the same on the
#: clock; 8 is the one that needs fewer kernel calls.  The cap is for
#: a sequential scan (a first version), where small steps are all overhead
#: (~20 us a kernel call): under an 8 KiB first step, a cap of 8 KiB reads
#: 0.375 (0.169) 62 / 152, 64 KiB 0.401 (0.204) 69 / 147, 1 MiB as above —
#: from the eighth extension on one call covers eight ``scan.TILE``s.
READ_AHEAD_MIN = 8 << 10
READ_AHEAD_MAX = 1 << 20


class BoundaryCursor:
    """``BoundarySet``'s query contract over a buffer scanned on demand.

    The cursor holds the hash-condition positions of one contiguous
    *covered* range of window ends and extends it forward as ``next_cut``
    asks: first to ``start + avg`` (a strict hit decides), then in
    read-ahead steps toward ``start + max``.  A query that does not
    continue the covered range — the first CDC step after a skip run, or a
    restart at an earlier offset — drops it and starts a new one there.
    Every extension is one ``chunker.boundaries(view[origin:to])`` call,
    so the scan stays the chunker's own kernel; ``bytes_scanned`` adds up
    what those calls were handed (``window - 1`` bytes of overlap included).
    """

    def __init__(self, chunker: Chunker, data: bytes | memoryview) -> None:
        self.length = len(data)
        self.params = chunker.params
        self.bytes_scanned = 0
        self._chunker = chunker
        self._view = memoryview(data)
        #: Every window end in ``(_base, _covered]`` has been scanned and
        #: its hits are in the two lists.  The range starts out empty at
        #: the far end, so the first query is a jump — except for a
        #: chunker that reads no content (fixed-size), which has nothing
        #: to scan: everything covered, no hits.
        self._covered = self.length
        self._base = 0 if chunker.window is None else self.length
        self._positions: list[int] = []
        self._strict: list[int] = []
        self._read_ahead = READ_AHEAD_MIN

    def next_cut(self, start: int) -> int:
        """The CDC cut position for a chunk starting at ``start``."""
        length = self.length
        if start < 0 or start >= length:
            raise ChunkingError(f"cut start {start} outside buffer of {length}")
        min_pos = start + self.params.min_size
        if min_pos >= length:
            return length
        avg_end = min(start + self.params.avg_size, length)
        max_end = min(start + self.params.max_size, length)
        self._cover(min_pos, avg_end)
        # (The lists are read after ``_cover``: a jump replaces them.)
        candidate = first_in(self._strict, min_pos, avg_end)
        lo = avg_end
        while candidate is None and lo < max_end:
            if self._covered == lo:
                self._cover(lo, min(lo + self._read_ahead, max_end))
            hi = min(self._covered, max_end)
            candidate = first_in(self._positions, lo, hi)
            lo = hi
        return max_end if candidate is None else candidate

    def is_cut(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is an admissible chunk ending on a cut.

        The skip-chunking probe: one window hash, no scan, and the covered
        range is left where it is.
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
        if end > self.length:
            return False  # no window ends there
        return self._chunker.is_candidate(self._view, end, size <= self.params.avg_size)

    def _cover(self, lo: int, need: int) -> None:
        """Make the covered range include every window end in ``(lo, need]``."""
        if lo < self._base or lo - self._covered > self.params.min_size:
            # A jump.  (A sequential walk asks from at most ``min_size``
            # past the covered edge — the cut was inside it — and goes on
            # extending the same range, so its read-ahead keeps growing
            # and a restart at 0 finds the header still covered.)
            self._base = self._covered = lo
            self._positions = []
            self._strict = []
            self._read_ahead = READ_AHEAD_MIN
        if need <= self._covered:
            return
        # ``lo >= min_size > window``, so the origin is never negative; the
        # first window of the slice ends one past the covered range.
        origin = self._covered + 1 - self._chunker.window
        to = min(self.length, max(need, self._covered + self._read_ahead))
        permissive, strict = self._chunker.boundaries(self._view[origin:to]).offsets()
        self.bytes_scanned += to - origin
        self._positions += [origin + p for p in permissive]
        self._strict += [origin + p for p in strict]
        self._covered = to
        self._read_ahead = min(2 * self._read_ahead, READ_AHEAD_MAX)
