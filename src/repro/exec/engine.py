"""ParallelExecutor: chunk + fingerprint a backup stream with real workers.

The executor owns one thread pool that scans shares of a large buffer
with the chunker's own kernel
(:meth:`repro.chunking.base.Chunker.candidates`) and fingerprints chunk
batches — numpy and hashlib both release the GIL, so threads scale and
share the buffer zero-copy.  That is all ``workers=N`` does: every OSS
request is issued by the caller's thread, in the serial order.

Everything here is deterministic: shares partition the window-index range,
offsets map back by adding the share origin, and the concatenation of
ascending share outputs is exactly ``chunker.boundaries(data)``.
Fingerprints are pure functions of chunk payloads.  Parallel runs are
therefore byte-identical to serial — the property the differential parity
suite enforces.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.chunking.base import BoundarySet, Chunker
from repro.fingerprint.hashing import make_fingerprinter

#: Fewest window positions worth a pool task: a buffer fans out into
#: shares of ``max(_MIN_SHARE, ceil(windows / workers))`` positions.
_MIN_SHARE = 4 << 20
#: Target payload bytes per fingerprint batch task.
_FP_BATCH_BYTES = 1 << 20
#: Maximum chunk count per fingerprint batch task.
_FP_BATCH_CHUNKS = 256


def _scan_task(chunker: Chunker, buf: memoryview, origin: int) -> list[np.ndarray]:
    return [offsets + origin for offsets in chunker.candidates(buf)]


def _fp_task(
    algo: str, buf: memoryview, ranges: list[tuple[int, int]], base: int
) -> list[bytes]:
    fingerprinter = make_fingerprinter(algo)
    return [fingerprinter(buf[start - base : end - base]) for start, end in ranges]


class ParallelExecutor:
    """Fans CDC scanning and fingerprinting across ``workers`` threads.

    Built only for ``workers >= 1`` (``SlimStore`` keeps ``workers=0`` on
    the direct ``chunker.boundaries`` call).  The pool starts lazily and
    restarts after :meth:`close`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.workers = workers
        self._compute: ThreadPoolExecutor | None = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._compute is None:
            self._compute = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._compute

    # ------------------------------------------------------------------
    # boundary scan

    def scan_boundaries(self, chunker: Chunker, data: bytes) -> BoundarySet:
        """``chunker.boundaries(data)``, large buffers scanned in parallel shares."""
        window = chunker.window
        if window is None:
            return chunker.boundaries(data)
        window_count = len(data) - window + 1
        share = max(_MIN_SHARE, -(-window_count // self.workers))
        if window_count <= share:
            return chunker.boundaries(data)
        view = memoryview(data)
        futures = [
            self._pool().submit(
                _scan_task,
                chunker,
                view[origin : min(origin + share, window_count) + window - 1],
                origin,
            )
            for origin in range(0, window_count, share)
        ]
        columns = zip(*(future.result() for future in futures))
        return BoundarySet(
            len(data), chunker.params, *(np.concatenate(column) for column in columns)
        )

    # ------------------------------------------------------------------
    # chunk + fingerprint

    def chunk_and_fingerprint(
        self, chunker: Chunker, data: bytes, algo: str = "sha1"
    ) -> tuple[BoundarySet, dict[tuple[int, int], bytes]]:
        """Boundary scan plus a fingerprint memo for the plain CDC walk.

        The memo maps ``(start, end)`` chunk spans — the spans the serial
        ``next_cut`` walk visits — to their digests, computed on the pool.
        Classification consults the memo and falls back to inline hashing
        for spans it invents itself (skip-chunking, superchunks), so the
        result is byte-identical either way.
        """
        boundary_set = self.scan_boundaries(chunker, data)
        ranges: list[tuple[int, int]] = []
        start = 0
        length = len(data)
        while start < length:
            end = boundary_set.next_cut(start)
            ranges.append((start, end))
            start = end
        futures = []
        batches: list[list[tuple[int, int]]] = []
        batch: list[tuple[int, int]] = []
        batch_bytes = 0
        for span in ranges:
            batch.append(span)
            batch_bytes += span[1] - span[0]
            if batch_bytes >= _FP_BATCH_BYTES or len(batch) >= _FP_BATCH_CHUNKS:
                batches.append(batch)
                batch, batch_bytes = [], 0
        if batch:
            batches.append(batch)
        view = memoryview(data)
        for spans in batches:
            base, stop = spans[0][0], spans[-1][1]
            futures.append(
                self._pool().submit(_fp_task, algo, view[base:stop], spans, base)
            )
        memo: dict[tuple[int, int], bytes] = {}
        for spans, future in zip(batches, futures):
            for span, digest in zip(spans, future.result()):
                memo[span] = digest
        return boundary_set, memo

    def close(self) -> None:
        if self._compute is not None:
            self._compute.shutdown(wait=True)
            self._compute = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
