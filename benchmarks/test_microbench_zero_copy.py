"""Microbenchmark: zero-copy memoryview slicing in the ingest hot loop.

The chunkers (and the dedup engine's skip/superchunk paths) used to
materialise a ``bytes`` copy of every chunk payload before hashing it —
one full duplicate of the backup stream per job, made 4 KiB at a time.
They now hand out :class:`memoryview` slices and the single copy happens
where a chunk genuinely needs owning bytes (container packing).

This bench measures both effects on a real chunk stream:

* **allocation** (deterministic, asserted tightly): ``tracemalloc`` peak
  of fingerprinting every chunk via copies vs via views, and
* **wall-clock** (noisy, asserted leniently): the same loop timed.

Unlike the rest of the suite this measures *host* time, not virtual
time, because the copies it removes are a real-Python cost the virtual
cost model never charged for.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.chunking import make_chunker
from repro.chunking.base import ChunkerParams
from repro.fingerprint.hashing import fingerprint
from tests.conftest import random_bytes

STREAM_BYTES = 4 << 20
ROUNDS = 3


def make_stream():
    import numpy as np

    return random_bytes(np.random.default_rng(7), STREAM_BYTES)


def fingerprint_via_copies(chunks) -> int:
    total = 0
    for chunk in chunks:
        total += len(fingerprint(chunk.tobytes()))
    return total


def fingerprint_via_views(chunks) -> int:
    total = 0
    for chunk in chunks:
        total += len(fingerprint(chunk.data))
    return total


def _best_of(rounds: int, fn, chunks) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(chunks)
        best = min(best, time.perf_counter() - start)
    return best


def _peak_bytes(fn, chunks) -> int:
    tracemalloc.start()
    try:
        fn(chunks)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_microbench_zero_copy_fingerprinting(record):
    data = make_stream()
    chunker = make_chunker("fastcdc", ChunkerParams().scaled(4096))
    chunks = chunker.chunk(data)
    assert all(isinstance(chunk.data, memoryview) for chunk in chunks)
    # The views reassemble the stream exactly — zero-copy, not zero-fidelity.
    assert b"".join(chunks[i].data for i in range(len(chunks))) == data

    copy_peak = _peak_bytes(fingerprint_via_copies, chunks)
    view_peak = _peak_bytes(fingerprint_via_views, chunks)
    copy_time = _best_of(ROUNDS, fingerprint_via_copies, chunks)
    view_time = _best_of(ROUNDS, fingerprint_via_views, chunks)

    lines = [
        "Microbenchmark: chunk fingerprinting, bytes copies vs memoryviews",
        "=" * 65,
        f"stream: {STREAM_BYTES >> 20} MiB, {len(chunks)} chunks "
        f"(avg {STREAM_BYTES // len(chunks)} B)",
        f"copy path:  peak alloc {copy_peak:>8} B, "
        f"best of {ROUNDS}: {copy_time * 1e3:7.2f} ms",
        f"view path:  peak alloc {view_peak:>8} B, "
        f"best of {ROUNDS}: {view_time * 1e3:7.2f} ms",
        f"alloc ratio {copy_peak / max(1, view_peak):5.1f}x, "
        f"time ratio {copy_time / view_time:5.2f}x",
    ]
    record("microbench_zero_copy", "\n".join(lines))

    # Deterministic: the copy path's peak holds at least one full chunk
    # duplicate; the view path allocates only digests and loop overhead,
    # so it must stay under the largest chunk's size.
    max_chunk = max(chunk.size for chunk in chunks)
    assert copy_peak >= max_chunk
    assert view_peak < max_chunk
    # Lenient wall-clock check: dropping a per-chunk bytes() copy must
    # not make hashing slower (generous margin for CI noise).
    assert view_time <= copy_time * 1.25
