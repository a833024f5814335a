"""Microbenchmark: the CDC scan kernel's throughput by buffer size.

Every CDC chunker finds its cut candidates through one kernel,
``repro.chunking.scan`` (log-doubled window hashes, one tile of window
positions at a time).  This bench times ``Chunker.candidates`` for gear,
FastCDC and rabin on 8 KiB, 64 KiB, 1 MiB and 8 MiB random buffers and
reports the best of several rounds in MiB/s.  The small sizes are what
the boundary cursor hands the kernel after a skip run (its read-ahead
starts at 8 KiB), the large ones a first version's 1 MiB extensions and
the executor's 4 MiB shares.

Before timing anything it asserts that every result is bit-identical to
the W-pass reference loop of the kernel oracle
(``tests/chunking/test_scan_kernel.py``).  The timings are host
wall-clock, so the rendered table is a record, not a gate: nothing here
asserts a speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.chunking import make_chunker
from repro.chunking.base import ChunkerParams
from tests.chunking.test_scan_kernel import payload, reference_candidates

CHUNKERS = ("gear", "fastcdc", "rabin")
SIZES = (8 << 10, 64 << 10, 1 << 20, 8 << 20)
#: Bytes scanned per timed round: small buffers repeat until they reach it.
ROUND_BYTES = 8 << 20
ROUNDS = 5
PARAMS = ChunkerParams()


def _best_mib_s(chunker, data: bytes) -> float:
    repeats = max(1, ROUND_BYTES // len(data))
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(repeats):
            chunker.candidates(data)
        best = min(best, (time.perf_counter() - start) / repeats)
    return len(data) / best / 2**20


def _label(size: int) -> str:
    return f"{size >> 20} MiB" if size >= 1 << 20 else f"{size >> 10} KiB"


def test_microbench_scan_kernel(record):
    buffers = {size: payload(size, size) for size in SIZES}
    rows = []
    for name in CHUNKERS:
        chunker = make_chunker(name, PARAMS)
        for data in buffers.values():
            got = chunker.candidates(data)
            want = reference_candidates(name, PARAMS, data)
            assert len(got) == len(want)
            for have, expected in zip(got, want):
                assert have.dtype == np.int64
                assert np.array_equal(have, expected)
        rows.append((name, [_best_mib_s(chunker, data) for data in buffers.values()]))

    title = "Microbenchmark: CDC scan kernel, Chunker.candidates, MiB/s"
    header = f"{'chunker':<8}" + "".join(f"{_label(size):>10}" for size in SIZES)
    lines = [
        title,
        "=" * len(title),
        f"best of {ROUNDS} rounds of >= {ROUND_BYTES >> 20} MiB each, one thread; "
        f"avg_size {PARAMS.avg_size} B",
        header,
        *(f"{name:<8}" + "".join(f"{rate:>10.1f}" for rate in rates) for name, rates in rows),
        "every result bit-identical to the W-pass reference loop",
    ]
    record("microbench_scan_kernel", "\n".join(lines))
