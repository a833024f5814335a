"""The rolling-hash scan kernel every CDC chunker runs.

A chunker's cut condition is a test on the hash of the ``window`` bytes
ending at each stream offset.  Evaluating that window byte by byte costs
``window`` whole-buffer numpy passes; this kernel builds the same hashes
by *log doubling* instead:

  - hashes of power-of-two spans come from combining a span with the
    adjacent span of equal width (``H_2k[j] = combine(H_k[j], H_k[j+k],
    k)``), doubling ``k`` each pass;
  - the binary decomposition of the window (48 = 32 + 16) is folded the
    same way, widest span first.

That is ``O(log window)`` passes, and each chunker supplies only what
makes its hash its own: the window width, the per-byte value table (whose
dtype is the hash ring — uint32 wraparound *is* gear's mod 2^32, uint64
wraparound *is* rabin's mod 2^64), the combine step and the cut masks.
``tests/chunking/test_scan_kernel.py`` holds the byte-at-a-time
recurrences this must equal bit for bit.

The buffer is hashed :data:`TILE` window positions at a time (each tile
carries ``window - 1`` bytes of overlap into the next), so the
temporaries stay cache-sized however long the buffer is.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Window positions hashed per pass.  Chosen once by measurement, not a
#: knob (2-core reference host, best-of-N fastcdc / rabin MiB/s on 2-8 MiB
#: buffers).  One thread likes small tiles, whose uint32/uint64 temporaries
#: sit in L2: 170/100 at 32 Ki, 150/98 at 64 Ki, 150/80 at 128 Ki, 130/68
#: at 256 Ki, 115/55 at 512 Ki, 60-70/30 at 4 Mi.  Two executor threads
#: like large ones, because every pass boundary is a GIL hand-off: 120/65
#: at 32 Ki (slower than one thread), 135/105 at 64 Ki, 185/135 at 128 Ki,
#: 210/145 at 256 Ki, 195/105 at 512 Ki.  128 Ki is within ~12% of the
#: best on both.
TILE = 1 << 17

Combine = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def windowed_hashes(values: np.ndarray, window: int, combine: Combine) -> np.ndarray:
    """Hashes of every ``window``-wide span of ``values`` via log doubling.

    ``combine(left, right, span)`` must merge a hash with the hash of the
    ``span``-wide run immediately to its right.  Entry ``j`` of the result
    covers ``values[j : j + window]``; fewer than ``window`` values give an
    empty result.
    """
    n = len(values)
    if n < window:
        return values[:0]
    spans = {1: values}
    k = 1
    acc = values
    while k * 2 <= window:
        m = n - 2 * k + 1
        acc = combine(acc[:m], acc[k : k + m], k)
        k *= 2
        spans[k] = acc
    widths = sorted((b for b in spans if window & b), reverse=True)
    result = spans[widths[0]]
    covered = widths[0]
    for b in widths[1:]:
        m = n - covered - b + 1
        result = combine(result[:m], spans[b][covered : covered + m], b)
        covered += b
    return result


def cut_positions(
    data: bytes | memoryview,
    window: int,
    table: np.ndarray,
    combine: Combine,
    conditions: Sequence[tuple[np.generic, np.generic]],
) -> list[np.ndarray]:
    """Stream offsets whose trailing window hash meets each cut condition.

    A condition is a ``(mask, want)`` pair: offset ``p`` (a window *end*,
    so ``p >= window``) is a hit when ``hash(data[p-window:p]) & mask ==
    want``.  Returns one ascending int64 array per condition.  No
    whole-buffer rule lives here: every full window of ``data`` is
    evaluated, so a caller may scan any slice of a larger buffer and add
    the slice origin.
    """
    stream = np.frombuffer(data, dtype=np.uint8)
    window_count = len(stream) - window + 1
    parts: list[list[np.ndarray]] = [[] for _ in conditions]
    for origin in range(0, window_count, TILE):
        stop = min(origin + TILE, window_count)
        hashes = windowed_hashes(table[stream[origin : stop + window - 1]], window, combine)
        for hits, (mask, want) in zip(parts, conditions):
            hits.append(np.flatnonzero((hashes & mask) == want) + (origin + window))
    return [
        np.concatenate(hits) if hits else np.empty(0, dtype=np.int64) for hits in parts
    ]
