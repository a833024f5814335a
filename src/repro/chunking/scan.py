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
carries ``window - 1`` bytes of overlap into the next), and nothing is
allocated per tile: a call allocates its buffers once, sized to one
tile, and every tile reuses them, so they stay cache-sized however long
the buffer is.  Per tile:

  - the gather copies the tile's bytes into an ``intp`` index buffer,
    then looks them up in the table with ``np.take`` into a value
    buffer.  ``mode="wrap"`` never wraps — every index is a byte, every
    table has 256 entries — but it skips the bounds check of the default
    mode;
  - the doubling writes each level into a buffer whose level is no
    longer needed (``combine`` takes an ``out``).  Once the values are
    gathered the index buffer is dead until the next tile, so its bytes
    hold the doubling levels;
  - the first cut condition is tested at every window, each later one
    only at the first one's hits (the refinement contract of
    :func:`cut_positions`).

The buffers belong to the call, never to the module: executor threads
run the kernel concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Window positions hashed per pass.  Chosen once by measurement, not a
#: knob (2-core reference host, best of four sweeps, fastcdc / rabin
#: MiB/s).  One thread on 1 MiB buffers, the cursor's largest extension,
#: likes small tiles, whose buffers sit in L2: 258/166 at 32 Ki, 290/154
#: at 64 Ki, 286/145 at 96 Ki, 274/112 at 128 Ki, 236/83 at 192 Ki,
#: 212/78 at 256 Ki.  Two executor threads on 8 MiB buffers like larger
#: ones, because every pass boundary is a GIL hand-off: 170/139 at 32 Ki
#: (slower than one thread), 292/216 at 64 Ki, 396/218 at 96 Ki, 351/194
#: at 128 Ki, 388/144 at 192 Ki, 342/134 at 256 Ki.  128 Ki is within ~6%
#: of the best fastcdc rate on one thread and ~12% on two; end to end,
#: 64 Ki left ``sdb_serial``'s scan rate inside its spread and cut
#: ``vmfleet_par``'s first-version backup from 104 to 90-95 MiB/s.
TILE = 1 << 17

#: ``combine(left, right, span, out)``: see :func:`windowed_hashes`.
Combine = Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray]


def windowed_hashes(
    values: np.ndarray,
    window: int,
    combine: Combine,
    scratch: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Hashes of every ``window``-wide span of ``values`` via log doubling.

    ``combine(left, right, span, out)`` must write into ``out`` (and
    return it) the merge of each hash in ``left`` with the hash of the
    ``span``-wide run immediately to its right, held in ``right``.
    ``out`` is never ``right``'s memory, but may be exactly ``left``'s, so
    ``combine`` may read each ``left`` entry only before writing its own
    ``out`` entry — which an elementwise ``np.*(..., out=out)`` does.

    Each level is written into one of ``scratch``'s buffers (at least
    ``len(values)`` long, of ``values``' dtype), over a level no longer
    needed; a level stays put only while the window's binary
    decomposition still needs it (rabin's 48 = 32 + 16 keeps the 16).
    Gear's 32 and rabin's 48 need two buffers; more are allocated if
    ``scratch`` runs out.  ``values`` is only read.

    Entry ``j`` of the result covers ``values[j : j + window]``; fewer
    than ``window`` values give an empty result.  The result is a view
    into ``scratch`` (or ``values`` itself for ``window == 1``).
    """
    n = len(values)
    if n < window:
        return values[:0]
    free = list(scratch)
    kept: dict[int, np.ndarray] = {}
    level, owner = values, None
    k = 1
    while 2 * k <= window:
        if window & k:
            kept[k] = level
        m = n - 2 * k + 1
        buffer = free.pop() if free else np.empty(n, dtype=values.dtype)
        combined = combine(level[:m], level[k : k + m], k, buffer[:m])
        if owner is not None and k not in kept:
            free.append(owner)
        level, owner = combined, buffer
        k *= 2
    covered = k
    for b in sorted(kept, reverse=True):
        m = n - covered - b + 1
        level = combine(level[:m], kept[b][covered : covered + m], b, level[:m])
        covered += b
    return level


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

    Refinement contract: only the first condition is evaluated at every
    window; each later condition is evaluated only at the first one's
    hits, so its array is its hits *within* the first's.  That is each
    later condition's full answer exactly when it implies the first, as
    every caller's does: :class:`~repro.chunking.base.BoundarySet` defines
    its strict positions as a subset of the permissive ones, and FastCDC's
    strict mask is its permissive mask plus more top bits, both wanting 0.
    """
    stream = np.frombuffer(data, dtype=np.uint8)
    window_count = len(stream) - window + 1
    if window_count <= 0:
        return [np.empty(0, dtype=np.int64) for _ in conditions]
    span = min(window_count, TILE) + window - 1
    index = np.empty(span, dtype=np.intp)
    values = np.empty(span, dtype=table.dtype)
    # The index is dead once a tile's values are gathered: its bytes hold
    # the doubling levels (two uint32 buffers, or one uint64 buffer).
    reuse = index.view(table.dtype)
    scratch = [reuse[i * span : (i + 1) * span] for i in range(len(reuse) // span)]
    scratch += [np.empty(span, dtype=table.dtype) for _ in range(2 - len(scratch))]
    masked = np.empty(span - window + 1, dtype=table.dtype)
    matched = np.empty(span - window + 1, dtype=bool)
    (mask, want), *later = conditions
    parts: list[list[np.ndarray]] = [[] for _ in conditions]
    for origin in range(0, window_count, TILE):
        length = min(TILE, window_count - origin) + window - 1
        index[:length] = stream[origin : origin + length]
        np.take(table, index[:length], out=values[:length], mode="wrap")
        hashes = windowed_hashes(values[:length], window, combine, scratch)
        count = len(hashes)
        np.bitwise_and(hashes, mask, out=masked[:count])
        hits = np.flatnonzero(np.equal(masked[:count], want, out=matched[:count]))
        parts[0].append(hits + (origin + window))
        for more, (later_mask, later_want) in zip(parts[1:], later):
            refined = hits[(hashes[hits] & later_mask) == later_want]
            more.append(refined + (origin + window))
    return [
        np.concatenate(hits) if hits else np.empty(0, dtype=np.int64) for hits in parts
    ]
