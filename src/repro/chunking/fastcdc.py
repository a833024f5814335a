"""FastCDC: gear hashing with normalized chunking.

FastCDC (Xia et al., ATC'16) accelerates CDC two ways: the cheap gear hash,
and *normalized chunking* — a strict mask (more condition bits) before the
average size and a permissive mask (fewer bits) after it, which squeezes
the chunk-size distribution toward the average and lets the scan skip the
min-size region entirely.  The strict/permissive pair maps directly onto
:class:`~repro.chunking.base.BoundarySet`'s two candidate sets.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.base import BoundarySet, Chunker, ChunkerParams
from repro.chunking.gear import (
    GEAR_TABLE,
    WINDOW,
    gear_combine,
    gear_window_hash,
    top_bits_mask,
)
from repro.chunking.scan import cut_positions

#: Normalization level: strict mask has +NC bits, permissive has -NC bits.
NORMALIZATION = 2


class FastCDCChunker(Chunker):
    """FastCDC with two-level normalized chunking."""

    name = "fastcdc"
    window = WINDOW

    def __init__(self, params: ChunkerParams | None = None) -> None:
        super().__init__(params)
        avg_bits = self.params.avg_size.bit_length() - 1
        strict_bits = min(avg_bits + NORMALIZATION, 31)
        permissive_bits = max(avg_bits - NORMALIZATION, 1)
        self._strict_mask = top_bits_mask(strict_bits)
        self._permissive_mask = top_bits_mask(permissive_bits)

    def candidates(self, buf: bytes | memoryview) -> list[np.ndarray]:
        return cut_positions(
            buf,
            WINDOW,
            GEAR_TABLE,
            gear_combine,
            [(self._permissive_mask, 0), (self._strict_mask, 0)],
        )

    def is_candidate(self, buf: bytes | memoryview, end: int, strict: bool) -> bool:
        mask = self._strict_mask if strict else self._permissive_mask
        return gear_window_hash(buf[end - WINDOW : end]) & int(mask) == 0

    def boundaries(self, data: bytes) -> BoundarySet:
        return BoundarySet(len(data), self.params, *self.candidates(data))
