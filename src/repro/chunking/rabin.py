"""Rabin-style rolling-hash CDC.

The classic chunker of LBFS lineage: a polynomial rolling hash over a
48-byte sliding window, cutting where the hash satisfies a modulus
condition.  We use the Rabin–Karp polynomial form ``h = Σ b[i]·P^k mod
2^64`` (an odd multiplier over a power-of-two ring), which preserves the
properties that matter here — content-defined boundaries, window locality,
uniform cut density — while admitting a fully vectorised evaluation.

Its virtual-time cost ("rabin" in the cost model) reflects the real
algorithm's expensive per-byte work, which is what Fig 2 of the paper is
about.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.base import BoundarySet, Chunker, ChunkerParams
from repro.chunking.scan import cut_positions

#: Sliding-window width in bytes.
WINDOW = 48
#: Odd multiplier of the rolling polynomial.
PRIME = 0x3B9ACA07
_HASH_MASK = (1 << 64) - 1
#: Per-byte values in the hash ring: uint64 wraparound is the mod 2^64.
_BYTE_VALUES = np.arange(256, dtype=np.uint64)


def rabin_combine(
    left: np.ndarray, right: np.ndarray, span: int, out: np.ndarray
) -> np.ndarray:
    """Hash of a run followed by a ``span``-byte run: ``l * P^span + r``.

    Written into ``out``, which may be ``left`` itself.
    """
    np.multiply(left, np.uint64(pow(PRIME, span, 1 << 64)), out=out)
    return np.add(out, right, out=out)


class RabinChunker(Chunker):
    """Rabin rolling-hash content-defined chunking."""

    name = "rabin"
    window = WINDOW

    def __init__(self, params: ChunkerParams | None = None) -> None:
        super().__init__(params)
        # Cut when the low log2(avg) bits are all ones: density 1/avg.
        self._mask = np.uint64(self.params.avg_size - 1)

    def candidates(self, buf: bytes | memoryview) -> list[np.ndarray]:
        return cut_positions(
            buf, WINDOW, _BYTE_VALUES, rabin_combine, [(self._mask, self._mask)]
        )

    def is_candidate(self, buf: bytes | memoryview, end: int, strict: bool) -> bool:
        # The 48-byte polynomial, Horner form, reduced mod 2^64 each step.
        h = 0
        for byte in buf[end - WINDOW : end]:
            h = (h * PRIME + byte) & _HASH_MASK
        mask = int(self._mask)
        return h & mask == mask

    def boundaries(self, data: bytes) -> BoundarySet:
        # Repository format: a buffer of at most one window has never
        # yielded a position, although WINDOW bytes do hold one window.
        if len(data) <= WINDOW:
            return BoundarySet(len(data), self.params, np.empty(0, dtype=np.int64))
        return BoundarySet(len(data), self.params, *self.candidates(data))
