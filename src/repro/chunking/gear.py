"""Gear-hash CDC (DDelta).

Gear replaces Rabin's multiply-heavy window roll with one table lookup,
one shift and one add per byte: ``h = (h << 1) + gear[b]``.  Contributions
shift out of a 32-bit hash after 32 bytes, giving an implicit 32-byte
window.  The cut condition tests the *high* bits of the hash, where the
most history is mixed in.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.base import BoundarySet, Chunker, ChunkerParams
from repro.chunking.scan import cut_positions

#: Implicit window: how many trailing bytes influence a 32-bit gear hash.
WINDOW = 32
#: Hash width in bits.
HASH_BITS = 32


def _gear_table(seed: int = 0x5EED) -> np.ndarray:
    """The 256-entry random table shared by Gear and FastCDC."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << HASH_BITS, size=256, dtype=np.uint64).astype(np.uint32)


#: uint32, so the scan kernel's arithmetic wraps mod 2^32 like the hash.
GEAR_TABLE = _gear_table()


#: The table as Python ints, for hashing one window without numpy.
_GEAR_INTS: list[int] = GEAR_TABLE.tolist()
_HASH_MASK = (1 << HASH_BITS) - 1


def gear_window_hash(window: bytes | memoryview) -> int:
    """Gear hash of exactly :data:`WINDOW` bytes, rolled byte by byte.

    The value the scan kernel holds at this window's end: 32 steps of
    ``h = (h << 1) + gear[b]`` shift every older contribution out of the
    low 32 bits, so one final mask is the mod 2^32.
    """
    table = _GEAR_INTS
    h = 0
    for byte in window:
        h = (h << 1) + table[byte]
    return h & _HASH_MASK


def gear_combine(
    left: np.ndarray, right: np.ndarray, span: int, out: np.ndarray
) -> np.ndarray:
    """Hash of a run followed by a ``span``-byte run: ``(l << span) + r``.

    Rolling ``h = (h << 1) + gear[b]`` over the right-hand run shifts the
    left-hand hash ``span`` places, and the shift distributes over the sum.
    Written into ``out``, which may be ``left`` itself.
    """
    np.left_shift(left, np.uint32(span), out=out)
    return np.add(out, right, out=out)


def top_bits_mask(bits: int) -> np.uint32:
    """A mask selecting the ``bits`` most significant hash bits."""
    if not 0 < bits < HASH_BITS:
        raise ValueError(f"mask bits must be in (0, {HASH_BITS}): {bits}")
    return np.uint32(((1 << bits) - 1) << (HASH_BITS - bits))


class GearChunker(Chunker):
    """Plain gear-hash CDC with a single cut condition."""

    name = "gear"
    window = WINDOW

    def __init__(self, params: ChunkerParams | None = None) -> None:
        super().__init__(params)
        avg_bits = self.params.avg_size.bit_length() - 1
        # A hash is a cut when its top log2(avg) bits are all zero.
        self._mask = top_bits_mask(min(avg_bits, HASH_BITS - 1))

    def candidates(self, buf: bytes | memoryview) -> list[np.ndarray]:
        return cut_positions(buf, WINDOW, GEAR_TABLE, gear_combine, [(self._mask, 0)])

    def is_candidate(self, buf: bytes | memoryview, end: int, strict: bool) -> bool:
        return gear_window_hash(buf[end - WINDOW : end]) & int(self._mask) == 0

    def boundaries(self, data: bytes) -> BoundarySet:
        return BoundarySet(len(data), self.params, *self.candidates(data))
