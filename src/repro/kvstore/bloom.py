"""The Bloom filter fronting SSTable lookups (and G-node's global-dedup
prefilter, Section VI-A of the paper).

The filter derives an item's k slots from one 128-bit blake2b digest by
double hashing (Kirsch-Mitzenmacher): the digest splits into two 64-bit
words ``first, step`` and slot *i* is ``(first + i * step) mod m`` - one
digest per filter touch whatever k is, deterministic, and no randomness at
construction time.  :meth:`BloomFilter.update` computes the same slots for
a whole batch in numpy (attach refills each index shard's filter that way);
the G-node's per-key probes and inserts stay scalar, since a batch of a few
fingerprints costs numpy more than it saves.

The filter is persisted (the SSTable footer blob).  Its payload leads with
a scheme byte naming the position function, because a filter probed with
a different function than it was built with answers "absent" for keys it
holds; a payload with any other scheme byte is refused.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Iterable

import numpy as np

_TWO_WORDS = struct.Struct(">QQ")

#: First payload byte of a filter whose slots come from :func:`_positions`.
_SCHEME_DOUBLE_HASHING = 1
_HEADER = struct.Struct(">BQHQ")


def _positions(item: bytes, k: int, m: int) -> list[int]:
    """The ``k`` slots of ``item`` in a filter of ``m`` slots."""
    first, step = _TWO_WORDS.unpack(hashlib.blake2b(item, digest_size=16).digest())
    first %= m
    # A step of 0 mod m would put all k probes on one slot.
    step = step % m or 1
    return [position % m for position in range(first, first + k * step, step)]


def _positions_many(items: Iterable[bytes], k: int, m: int) -> np.ndarray:
    """:func:`_positions` of a batch as a ``(k, len(items))`` uint64 array.

    One digest per item; the arithmetic runs in numpy.  Slot *i + 1* is
    slot *i* plus ``step``, reduced mod m: both terms are below m, so no
    sum reaches 2**64 for any m below 2**63.
    """
    digests = b"".join([hashlib.blake2b(item, digest_size=16).digest() for item in items])
    words = np.frombuffer(digests, dtype=">u8").astype(np.uint64).reshape(-1, 2)
    m = np.uint64(m)
    slots = np.empty((k, len(words)), dtype=np.uint64)
    slots[0] = words[:, 0] % m
    step = words[:, 1] % m
    step[step == 0] = 1
    for i in range(1, k):
        np.add(slots[i - 1], step, out=slots[i])
        slots[i] %= m
    return slots


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """(bit count, hash count) minimising memory at the target FP rate."""
    if expected_items <= 0:
        raise ValueError(f"expected_items must be positive, got {expected_items}")
    if not 0 < false_positive_rate < 1:
        raise ValueError(f"false_positive_rate must be in (0, 1): {false_positive_rate}")
    bits = math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
    hashes = max(1, round(bits / expected_items * math.log(2)))
    return max(8, bits), hashes


class BloomFilter:
    """A standard Bloom filter over byte-string items."""

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        self._bits, self._hashes = optimal_parameters(expected_items, false_positive_rate)
        self._array = bytearray((self._bits + 7) // 8)
        self._count = 0

    def add(self, item: bytes) -> None:
        """Insert ``item``."""
        for position in _positions(item, self._hashes, self._bits):
            self._array[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def __contains__(self, item: bytes) -> bool:
        for position in _positions(item, self._hashes, self._bits):
            if not self._array[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def update(self, items: Iterable[bytes]) -> None:
        """Insert every item of an iterable: the bits :meth:`add` would set,
        set for the whole batch by one numpy scatter."""
        slots = _positions_many(items, self._hashes, self._bits)
        bits = np.left_shift(1, (slots & 7).astype(np.uint8), dtype=np.uint8)
        np.bitwise_or.at(np.frombuffer(self._array, dtype=np.uint8), slots >> 3, bits)
        self._count += slots.shape[1]

    def __len__(self) -> int:
        return self._count

    @property
    def bit_count(self) -> int:
        """Number of bits backing this filter."""
        return self._bits

    # --- serialisation (SSTables persist their filter to OSS) ------------
    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            _SCHEME_DOUBLE_HASHING, self._bits, self._hashes, self._count
        )
        return header + bytes(self._array)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        """Reopen a persisted filter (its scheme byte must name
        :func:`_positions`: a filter probed otherwise drops stored keys)."""
        if len(payload) < _HEADER.size:
            raise ValueError("corrupt bloom filter payload")
        scheme, bits, hashes, count = _HEADER.unpack_from(payload)
        if scheme != _SCHEME_DOUBLE_HASHING:
            raise ValueError(f"unknown bloom filter scheme {scheme}")
        filt = cls.__new__(cls)
        filt._bits, filt._hashes, filt._count = bits, hashes, count
        body = payload[_HEADER.size :]
        if len(body) != (bits + 7) // 8:
            raise ValueError("corrupt bloom filter payload")
        filt._array = bytearray(body)
        return filt
