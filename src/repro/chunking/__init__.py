"""Content-defined chunking.

Implements the chunking landscape the paper builds on: fixed-size chunking,
Rabin-style rolling-hash CDC, Gear hashing, and FastCDC with normalized
chunking, plus the two history-aware accelerations SLIMSTORE contributes
(skip chunking and SuperChunking — the latter lives with the dedup engine
that owns recipe history, its policy types are defined here).

Implementation note: each chunker precomputes every hash-condition position
in a buffer (``BoundarySet``) with the one rolling-hash scan kernel in
:mod:`repro.chunking.scan` — a numpy log-doubling windowed hash over
cache-sized tiles, to which a chunker contributes only its window, byte
table, combine step and cut masks — and chunk cutting walks those
candidates under min/avg/max rules.  The *virtual-time cost* of chunking is
charged per byte scanned via the cost model, so the simulation still
reflects byte-by-byte scanning even though the Python implementation is
vectorised.
"""

from repro.chunking.base import (
    BoundarySet,
    Chunker,
    ChunkerParams,
    RawChunk,
    make_chunker,
)
from repro.chunking.cursor import BoundaryCursor
from repro.chunking.fixed import FixedChunker
from repro.chunking.rabin import RabinChunker
from repro.chunking.gear import GearChunker
from repro.chunking.fastcdc import FastCDCChunker
from repro.chunking.superchunk import MergePolicy

__all__ = [
    "BoundaryCursor",
    "BoundarySet",
    "Chunker",
    "ChunkerParams",
    "RawChunk",
    "make_chunker",
    "FixedChunker",
    "RabinChunker",
    "GearChunker",
    "FastCDCChunker",
    "MergePolicy",
]
