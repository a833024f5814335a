"""Hash-level equalities under the scan kernel, at the sizes PR 8 pinned.

``tests/chunking/test_scan_kernel.py`` is the kernel's oracle and owns the
reference loops; this file (named for the ``repro.exec.vectorscan`` module
whose kernel moved into ``repro.chunking.scan``) keeps the original cases:
the un-tiled log-doubling hashes equal the W-pass loops bit for bit, each
chunker's ``candidates``/``boundaries`` follow from them — including the
rabin short-buffer quirk — and shares of a buffer scan like the whole.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import gear, rabin
from repro.chunking.base import ChunkerParams, make_chunker
from repro.chunking.scan import windowed_hashes
from tests.chunking.test_scan_kernel import (
    assert_matches_reference,
    payload,
    reference_gear_hashes,
    reference_rabin_hashes,
)

PARAMS = ChunkerParams(min_size=128, avg_size=2048, max_size=16384)


def gear_hashes(data: bytes) -> np.ndarray:
    values = gear.GEAR_TABLE[np.frombuffer(data, dtype=np.uint8)]
    return windowed_hashes(values, gear.WINDOW, gear.gear_combine)


def rabin_hashes(data: bytes) -> np.ndarray:
    values = rabin._BYTE_VALUES[np.frombuffer(data, dtype=np.uint8)]
    return windowed_hashes(values, rabin.WINDOW, rabin.rabin_combine)


@pytest.mark.parametrize("size", [32, 33, 100, 4096, 1 << 17])
@pytest.mark.parametrize("seed", [0, 7])
def test_gear_hashes_match_serial(seed, size):
    hashes = gear_hashes(payload(seed, size))
    assert hashes.dtype == np.uint32
    assert np.array_equal(reference_gear_hashes(payload(seed, size)), hashes)


def test_gear_hashes_short_buffer_is_empty():
    assert gear_hashes(b"x" * (gear.WINDOW - 1)).size == 0


@pytest.mark.parametrize("size", [48, 49, 100, 4096, 1 << 16])
@pytest.mark.parametrize("seed", [1, 11])
def test_rabin_hashes_match_serial(seed, size):
    hashes = rabin_hashes(payload(seed, size))
    assert hashes.dtype == np.uint64
    assert np.array_equal(reference_rabin_hashes(payload(seed, size)), hashes)


@pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin"])
@pytest.mark.parametrize("size", [0, 31, 47, 48, 49, 1000, 1 << 16])
def test_scan_positions_match_boundaries(name, size):
    assert_matches_reference(name, payload(3, size))


def test_scan_positions_none_for_fixed():
    chunker = make_chunker("fixed", PARAMS)
    assert chunker.window is None
    with pytest.raises(NotImplementedError):
        chunker.candidates(b"x" * 1000)
    assert chunker.boundaries(b"x" * 1000)._positions.size == 0


def test_rabin_quirk_exact_window_yields_no_positions():
    """``boundaries`` returns nothing for length <= WINDOW even though a
    48-byte buffer holds exactly one window; the kernel must not 'fix' it."""
    chunker = make_chunker("rabin", PARAMS)
    for size in (rabin.WINDOW - 1, rabin.WINDOW):
        assert len(chunker.boundaries(payload(5, size))._positions) == 0
    assert rabin_hashes(payload(5, rabin.WINDOW)).size == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    size=st.integers(0, 3000),
    name=st.sampled_from(["gear", "fastcdc", "rabin"]),
    split=st.integers(0, 3000),
)
def test_scan_positions_property(seed, size, name, split):
    """Two shares cut at any window index, each scanned on its own and
    shifted by its origin, concatenate to the scan of the whole — what
    ``ParallelExecutor.scan_boundaries`` does with them."""
    chunker = make_chunker(name, PARAMS)
    data = payload(seed, size)
    split = min(split, max(size - chunker.window + 1, 0))
    head = chunker.candidates(data[: split + chunker.window - 1])
    tail = chunker.candidates(data[split:])
    for whole, left, right in zip(chunker.candidates(data), head, tail):
        assert np.array_equal(whole, np.concatenate([left, right + split]))


def test_low_entropy_buffers():
    """Constant and repeating buffers stress hash wraparound paths."""
    for data in (b"\x00" * 5000, b"\xff" * 5000, bytes(range(256)) * 20):
        assert np.array_equal(reference_gear_hashes(data), gear_hashes(data))
        assert np.array_equal(reference_rabin_hashes(data), rabin_hashes(data))
