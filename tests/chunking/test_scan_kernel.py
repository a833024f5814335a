"""Oracle for the one CDC scan kernel (``repro.chunking.scan``).

Three layers of evidence, each checked against the one below it:

1. the byte-at-a-time recurrences from the module docstrings, in Python
   ints (``h = ((h << 1) + GEAR[b]) mod 2^32``; the rabin polynomial);
2. the W-pass numpy loops the chunkers used to run (one whole-buffer pass
   per window byte) — kept here, and only here, as the reference;
3. the tiled log-doubling kernel behind every ``boundaries`` call.

The cut masks are recomputed here from the chunk parameters, so a chunker
handing the kernel a wrong mask fails too.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import gear, rabin, scan
from repro.chunking.base import ChunkerParams, make_chunker
from tests.conftest import random_bytes

PARAMS = ChunkerParams(min_size=128, avg_size=2048, max_size=16384)
CDC_NAMES = ["gear", "fastcdc", "rabin"]
WINDOWS = {"gear": gear.WINDOW, "fastcdc": gear.WINDOW, "rabin": rabin.WINDOW}
MOD32 = 1 << 32
MOD64 = 1 << 64


def payload(seed: int, size: int) -> bytes:
    return random_bytes(np.random.default_rng(seed), size)


# --- layer 2: the W-pass reference loops --------------------------------------


def reference_gear_hashes(data: bytes) -> np.ndarray:
    """Gear hash of the window ending at each offset, one pass per window byte.

    Entry ``j`` is the hash for stream offset ``p = j + WINDOW``, i.e. the
    window ``data[p-WINDOW:p]``, accumulated in uint64 and masked to 32 bits.
    """
    length = len(data)
    if length < gear.WINDOW:
        return np.empty(0, dtype=np.uint64)
    mapped = gear.GEAR_TABLE.astype(np.uint64)[np.frombuffer(data, dtype=np.uint8)]
    window_count = length - gear.WINDOW + 1
    acc = np.zeros(window_count, dtype=np.uint64)
    for t in range(gear.WINDOW):
        shift = np.uint64(gear.WINDOW - 1 - t)
        acc += mapped[t : t + window_count] << shift
    return acc & np.uint64(MOD32 - 1)


def _rabin_coefficients() -> np.ndarray:
    """coef[t] = PRIME^(WINDOW-1-t) mod 2^64 for window offset t."""
    coefficients = np.empty(rabin.WINDOW, dtype=np.uint64)
    power = 1
    for exponent in range(rabin.WINDOW):
        coefficients[rabin.WINDOW - 1 - exponent] = power
        power = (power * rabin.PRIME) % MOD64
    return coefficients


_COEFFICIENTS = _rabin_coefficients()


def reference_rabin_hashes(data: bytes) -> np.ndarray:
    """Rabin polynomial of each window, one multiply-accumulate per window byte."""
    length = len(data)
    if length < rabin.WINDOW:
        return np.empty(0, dtype=np.uint64)
    stream = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    window_count = length - rabin.WINDOW + 1
    acc = np.zeros(window_count, dtype=np.uint64)
    for t in range(rabin.WINDOW):
        acc += stream[t : t + window_count] * _COEFFICIENTS[t]
    return acc


def _top_bits(bits: int) -> int:
    return ((1 << bits) - 1) << (32 - bits)


def reference_candidates(name: str, params: ChunkerParams, data: bytes) -> list[np.ndarray]:
    """What ``make_chunker(name, params).candidates(data)`` must return."""
    avg_bits = params.avg_size.bit_length() - 1
    if name == "rabin":
        mask = np.uint64(params.avg_size - 1)
        hits = (reference_rabin_hashes(data) & mask) == mask
        return [np.flatnonzero(hits) + rabin.WINDOW]
    hashes = reference_gear_hashes(data)
    if name == "gear":
        bit_counts = [min(avg_bits, 31)]
    else:
        bit_counts = [max(avg_bits - 2, 1), min(avg_bits + 2, 31)]
    return [
        np.flatnonzero((hashes & np.uint64(_top_bits(bits))) == 0) + gear.WINDOW
        for bits in bit_counts
    ]


def assert_matches_reference(name: str, data: bytes, params: ChunkerParams = PARAMS) -> None:
    chunker = make_chunker(name, params)
    expected = reference_candidates(name, params, data)
    got = chunker.candidates(data)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have.dtype == np.int64
        assert np.array_equal(want, have)
    # ``boundaries`` is the same scan under the whole-buffer rules.
    if name == "rabin" and len(data) <= rabin.WINDOW:
        expected = [np.empty(0, dtype=np.int64)]
    boundary_set = chunker.boundaries(data)
    assert boundary_set.length == len(data)
    assert np.array_equal(boundary_set._positions, expected[0])
    assert np.array_equal(boundary_set._strict, expected[-1])


# --- layer 1: ground truth for the reference itself ---------------------------


@pytest.mark.parametrize("size", [32, 33, 100, 4096])
def test_reference_gear_equals_the_byte_at_a_time_recurrence(size):
    data = payload(2, size)
    table = [int(value) for value in gear.GEAR_TABLE]
    rolled = []
    h = 0
    for position, byte in enumerate(data, start=1):
        h = ((h << 1) + table[byte]) % MOD32
        if position >= gear.WINDOW:
            # 32 shifts push every older byte out of a 32-bit hash.
            rolled.append(h)
    assert rolled == reference_gear_hashes(data).tolist()


@pytest.mark.parametrize("size", [48, 49, 100, 4096])
def test_reference_rabin_equals_the_polynomial_in_python_ints(size):
    data = payload(3, size)
    expected = []
    for end in range(rabin.WINDOW, size + 1):
        h = 0
        for byte in data[end - rabin.WINDOW : end]:
            h = (h * rabin.PRIME + byte) % MOD64
        expected.append(h)
    assert expected == reference_rabin_hashes(data).tolist()


def test_gear_table_is_pinned():
    """The table is part of the repository format: new values, new cuts."""
    assert gear.GEAR_TABLE.dtype == np.uint32
    digest = hashlib.sha256(gear.GEAR_TABLE.astype("<u4").tobytes()).hexdigest()
    assert digest == "69374cdd1319f55c56800b26a06fc6a91a8211eb2d8f791845eee05b5fd89f94"


# --- layer 3: the kernel -------------------------------------------------------


@pytest.mark.parametrize("name", CDC_NAMES)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_lengths_around_one_window(name, offset):
    assert_matches_reference(name, payload(5, WINDOWS[name] + offset))


@pytest.mark.parametrize("name", CDC_NAMES)
def test_empty_buffer(name):
    assert_matches_reference(name, b"")


@pytest.mark.parametrize("name", CDC_NAMES)
def test_tile_edges_at_the_real_tile_size(name):
    window = WINDOWS[name]
    # TILE + window - 1 bytes fill exactly one tile; one more starts a second.
    for size in (
        scan.TILE + window - 2,
        scan.TILE + window - 1,
        scan.TILE + window,
        2 * scan.TILE - 1,
        2 * scan.TILE + 1,
    ):
        assert_matches_reference(name, payload(size, size))


@pytest.mark.parametrize("tile", [1, 7, 64, 1000])
@pytest.mark.parametrize("name", CDC_NAMES)
def test_many_seams(name, tile, monkeypatch):
    monkeypatch.setattr(scan, "TILE", tile)
    assert_matches_reference(name, payload(tile, 5000))


@pytest.mark.parametrize(
    "table,window,combine",
    [
        (gear.GEAR_TABLE, gear.WINDOW, gear.gear_combine),
        (rabin._BYTE_VALUES, rabin.WINDOW, rabin.rabin_combine),
    ],
    ids=["gear", "rabin"],
)
@pytest.mark.parametrize("tile", [1, 5, 64, 4096])
def test_seams_neither_drop_nor_duplicate_a_position(tile, table, window, combine, monkeypatch):
    """Under an always-true condition every window end comes back exactly
    once, in order.  A later condition is tested only at the first one's
    hits (the refinement contract): a repeat of the first returns the
    same array, one that never holds an empty one, and behind a first
    condition that never holds even an always-true one comes back empty."""
    monkeypatch.setattr(scan, "TILE", tile)
    always = (table.dtype.type(0), 0)
    never = (table.dtype.type(0), 1)
    for size in (window, tile + window - 1, tile + window, 3 * tile + window + 2, 9000):
        data = payload(size, size)
        hits, repeat, none = scan.cut_positions(
            data, window, table, combine, [always, always, never]
        )
        assert hits.tolist() == list(range(window, size + 1))
        assert np.array_equal(hits, repeat)
        assert none.size == 0 and none.dtype == np.int64
        blocked, refined = scan.cut_positions(data, window, table, combine, [never, always])
        assert blocked.size == 0
        assert refined.size == 0 and refined.dtype == np.int64


def test_doubling_buffers_at_every_window_width():
    """Every width from 1 to 64 bytes — one to six set bits, so a level
    kept for the fold, and more buffers than the two given — equals the
    W-pass sum ``Σ table[b_t] << (W-1-t)`` of gear's recurrence."""
    values = gear.GEAR_TABLE[np.frombuffer(payload(6, 300), dtype=np.uint8)]
    original = values.copy()
    wide = values.astype(np.uint64)
    for window in range(1, 65):
        count = len(values) - window + 1
        expected = np.zeros(count, dtype=np.uint64)
        for t in range(max(window - 32, 0), window):
            # A byte 32 or more places back is shifted out of the hash.
            expected += wide[t : t + count] << np.uint64(window - 1 - t)
        scratch = [np.empty(len(values), dtype=np.uint32) for _ in range(2)]
        got = scan.windowed_hashes(values, window, gear.gear_combine, scratch)
        assert np.array_equal(got, expected & np.uint64(MOD32 - 1)), window
        assert np.array_equal(values, original)


@pytest.mark.parametrize("avg_bits", range(6, 21))
def test_fastcdc_strict_mask_covers_its_permissive_mask(avg_bits):
    """Why the refinement is exact for FastCDC, at every power-of-two
    average from 64 B to 1 MiB: the strict mask holds every permissive
    bit, both want 0, so a strict hit is always a permissive hit."""
    chunker = make_chunker("fastcdc", ChunkerParams().scaled(1 << avg_bits))
    strict, permissive = int(chunker._strict_mask), int(chunker._permissive_mask)
    assert strict & permissive == permissive
    assert strict != permissive


def test_concurrent_calls_share_no_buffers(monkeypatch):
    """Executor threads run the kernel at once.  Eight threads — more than
    the cores — each scan their own payload with every CDC chunker while
    the interpreter switches threads every microsecond and a small tile
    makes every call span many tiles; each must get the serial answer."""
    monkeypatch.setattr(scan, "TILE", 61)
    chunkers = [make_chunker(name, PARAMS) for name in CDC_NAMES]
    payloads = [payload(100 + i, 3000) for i in range(8)]
    expected = [[chunker.candidates(data) for chunker in chunkers] for data in payloads]
    results: list[list[list[np.ndarray]]] = [[] for _ in payloads]
    start = threading.Barrier(len(payloads))

    def scan_own_payload(i: int) -> None:
        start.wait()
        for _ in range(3):
            results[i].append([chunker.candidates(payloads[i]) for chunker in chunkers])

    threads = [
        threading.Thread(target=scan_own_payload, args=(i,), daemon=True)
        for i in range(len(payloads))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        # Shared buffers need not fail loudly: a hash written over another
        # call's byte indices sends ``np.take(mode="wrap")`` into a
        # near-endless wrap loop, so the join is bounded.
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    for want, rounds in zip(expected, results):
        assert len(rounds) == 3
        for got in rounds:
            for want_parts, got_parts in zip(want, got):
                assert len(want_parts) == len(got_parts)
                for want_hits, got_hits in zip(want_parts, got_parts):
                    assert np.array_equal(want_hits, got_hits)


@pytest.mark.parametrize("name", CDC_NAMES)
def test_constant_and_periodic_buffers(name):
    """Low-entropy buffers drive the hash through its wraparound paths and
    make every window of a run hit (or miss) together."""
    params = ChunkerParams(min_size=64, avg_size=64, max_size=512)
    for data in (
        b"\x00" * 5000,
        b"\xff" * 5000,
        bytes(range(256)) * 20,
        b"ab" * 2500,
        b"\x00" * (scan.TILE + 100),
    ):
        assert_matches_reference(name, data)
        assert_matches_reference(name, data, params)


def test_rabin_quirk_is_a_whole_buffer_rule_not_a_kernel_rule():
    """``boundaries`` has never returned a position for ``len <= WINDOW``,
    though WINDOW bytes hold one window; the kernel itself evaluates it, so
    a share of a larger buffer that short would not lose its position."""
    chunker = make_chunker("rabin", ChunkerParams(min_size=64, avg_size=64, max_size=512))
    data = next(
        candidate
        for candidate in (payload(seed, rabin.WINDOW) for seed in range(10_000))
        if chunker.candidates(candidate)[0].size
    )
    assert [part.tolist() for part in chunker.candidates(data)] == [[rabin.WINDOW]]
    assert chunker.boundaries(data)._positions.size == 0
    assert rabin.WINDOW in chunker.boundaries(data + b"x")._positions


@pytest.mark.parametrize("name", CDC_NAMES)
def test_a_slice_scans_like_the_whole(name, monkeypatch):
    """The contract ``ParallelExecutor`` fans out on: scanning a slice that
    starts ``window - 1`` bytes early, plus its origin, is the matching
    stretch of the whole buffer's scan."""
    monkeypatch.setattr(scan, "TILE", 512)
    chunker = make_chunker(name, PARAMS)
    window = WINDOWS[name]
    data = payload(11, 20000)
    whole = chunker.candidates(data)
    view = memoryview(data)
    for first, last in [(0, 6000), (6000, 6001), (6001, 19000), (19000, len(data) - window + 1)]:
        # Window indices [first, last) end at offsets [first+window, last+window).
        parts = chunker.candidates(view[first : last + window - 1])
        for full, part in zip(whole, parts):
            expected = full[(full >= first + window) & (full < last + window)]
            assert np.array_equal(expected, part + first)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    size=st.integers(0, 3000),
    name=st.sampled_from(CDC_NAMES),
    tile=st.sampled_from([3, 100, 1 << 15]),
)
def test_kernel_matches_reference_property(seed, size, name, tile):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "TILE", tile)
        assert_matches_reference(name, payload(seed, size))
