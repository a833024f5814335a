"""Differential tests: the lazy ``BoundaryCursor`` against the eager set.

The cursor scans on demand and verifies a predicted cut with one scalar
window hash; the dedup engine relies on it returning, query for query,
what ``chunker.boundaries(data)`` of the whole buffer returns — under any
order of queries (sequential CDC, forward jumps over skip runs, a restart
at an earlier offset after the header probe).  Two oracles:

* the eager :class:`BoundarySet` of the same buffer, for ``next_cut`` /
  ``is_cut`` sequences;
* ``Chunker.candidates`` membership at *every* offset, for the scalar
  ``is_candidate`` hash (which must equal the scan kernel bit for bit).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import BoundaryCursor, ChunkerParams, make_chunker
from repro.chunking import cursor as cursor_module
from repro.chunking import scan
from repro.errors import ChunkingError

CHUNKER_NAMES = ["gear", "fastcdc", "rabin", "fixed"]
CDC_NAMES = ["gear", "fastcdc", "rabin"]
#: The largest window (rabin's 48) must stay below ``min_size``.
SMALL = ChunkerParams(min_size=64, avg_size=256, max_size=2048)
MEDIUM = ChunkerParams(min_size=256, avg_size=1024, max_size=8192)
DEFAULT = ChunkerParams()
PARAM_SETS = [SMALL, MEDIUM, DEFAULT]


def make_buffer(seed: int, length: int, alphabet: int) -> bytes:
    """Seeded bytes over ``alphabet`` values: 256 is incompressible, a few
    values shift the hit density.  ``alphabet=0`` is random bytes with
    zero-filled gaps of about 1-3 KiB, which hold one repeated window hash
    and so (nearly always) no hit: chunks there end on ``start + max``."""
    rng = np.random.default_rng(seed)
    if alphabet:
        return rng.integers(0, alphabet, size=length, dtype=np.uint8).tobytes()
    stream = rng.integers(0, 256, size=length, dtype=np.uint8)
    position = 0
    while position < length:
        position += int(rng.integers(200, 3000))
        gap = int(rng.integers(1000, 3000))
        stream[position : position + gap] = 0
        position += gap
    return stream.tobytes()


def interesting_lengths(params: ChunkerParams, first: int, cap: int) -> list[int]:
    """Buffer lengths on both sides of every size the cursor branches on."""
    edges = {0, 1, 31, 32, 33, 47, 48, 49}
    for pivot in (params.min_size, params.avg_size, params.max_size):
        edges.update((pivot - 1, pivot, pivot + 1))
    step, reach = first, params.min_size
    while step <= cap:
        # Where the n-th consecutive extension ends, for a walk from 0.
        reach += step
        edges.update((reach - 1, reach, reach + 1, reach + params.avg_size))
        if step == cap:
            break
        step = min(2 * step, cap)
    edges.add(3 * params.max_size + 17)
    return sorted(edges)


#: One query of a driven sequence.
operations = st.one_of(
    st.just(("cut",)),
    st.just(("cut",)),
    st.tuples(st.just("jump"), st.floats(0.0, 1.0)),
    st.tuples(st.just("back"), st.floats(0.0, 1.0)),
    st.just(("restart",)),
    st.tuples(st.just("probe_cut"), st.integers(-2, 2)),
    st.tuples(st.just("probe_size"), st.floats(0.0, 1.1)),
)


def drive(chunker, data: bytes, ops) -> None:
    """Run ``ops`` against a cursor and the eager set; every answer must match."""
    eager = chunker.boundaries(data)
    cursor = BoundaryCursor(chunker, data)
    length = len(data)
    assert cursor.length == eager.length == length
    if length == 0:
        with pytest.raises(ChunkingError):
            cursor.next_cut(0)
        return
    position = 0
    for op in ops:
        kind = op[0]
        if kind == "cut":
            if position >= length:
                position = 0
            expected = eager.next_cut(position)
            assert cursor.next_cut(position) == expected, (chunker.name, position)
            position = expected
        elif kind == "jump":
            position = min(length - 1, position + int(op[1] * (length - position)))
        elif kind == "back":
            position = int(op[1] * min(position, length - 1))
        elif kind == "restart":
            position = 0
        else:
            start = min(position, length - 1)
            if kind == "probe_cut":
                # On, and just beside, the cut CDC itself would choose.
                end = eager.next_cut(start) + op[1]
            else:
                end = start + int(op[1] * chunker.params.max_size)
            assert cursor.is_cut(start, end) == eager.is_cut(start, end), (
                chunker.name,
                start,
                end,
            )


#: Read-ahead steps of 64..512 bytes, so a few KiB of input crosses every
#: extension size and the cap.
SMALL_STEPS = dict(READ_AHEAD_MIN=64, READ_AHEAD_MAX=512)


@pytest.mark.parametrize("name", CHUNKER_NAMES)
@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    alphabet=st.sampled_from([256, 256, 4, 2, 0]),
    length_index=st.integers(0, 200),
    ops=st.lists(operations, min_size=1, max_size=60),
)
def test_cursor_matches_eager_set_small_steps(name, seed, alphabet, length_index, ops):
    chunker = make_chunker(name, SMALL)
    lengths = interesting_lengths(chunker.params, *SMALL_STEPS.values())
    data = make_buffer(seed, lengths[length_index % len(lengths)], alphabet)
    with mock.patch.multiple(cursor_module, **SMALL_STEPS):
        drive(chunker, data, ops)


@pytest.mark.parametrize("params", PARAM_SETS, ids=["small", "medium", "default"])
@pytest.mark.parametrize("name", CHUNKER_NAMES)
@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**16),
    alphabet=st.sampled_from([256, 256, 3, 0]),
    length_index=st.integers(0, 200),
    ops=st.lists(operations, min_size=1, max_size=40),
)
def test_cursor_matches_eager_set_product_steps(
    name, params, seed, alphabet, length_index, ops
):
    """The product's 8 KiB -> 1 MiB read-ahead, lengths around its first
    five steps (the rest repeat the same code at a larger size)."""
    chunker = make_chunker(name, params)
    lengths = interesting_lengths(
        chunker.params, cursor_module.READ_AHEAD_MIN, 16 * cursor_module.READ_AHEAD_MIN
    )
    data = make_buffer(seed, lengths[length_index % len(lengths)], alphabet)
    drive(chunker, data, ops)


@pytest.mark.parametrize("steps", [(64, 64), (64, 512), (100, 1000)])
@pytest.mark.parametrize("name", CDC_NAMES)
def test_covered_range_holds_exactly_the_eager_positions(name, steps):
    """After every step of a walk the covered range ``(_base, _covered]``
    holds exactly the eager set's positions in it — none lost or doubled
    at an extension seam (a hit on the first window after a seam is rare
    enough that the query sequences above can miss an off-by-one there)."""
    chunker = make_chunker(name, SMALL)
    first, cap = steps
    extensions = 0
    for seed in range(12):
        data = make_buffer(seed, 6_000 + 97 * seed, (256, 2, 0)[seed % 3])
        eager = chunker.boundaries(data)
        permissive, strict = eager.offsets()
        with mock.patch.multiple(cursor_module, READ_AHEAD_MIN=first, READ_AHEAD_MAX=cap):
            cursor = BoundaryCursor(chunker, data)
            position = 0
            while position < len(data):
                expected = eager.next_cut(position)
                assert cursor.next_cut(position) == expected
                position = expected
                base, covered = cursor._base, cursor._covered
                extensions += covered > base
                assert cursor._positions == [p for p in permissive if base < p <= covered]
                assert cursor._strict == [p for p in strict if base < p <= covered]
    assert extensions > 100


@pytest.mark.parametrize("name", CDC_NAMES)
def test_max_size_cut_ignores_hits_the_read_ahead_found_past_it(name):
    """No hit up to ``start + max`` means the cut *is* ``start + max``,
    even when the read-ahead already covers a hit further on."""
    chunker = make_chunker(name, SMALL)  # max 2 KiB, well inside 8 KiB
    capped = 0
    for seed in range(6):
        data = make_buffer(seed, 40_000, 0)
        eager = chunker.boundaries(data)
        cursor = BoundaryCursor(chunker, data)
        position = 0
        while position < len(data):
            expected = eager.next_cut(position)
            assert cursor.next_cut(position) == expected
            capped += expected - position == SMALL.max_size and cursor._covered > expected
            position = expected
    assert capped > 10


@pytest.mark.parametrize("name", CDC_NAMES)
def test_is_cut_switches_condition_exactly_at_avg(name):
    """A chunk of exactly ``avg`` bytes is still judged by the strict
    condition, one byte more by the permissive one (FastCDC's two masks)."""
    chunker = make_chunker(name, SMALL)
    data = make_buffer(31, 60_000, 256)
    eager = chunker.boundaries(data)
    cursor = BoundaryCursor(chunker, data)
    permissive, strict = eager.offsets()
    probed = 0
    for end in permissive:
        for size in (SMALL.avg_size - 1, SMALL.avg_size, SMALL.avg_size + 1):
            if end - size >= 0 and end < len(data):
                assert cursor.is_cut(end - size, end) == eager.is_cut(end - size, end)
                probed += 1
    assert probed > 100
    if name == "fastcdc":
        strict_only = set(strict)
        loose = next(p for p in permissive if p not in strict_only and p > SMALL.avg_size)
        assert not cursor.is_cut(loose - SMALL.avg_size, loose)
        assert cursor.is_cut(loose - SMALL.avg_size - 1, loose)


@pytest.mark.parametrize("name", CDC_NAMES)
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_full_walk_around_one_scan_tile(name, delta):
    """A sequential walk whose extensions straddle ``scan.TILE`` window
    positions: the kernel's tile seam must not show through the cursor."""
    chunker = make_chunker(name, DEFAULT)
    length = scan.TILE + chunker.window - 1 + delta + DEFAULT.min_size
    data = make_buffer(7 + delta, length, 256)
    eager = chunker.boundaries(data)
    cursor = BoundaryCursor(chunker, data)
    position = 0
    while position < length:
        expected = eager.next_cut(position)
        assert cursor.next_cut(position) == expected
        position = expected
    assert cursor.bytes_scanned <= 1.05 * length


@pytest.mark.parametrize("name", CDC_NAMES)
def test_jump_replaces_the_lists_next_cut_reads(name):
    """Regression: a ``next_cut`` that jumps past the covered range drops
    the position lists and scans a new range; answering from the lists it
    held *before* the jump returns cuts of the old range (or ``start+max``).
    Then the same at an earlier offset: the header probe, then a restart."""
    chunker = make_chunker(name, DEFAULT)
    data = make_buffer(99, 400_000, 256)
    eager = chunker.boundaries(data)
    cursor = BoundaryCursor(chunker, data)
    position = 0
    for _ in range(4):  # cover a few chunks at the head
        position = cursor.next_cut(position)
    for start in (200_000, 390_000, 100_000, 0, position):
        position = start
        for _ in range(5):
            if position >= len(data):
                break
            expected = eager.next_cut(position)
            assert cursor.next_cut(position) == expected, (start, position)
            position = expected


@pytest.mark.parametrize("name", CDC_NAMES)
def test_header_probe_is_not_rescanned(name):
    """``_probe_header`` walks the head, then ``run()`` restarts at 0 on
    the same cursor: the restart must be answered from the covered range."""
    chunker = make_chunker(name, DEFAULT)
    data = make_buffer(5, 300_000, 256)
    cursor = BoundaryCursor(chunker, data)
    position = 0
    while position < 64 * 1024:
        position = cursor.next_cut(position)
    scanned = cursor.bytes_scanned
    position = 0
    while position < 64 * 1024:
        position = cursor.next_cut(position)
    assert cursor.bytes_scanned == scanned


def kernel_calls(monkeypatch, chunker) -> list[int]:
    """Record the length of every buffer ``chunker.boundaries`` is handed."""
    calls: list[int] = []
    original = type(chunker).boundaries

    def counting(self, data):
        calls.append(len(data))
        return original(self, data)

    monkeypatch.setattr(type(chunker), "boundaries", counting)
    return calls


@pytest.mark.parametrize("name", CDC_NAMES)
def test_buffer_inside_the_first_extension_is_one_kernel_call(name, monkeypatch):
    chunker = make_chunker(name, DEFAULT)
    calls = kernel_calls(monkeypatch, chunker)
    data = make_buffer(3, 6000, 256)
    cursor = BoundaryCursor(chunker, data)
    position = 0
    while position < len(data):
        position = cursor.next_cut(position)
    assert len(calls) == 1
    assert cursor.bytes_scanned == calls[0] <= len(data)


@pytest.mark.parametrize("name", CDC_NAMES)
def test_sequential_walk_keeps_its_read_ahead(name, monkeypatch):
    """A cut that lands within ``min_size`` of the covered edge puts the
    next query past the edge; that is still the same walk.  Treating it as
    a jump restarted the read-ahead at 8 KiB about twice per 2 MiB FastCDC
    file, and made the restart after the header probe rescan the header."""
    chunker = make_chunker(name, DEFAULT)
    calls = kernel_calls(monkeypatch, chunker)
    data = make_buffer(17, 3 << 20, 256)
    cursor = BoundaryCursor(chunker, data)
    for _ in range(2):  # the header probe's walk, then the restart at 0
        position = 0
        while position < len(data):
            position = cursor.next_cut(position)
    # 8, 16, ..., 512 KiB, then 1 MiB steps: every call twice the last.
    assert len(calls) == 10
    assert all(b >= 2 * a - chunker.window for a, b in zip(calls, calls[1:8]))
    assert cursor.bytes_scanned <= len(data)


def test_fixed_chunker_never_scans():
    chunker = make_chunker("fixed", DEFAULT)
    data = make_buffer(1, 50_000, 256)
    cursor = BoundaryCursor(chunker, data)
    position, cuts = 0, []
    while position < len(data):
        position = cursor.next_cut(position)
        cuts.append(position)
    assert cuts == [chunk.end for chunk in chunker.chunk(data)]
    assert cursor.is_cut(0, DEFAULT.avg_size)
    assert not cursor.is_cut(0, DEFAULT.avg_size - 1)
    assert cursor.bytes_scanned == 0


def test_is_cut_leaves_the_covered_range_alone():
    chunker = make_chunker("gear", DEFAULT)
    data = make_buffer(8, 200_000, 256)
    eager = chunker.boundaries(data)
    cursor = BoundaryCursor(chunker, data)
    for start in range(0, 150_000, 7_919):
        end = eager.next_cut(start)
        assert cursor.is_cut(start, end)
        assert cursor.is_cut(start, end + 1) == eager.is_cut(start, end + 1)
    assert cursor.bytes_scanned == 0
    assert not cursor.is_cut(199_000, 200_001)  # past the end of the buffer


# ---------------------------------------------------------------------------
# The scalar window hash against the scan kernel, at every offset
# ---------------------------------------------------------------------------


def assert_scalar_equals_kernel(chunker, data: bytes) -> None:
    columns = chunker.candidates(data)
    permissive, strict = set(columns[0].tolist()), set(columns[-1].tolist())
    view = memoryview(data)
    for end in range(chunker.window, len(data) + 1):
        assert chunker.is_candidate(view, end, False) == (end in permissive), end
        assert chunker.is_candidate(view, end, True) == (end in strict), end


@pytest.mark.parametrize("name", CDC_NAMES)
@settings(max_examples=30)
@given(data=st.binary(min_size=0, max_size=700))
def test_scalar_window_hash_equals_the_kernel(name, data):
    # A 256-byte average makes hits dense enough to meet both outcomes.
    assert_scalar_equals_kernel(make_chunker(name, SMALL), data)


@pytest.mark.parametrize("params", PARAM_SETS, ids=["small", "medium", "default"])
@pytest.mark.parametrize("name", CDC_NAMES)
def test_scalar_window_hash_equals_the_kernel_on_long_buffers(name, params):
    chunker = make_chunker(name, params)
    assert_scalar_equals_kernel(chunker, make_buffer(21, 40_000, 256))
    # High bytes and a tiny alphabet: carries out of the 32/64-bit ring.
    assert_scalar_equals_kernel(chunker, b"\xff" * 300 + make_buffer(22, 4_000, 2))


def test_rabin_scalar_sees_the_single_window_boundaries_swallows():
    """``RabinChunker.boundaries`` reports nothing for a buffer of exactly
    one window (repository format); ``candidates`` and the scalar hash do
    see that window, which is what lets a cursor scan interior slices."""
    chunker = make_chunker("rabin", SMALL)
    for seed in range(400):
        data = make_buffer(seed, 48, 256)
        (hits,) = chunker.candidates(data)
        assert chunker.is_candidate(data, 48, False) == (hits.tolist() == [48])
        assert chunker.boundaries(data).offsets() == ([], [])
