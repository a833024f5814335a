"""ParallelExecutor: fanned-out scans and pooled fingerprints are
indistinguishable from ``chunker.boundaries``, at every width.

The product constants split only multi-MiB buffers, so every fan-out case
here runs under :func:`scan_tasks`, which shrinks them until KiB-sized
payloads split and records each scan task the pool ran — a case that
claims to cover fan-out asserts how many there were.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.chunking import scan
from repro.chunking.base import BoundarySet, Chunker, ChunkerParams, make_chunker
from repro.exec import ParallelExecutor, engine
from repro.fingerprint.hashing import fingerprint

PARAMS = ChunkerParams(min_size=128, avg_size=2048, max_size=16384)


def _payload(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _assert_equal_sets(serial, parallel) -> None:
    assert serial.length == parallel.length
    assert np.array_equal(serial._positions, parallel._positions)
    assert np.array_equal(serial._strict, parallel._strict)


@pytest.fixture
def scan_tasks(monkeypatch) -> list[tuple[int, int]]:
    """(origin, share bytes) of every scan task run, under 8 KiB shares
    and 1 KiB tiles."""
    monkeypatch.setattr(engine, "_MIN_SHARE", 1 << 13)
    monkeypatch.setattr(scan, "TILE", 1 << 10)
    tasks: list[tuple[int, int]] = []
    scan_task = engine._scan_task

    def recording(chunker, buf, origin):
        tasks.append((origin, len(buf)))
        return scan_task(chunker, buf, origin)

    monkeypatch.setattr(engine, "_scan_task", recording)
    return tasks


class TestScanBoundaries:
    @pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin", "fixed"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, name, workers, scan_tasks):
        chunker = make_chunker(name, PARAMS)
        data = _payload(13, 1 << 18)
        with ParallelExecutor(workers) as executor:
            _assert_equal_sets(chunker.boundaries(data), executor.scan_boundaries(chunker, data))
        # One worker's share is the whole buffer, and fixed scans nothing:
        # both stay on the caller's thread.
        fans_out = workers > 1 and name != "fixed"
        assert len(scan_tasks) == (workers if fans_out else 0)

    @pytest.mark.parametrize("size", [0, 31, 32, 47, 48, 49, 1 << 15])
    def test_edge_lengths(self, size, scan_tasks, monkeypatch):
        # No floor on the share: two windows are enough to split, so the
        # shares themselves come down to a single window — where rabin's
        # whole-buffer quirk must *not* apply to a share.
        monkeypatch.setattr(engine, "_MIN_SHARE", 1)
        data = _payload(17, size)
        with ParallelExecutor(2) as executor:
            for name in ("gear", "fastcdc", "rabin"):
                chunker = make_chunker(name, PARAMS)
                del scan_tasks[:]
                _assert_equal_sets(
                    chunker.boundaries(data), executor.scan_boundaries(chunker, data)
                )
                window_count = size - chunker.window + 1
                assert len(scan_tasks) == (2 if window_count > 1 else 0)

    def test_tiny_slabs_force_many_tasks(self, scan_tasks):
        """When the floor sets the share, the last task gets the remainder
        — here a 7-window tail — and the pieces still concatenate."""
        chunker = make_chunker("fastcdc", PARAMS)
        data = _payload(19, 3 * (1 << 13) + 7 + chunker.window - 1)
        with ParallelExecutor(8) as executor:
            _assert_equal_sets(
                chunker.boundaries(data), executor.scan_boundaries(chunker, data)
            )
        assert [origin for origin, _ in sorted(scan_tasks)] == [0, 1 << 13, 2 << 13, 3 << 13]
        assert max(scan_tasks)[1] == 7 + chunker.window - 1


    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_shares_neither_drop_nor_duplicate_a_position(self, workers, scan_tasks):
        """A chunker that hits on every window: the fanned-out set must be
        every window end exactly once, whatever the executor knows of it."""

        class EveryWindow(Chunker):
            name = "every-window"
            window = 5

            def candidates(self, buf):
                return [np.arange(self.window, len(buf) + 1, dtype=np.int64)]

            def boundaries(self, data):
                return BoundarySet(len(data), self.params, *self.candidates(data))

        size = 50_001
        with ParallelExecutor(workers) as executor:
            boundary_set = executor.scan_boundaries(EveryWindow(PARAMS), bytes(size))
        assert len(scan_tasks) == workers
        assert boundary_set._positions.tolist() == list(range(5, size + 1))
        assert boundary_set._strict is boundary_set._positions


class TestChunkAndFingerprint:
    @pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin", "fixed"])
    def test_memo_covers_the_cdc_walk(self, name, scan_tasks):
        chunker = make_chunker(name, PARAMS)
        data = _payload(31, 1 << 17)
        with ParallelExecutor(2) as executor:
            boundary_set, memo = executor.chunk_and_fingerprint(chunker, data)
        assert len(scan_tasks) == (0 if name == "fixed" else 2)
        # The memo spans tile the buffer exactly along the next_cut walk...
        serial = chunker.boundaries(data)
        position = 0
        while position < len(data):
            end = serial.next_cut(position)
            assert (position, end) in memo
            position = end
        # ...and every digest is the chunk's true fingerprint.
        for (start, end), digest in memo.items():
            assert digest == fingerprint(data[start:end])

    def test_blake2b_digests(self):
        chunker = make_chunker("fastcdc", PARAMS)
        data = _payload(37, 1 << 16)
        with ParallelExecutor(2) as executor:
            _, memo = executor.chunk_and_fingerprint(chunker, data, algo="blake2b")
        for (start, end), digest in memo.items():
            assert digest == hashlib.blake2b(data[start:end], digest_size=20).digest()

    def test_empty_stream(self):
        chunker = make_chunker("gear", PARAMS)
        with ParallelExecutor(1) as executor:
            boundary_set, memo = executor.chunk_and_fingerprint(chunker, b"")
        assert boundary_set.length == 0
        assert memo == {}


class TestConstruction:
    def test_rejects_bad_workers(self):
        for workers in (-1, 0):
            with pytest.raises(ValueError):
                ParallelExecutor(workers)

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        executor.scan_boundaries(make_chunker("gear", PARAMS), _payload(43, 1 << 13))
        executor.close()
        executor.close()
