"""``workers=N`` is compute fan-out only: the OSS backend sees one thread.

The executor's pool threads scan and fingerprint; every PUT, GET, ranged
GET and DELETE — container flushes and multi-span restore reads included —
is issued by the thread that called ``SlimStore``.  That is what makes the
request sequence (and so fault draws, journaled tier changes and the
virtual clock) the same at every worker count.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import BrowseSession, ObjectStorageService, SlimStore
from repro.exec import engine
from repro.oss.backend import InMemoryBackend
from tests.conftest import SMALL_CONFIG, make_version_chain


class _RecordingBackend(InMemoryBackend):
    """Notes which thread issued each object operation."""

    def __init__(self, calls: list[tuple[str, int]]) -> None:
        super().__init__()
        self._calls = calls

    def put(self, key, data):
        self._calls.append(("put", threading.get_ident()))
        super().put(key, data)

    def get(self, key):
        self._calls.append(("get", threading.get_ident()))
        return super().get(key)

    def get_range(self, key, offset, length):
        self._calls.append(("get_range", threading.get_ident()))
        return super().get_range(key, offset, length)

    def delete(self, key):
        self._calls.append(("delete", threading.get_ident()))
        return super().delete(key)


def test_only_the_callers_thread_touches_the_backend(monkeypatch):
    # Shares small enough that the 256 KiB files really fan out to the pool.
    monkeypatch.setattr(engine, "_MIN_SHARE", 1 << 14)
    pool_threads: set[int] = set()
    scan_task = engine._scan_task

    def recording_scan_task(*args):
        pool_threads.add(threading.get_ident())
        return scan_task(*args)

    monkeypatch.setattr(engine, "_scan_task", recording_scan_task)

    calls: list[tuple[str, int]] = []
    oss = ObjectStorageService(backend_factory=lambda: _RecordingBackend(calls))
    store = SlimStore(SMALL_CONFIG.with_overrides(workers=2), oss)
    # 20 KiB edits punch holes wider than the 16 KiB coalescing gap into the
    # old containers, so restoring a later version issues multi-span reads.
    chain = make_version_chain(
        np.random.default_rng(2468), versions=4, runs=6, run_bytes=20 * 1024
    )
    try:
        for data in chain:
            report = store.backup("vm/disk.img", data)  # G-node pass included
        assert report.reverse_dedup is not None
        multi_span = False
        for version, data in enumerate(chain):
            result = store.restore("vm/disk.img", version)
            assert result.data == data
            multi_span |= result.counters.get("ranged_reads") > result.containers_read
        session = BrowseSession(store)
        assert session.read("vm/disk.img", 100_000, 4096) == chain[-1][100_000:104_096]
    finally:
        store.close()

    me = threading.get_ident()
    assert pool_threads and me not in pool_threads, "the scan never left this thread"
    assert multi_span, "no container was read as more than one span"
    assert {op for op, _ in calls} == {"put", "get", "get_range", "delete"}
    strays = sorted({op for op, ident in calls if ident != me})
    assert not strays, f"backend {strays} issued off the caller's thread"
