"""Skip chunking replays runs: the run loop against the per-chunk oracle.

``_JobState._try_skip_chunking`` walks the cached successor chain while
every prediction holds and counts the run once; the virtual clock is priced
from the job's tallies once, when its loop ends.  ``tests/core/legacy_dedup.py``
keeps the loop that made one call and every charge per chunk.  For each way
a run can end — the segment fills, a digest or a cut fails mid-run, the data
ends, a predicted chunk lives in a container being rewritten, the chain
holds a superchunk, the successor is not cached yet, its prefetch fails —
both must leave the same recipes, counters, containers and OSS request
stream, and virtual seconds equal to 1e-12 relative.  Every case runs on
both ways a job reads its base recipe: whole, with one GET at open, and
ranged, span by span with its recipe index fetched.
"""

from __future__ import annotations

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recipe import WHOLE_RECIPE_BYTES, RecipeHandle
from repro.core.storage import StorageLayer
from repro.errors import TransientOSSError
from repro.oss.object_store import ObjectStorageService
from repro.sim.clock import SimClock
from repro.sim.cost_model import CostModel
from repro.sim.metrics import TimeBreakdown
from tests.conftest import SMALL_CONFIG, RegisteringEngine, mutate, random_bytes, stable_versions
from tests.core.legacy_dedup import legacy_jobs

#: Every request-issuing method of the simulated endpoint.
OSS_REQUESTS = (
    "put_object",
    "get_object",
    "get_range",
    "get_ranges",
    "delete_object",
    "delete_objects",
    "list_objects",
    "head_object",
)

REL = 1e-12


def _record_requests(oss: ObjectStorageService) -> list[tuple]:
    stream: list[tuple] = []
    for name in OSS_REQUESTS:
        method = getattr(oss, name)

        def recorded(*args, _name=name, _method=method, **kwargs):
            shown = tuple(len(a) if isinstance(a, (bytes, bytearray)) else a for a in args)
            stream.append((_name, shown, tuple(sorted(kwargs))))
            return _method(*args, **kwargs)

        setattr(oss, name, recorded)
    return stream


def _ingest(versions, config, *, rewrite_after=None, fail_prefetch=None) -> dict:
    """Back ``versions`` up as one path; everything the jobs leave behind.

    ``rewrite_after``: from that job on, every container the first job
    wrote is a rewrite target.  ``fail_prefetch``: ``(job, call)`` makes
    that job's ``call``-th ``get_segment_range`` raise, as a lost ranged
    GET does (the base is lost).
    """
    oss = ObjectStorageService(CostModel(), SimClock())
    storage = StorageLayer.create(oss)
    engine = RegisteringEngine(config, storage)
    stream = _record_requests(oss)
    fetch = RecipeHandle.get_segment_range
    calls = 0

    def failing_fetch(handle, ordinal, span):
        nonlocal calls
        calls += 1
        if calls == fail_prefetch[1]:
            raise TransientOSSError("get", "slimstore", "recipe")
        return fetch(handle, ordinal, span)

    jobs = []
    first_containers: set[int] = set()
    for ordinal, data in enumerate(versions):
        rewrite = first_containers if rewrite_after is not None and ordinal >= rewrite_after else None
        failing = fail_prefetch is not None and fail_prefetch[0] == ordinal
        calls = 0
        with mock.patch.object(
            RecipeHandle, "get_segment_range", failing_fetch if failing else fetch
        ):
            result = engine.backup("f", data, rewrite_containers=rewrite)
        if ordinal == 0:
            first_containers = set(result.new_container_ids)
        jobs.append(result)
    return {"jobs": jobs, "stream": stream}


#: The two ways a job reads its base recipe: whole, with one GET at open
#: (every recipe these tests write is under the default cap), and ranged,
#: span by span with its index fetched (the cap patched to 0), as a
#: recipe above the cap is.
READ_PATHS = {"whole": WHOLE_RECIPE_BYTES, "ranged": 0}


def _run_both(versions, config, monkeypatch, **kwargs) -> list[dict]:
    """The engine against the oracle on both read paths; the engine's
    results, whole read first."""
    results = []
    for read, cap in READ_PATHS.items():
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", cap)
            ours = _ingest(versions, config, **kwargs)
            legacy_jobs(patch)
            oracle = _ingest(versions, config, **kwargs)
        _assert_same(ours, oracle)
        # The patch took: the other path's recipe reads never happen.
        unused = "get_range" if read == "whole" else "get_object"
        assert not [
            request
            for request in ours["stream"]
            if request[0] == unused and request[1][1].startswith("recipes/")
        ], read
        results.append(ours)
    return results


def _close(ours: float, theirs: float) -> bool:
    return math.isclose(ours, theirs, rel_tol=REL, abs_tol=0.0)


def _assert_same(ours: dict, oracle: dict) -> None:
    assert ours["stream"] == oracle["stream"], "OSS request stream diverged"
    for ordinal, (job, old) in enumerate(zip(ours["jobs"], oracle["jobs"], strict=True)):
        where = f"job {ordinal}"
        assert job.recipe == old.recipe, f"{where}: recipe"
        assert job.counters.counts == old.counters.counts, f"{where}: counters"
        assert job.degraded == old.degraded, f"{where}: degraded"
        assert job.alias_of == old.alias_of, f"{where}: alias"
        assert job.stored_chunk_bytes == old.stored_chunk_bytes, f"{where}: stored bytes"
        assert job.new_container_ids == old.new_container_ids, f"{where}: containers"
        for category in (f.name for f in fields(TimeBreakdown)):
            assert _close(
                getattr(job.breakdown, category), getattr(old.breakdown, category)
            ), f"{where}: breakdown.{category}"
        assert _close(job.elapsed_seconds, old.elapsed_seconds), f"{where}: elapsed"


@pytest.fixture
def base(rng) -> bytes:
    return random_bytes(rng, 256 * 1024)


def _counter(result, name: str) -> int:
    return sum(job.counters.get(name) for job in result["jobs"][1:])


class TestEveryWayARunEnds:
    def test_segment_close(self, base, monkeypatch):
        for ours in _run_both([base, base], SMALL_CONFIG, monkeypatch):
            latest = ours["jobs"][1]
            # Every chunk replayed from the record-0 seed on, in runs cut only
            # by the segment size: an unchanged version, committed as an alias.
            assert latest.counters.get("skip_success") == latest.recipe.chunk_count()
            assert len(latest.recipe.segments) >= 8
            assert latest.alias_of == 0

    def test_digest_mismatch_mid_run(self, base, monkeypatch):
        # Overwrite bytes well inside chunks: the predicted cuts still
        # hold (a cut depends on the window before it), the digests fail.
        edited = bytearray(base)
        for offset in range(20_000, len(base), 40_000):
            edited[offset : offset + 8] = bytes(8)
        for ours in _run_both([base, bytes(edited)], SMALL_CONFIG, monkeypatch):
            assert _counter(ours, "skip_fp_mismatch") >= 3

    def test_failed_cut_mid_run(self, base, rng, monkeypatch):
        # An insertion shifts every later byte: the next predicted cut fails.
        middle = len(base) // 2
        edited = base[:middle] + random_bytes(rng, 3000) + base[middle:]
        for ours in _run_both([base, edited], SMALL_CONFIG, monkeypatch):
            assert _counter(ours, "skip_fail") >= 1
            assert _counter(ours, "skip_success") > 20

    def test_end_of_data(self, base, monkeypatch):
        # Unchanged: the last run ends exactly at the end of the stream.
        # Truncated: the last prediction runs past it.
        for ours in _run_both([base, base, base[:-5000]], SMALL_CONFIG, monkeypatch):
            assert ours["jobs"][1].counters.get("skip_fail") == 0
            assert ours["jobs"][2].counters.get("skip_fail") >= 1

    def test_rewrite_container_member(self, base, monkeypatch):
        for ours in _run_both([base, base, base], SMALL_CONFIG, monkeypatch, rewrite_after=2):
            assert ours["jobs"][2].counters.get("rewritten_chunks") > 0
            assert ours["jobs"][2].counters.get("skip_success") > 0

    def test_superchunk_in_the_chain(self, base, rng, monkeypatch):
        versions = stable_versions(base, 4) + [mutate(rng, base, runs=1, run_bytes=2048), base]
        for ours in _run_both(versions, SMALL_CONFIG, monkeypatch):
            assert ours["jobs"][3].counters.get("superchunks_created") > 0
            assert _counter(ours, "superchunk_hits") > 0

    def test_uncached_successor_prefetches(self, base, monkeypatch):
        config = SMALL_CONFIG.with_overrides(prefetch_segment_span=1)
        for ours in _run_both([base, base], config, monkeypatch):
            # One span-1 prefetch per segment the replay walks into.
            latest = ours["jobs"][1]
            assert latest.counters.get("segments_prefetched") >= len(latest.recipe.segments) - 1

    def test_prefetch_failure_degrades_the_job(self, base, monkeypatch):
        config = SMALL_CONFIG.with_overrides(prefetch_segment_span=1)
        for ours in _run_both([base, base], config, monkeypatch, fail_prefetch=(1, 3)):
            latest = ours["jobs"][1]
            assert latest.degraded
            assert latest.counters.get("skip_success") > 0
            assert latest.counters.get("degraded_chunks") > 0


@pytest.mark.parametrize("chunker", ["fastcdc", "gear", "rabin", "fixed"])
def test_every_chunker(chunker, base, rng, monkeypatch):
    config = SMALL_CONFIG.with_overrides(chunker=chunker)
    versions = [base]
    for _ in range(4):
        versions.append(mutate(rng, versions[-1], runs=2, run_bytes=4096))
    _run_both(versions, config, monkeypatch)


EDIT = st.tuples(
    st.sampled_from(["overwrite", "insert", "delete"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=6000),
)


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    scripts=st.lists(st.lists(EDIT, max_size=4), min_size=1, max_size=3),
    chunk_merging=st.booleans(),
)
def test_random_edit_scripts_match_the_oracle(seed, scripts, chunk_merging):
    """Each script edits the previous version; every version is backed up."""
    rng = np.random.default_rng(seed)
    versions = [random_bytes(rng, 96 * 1024)]
    for script in scripts:
        data = bytearray(versions[-1])
        for kind, where, size in script:
            offset = int(where * len(data))
            if kind == "overwrite":
                data[offset : offset + size] = random_bytes(rng, len(data[offset : offset + size]))
            elif kind == "insert":
                data[offset:offset] = random_bytes(rng, size)
            else:
                del data[offset : offset + size]
        versions.append(bytes(data) or b"x")
    config = SMALL_CONFIG.with_overrides(chunk_merging=chunk_merging)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_both(versions, config, monkeypatch)


def test_every_chunk_is_fingerprinted_once(base, rng):
    """Incremental versions hash each recipe chunk's span exactly once —
    including a chunk whose digest broke a run — and nothing else."""
    config = SMALL_CONFIG.with_overrides(chunk_merging=False)
    storage = StorageLayer.create(ObjectStorageService(CostModel(), SimClock()))
    engine = RegisteringEngine(config, storage)
    hashed: list[tuple[int, int]] = []
    fingerprint = engine._fingerprint
    origin = 0

    def counted(chunk):
        address = np.frombuffer(chunk, dtype=np.uint8).ctypes.data
        hashed.append((address - origin, len(chunk)))
        return fingerprint(chunk)

    engine._fingerprint = counted
    edited = bytearray(base)
    edited[30_000:30_008] = bytes(8)  # a digest mismatch under a held cut
    versions = [base, bytes(edited), mutate(rng, bytes(edited), runs=2, run_bytes=4096)]
    engine.backup("f", versions[0])
    for data in versions[1:]:
        hashed.clear()
        origin = np.frombuffer(data, dtype=np.uint8).ctypes.data
        result = engine.backup("f", data)
        spans, position = [], 0
        for record in result.recipe.all_records():
            spans.append((position, record.size))
            position += record.size
        assert sorted(hashed) == spans
    assert result.counters.get("skip_success") > 0


def test_failed_superchunk_match_counts_its_first_chunk(base, rng):
    """Algorithm 1 failing still appends the firstChunk as a duplicate:
    every record is counted as exactly one of duplicate, local duplicate
    or unique, and the duplicate bytes are what the job did not store."""
    storage = StorageLayer.create(ObjectStorageService(CostModel(), SimClock()))
    engine = RegisteringEngine(SMALL_CONFIG.with_overrides(skip_chunking=False), storage)
    for _ in range(4):
        merged = engine.backup("f", base).recipe
    # Damage every superchunk just past its firstChunk.
    edited, position = bytearray(base), 0
    for record in merged.all_records():
        if record.is_superchunk:
            damage = position + record.first_size + 100
            edited[damage : damage + 4] = bytes(4)
        position += record.size
    result = engine.backup("f", bytes(edited))
    counters = result.counters
    assert counters.get("superchunk_miss") > 0
    assert counters.get("dup_chunks") + counters.get("unique_chunks") + counters.get(
        "local_duplicates"
    ) == counters.get("chunks")
    stored = result.stored_chunk_bytes - counters.get("superchunk_bytes_written")
    assert counters.get("dup_bytes") + stored == result.logical_bytes
