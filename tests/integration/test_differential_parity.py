"""Differential restore parity: every system, every version, byte-exact.

The benches compare SLIMSTORE against DDFS, SiLO, Sparse Indexing, HAR and
restic on throughput and space — comparisons that are only meaningful if
every system is actually a *backup* system, i.e. can hand back each stored
version byte-for-byte.  This suite runs the same seeded multi-version
workload through all six and cross-checks their restores against the
original payloads and against each other.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro import ReplicationPolicy, SlimStore
from repro.baselines import (
    DDFSSystem,
    HARDriver,
    ResticRepository,
    SiLOSystem,
    SparseIndexingSystem,
)
from repro.core.storage import StorageLayer
from repro.oss.object_store import ObjectStorageService
from tests.conftest import (
    SMALL_CONFIG,
    bucket_state,
    make_chaos_store,
    make_version_chain,
)

SYSTEMS = ["slimstore", "ddfs", "restic", "silo", "sparse_indexing", "har"]


class _Restic:
    """Adapter giving restic the same (path, version) surface."""

    def __init__(self) -> None:
        # Small chunks so the test payloads span many blobs and packs.
        self.repo = ResticRepository(ObjectStorageService(), chunk_avg=4096)
        self._snapshots: dict[str, list[str]] = {}

    def backup(self, path: str, data: bytes) -> None:
        result = self.repo.backup(path, data)
        self._snapshots.setdefault(path, []).append(result.snapshot_id)

    def restore(self, path: str, version: int) -> bytes:
        return self.repo.restore(self._snapshots[path][version]).data


class _SlimStore:
    def __init__(self) -> None:
        self.store = SlimStore(SMALL_CONFIG)

    def backup(self, path: str, data: bytes) -> None:
        self.store.backup(path, data)

    def restore(self, path: str, version: int) -> bytes:
        return self.store.restore(path, version).data


class _HAR:
    def __init__(self) -> None:
        storage = StorageLayer.create(ObjectStorageService())
        self.driver = HARDriver(SMALL_CONFIG, storage)

    def backup(self, path: str, data: bytes) -> None:
        self.driver.backup(path, data)

    def restore(self, path: str, version: int) -> bytes:
        return self.driver.restore(path, version)


def build_system(name: str):
    if name == "slimstore":
        return _SlimStore()
    if name == "ddfs":
        return DDFSSystem(ObjectStorageService(), SMALL_CONFIG)
    if name == "restic":
        return _Restic()
    if name == "silo":
        return SiLOSystem(ObjectStorageService(), SMALL_CONFIG)
    if name == "sparse_indexing":
        return SparseIndexingSystem(ObjectStorageService(), SMALL_CONFIG)
    if name == "har":
        return _HAR()
    raise ValueError(name)


@pytest.fixture(scope="module")
def workload():
    """Two files x four versions of seeded, mutation-linked payloads."""
    import numpy as np

    rng = np.random.default_rng(777)
    return {
        "db/accounts.tbl": make_version_chain(rng, versions=4, size=192 * 1024),
        "home/report.doc": make_version_chain(
            rng, versions=4, size=96 * 1024, runs=3, run_bytes=4 * 1024
        ),
    }


@pytest.fixture(scope="module")
def restored(workload):
    """Every system's restore of every (path, version), computed once."""
    outputs: dict[str, dict[tuple[str, int], bytes]] = {}
    for name in SYSTEMS:
        system = build_system(name)
        for path, versions in workload.items():
            for data in versions:
                system.backup(path, data)
        outputs[name] = {
            (path, version): system.restore(path, version)
            for path, versions in workload.items()
            for version in range(len(versions))
        }
    return outputs


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_version_restores_byte_exact(name, workload, restored):
    for path, versions in workload.items():
        for version, data in enumerate(versions):
            assert restored[name][(path, version)] == data, (
                f"{name}: {path}@v{version} diverged from the source payload"
            )


def test_all_systems_agree_with_each_other(workload, restored):
    """Pairwise parity: one shared oracle, not six independent ones."""
    reference = restored[SYSTEMS[0]]
    for name in SYSTEMS[1:]:
        assert restored[name] == reference, f"{name} != {SYSTEMS[0]}"


@pytest.mark.parametrize("name", ["ddfs", "silo", "sparse_indexing"])
def test_latest_version_is_the_default_restore(name, workload):
    system = build_system(name)
    path = "db/accounts.tbl"
    for data in workload[path]:
        system.backup(path, data)
    assert system.restore(path, None) == workload[path][-1]


@pytest.fixture(scope="module")
def diversity_workload():
    """Stable paths from the diversity generators, version-for-version.

    Src-Tree renames and churns files and R-Data deletes them, so the
    per-path version surface the six systems share only covers paths
    present in *every* version; each generator contributes its two
    first such paths at tiny scale.
    """
    from repro.workloads import make_generator

    streams: dict[str, list[bytes]] = {}
    shapes = {
        "vmfleet": dict(image_count=2, image_bytes=64 * 1024),
        "srctree": dict(file_count=12),
        "maillog": dict(mailbox_count=2, initial_records=8),
    }
    for name, shape in shapes.items():
        generator = make_generator(name, seed=555, version_count=3, **shape)
        versions = generator.versions()
        stable = sorted(
            set.intersection(*({f.path for f in v.files} for v in versions))
        )
        for path in stable[:2]:
            streams[path] = [
                next(f.data for f in v.files if f.path == path)
                for v in versions
            ]
    assert len(streams) == 6
    return streams


@pytest.fixture(scope="module")
def diversity_restored(diversity_workload):
    outputs: dict[str, dict[tuple[str, int], bytes]] = {}
    for name in SYSTEMS:
        system = build_system(name)
        for path, versions in diversity_workload.items():
            for data in versions:
                system.backup(path, data)
        outputs[name] = {
            (path, version): system.restore(path, version)
            for path, versions in diversity_workload.items()
            for version in range(len(versions))
        }
    return outputs


@pytest.mark.parametrize("name", SYSTEMS)
def test_diversity_workloads_restore_byte_exact(
    name, diversity_workload, diversity_restored
):
    for path, versions in diversity_workload.items():
        for version, data in enumerate(versions):
            assert diversity_restored[name][(path, version)] == data, (
                f"{name}: {path}@v{version} diverged from the source payload"
            )


def test_diversity_workloads_all_systems_agree(diversity_restored):
    reference = diversity_restored[SYSTEMS[0]]
    for name in SYSTEMS[1:]:
        assert diversity_restored[name] == reference, f"{name} != {SYSTEMS[0]}"


# ---------------------------------------------------------------------------
# Serial vs parallel SLIMSTORE parity
# ---------------------------------------------------------------------------

#: Worker counts: one worker (pooled fingerprints, no scan fan-out), and
#: scans split two and four ways.
PARALLEL_WORKERS = [1, 2, 4]


def _parity_workload(seed: int) -> dict[str, list[bytes]]:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "db/accounts.tbl": make_version_chain(rng, versions=3, size=128 * 1024),
        "home/report.doc": make_version_chain(
            rng, versions=3, size=64 * 1024, runs=3, run_bytes=4 * 1024
        ),
    }


def _run_slimstore(
    workload: dict[str, list[bytes]],
    workers: int,
    *,
    chaos_seed: int | None = None,
    config=SMALL_CONFIG,
    **rates,
) -> dict:
    """Ingest + restore the workload; return everything a run leaves behind.

    Besides the bucket bytes and the restored payloads that is the
    endpoint's cumulative ``OssStats`` (request counts, bytes, virtual
    read/write seconds, injected faults, retries) and every job's virtual
    time accounting — the backup ``TimeBreakdown``, the G-node passes'
    breakdowns, the durability retier
    report and each restore's breakdown.
    """
    config = config.with_overrides(workers=workers)
    if chaos_seed is None:
        store = SlimStore(config)
    else:
        store, _faults = make_chaos_store(seed=chaos_seed, config=config, **rates)
    try:
        jobs = []
        for path, versions in workload.items():
            for data in versions:
                report = store.backup(path, data)
                jobs.append(
                    (
                        report.result.breakdown,
                        report.reverse_dedup and report.reverse_dedup.breakdown,
                        report.compaction and report.compaction.breakdown,
                        report.retier,
                    )
                )
        restores = {}
        for path, versions in workload.items():
            for version in range(len(versions)):
                result = store.restore(path, version)
                restores[(path, version)] = result.data
                jobs.append(result.breakdown)
        return {
            "restores": restores,
            "bucket_state": bucket_state(store.oss),
            "oss_stats": store.oss.stats,
            "jobs": jobs,
        }
    finally:
        store.close()


def _assert_same_run(serial: dict, parallel: dict, workload, label: str) -> None:
    for aspect in serial:
        assert parallel[aspect] == serial[aspect], f"{label}: {aspect} diverged"
    for path, versions in workload.items():
        for version, data in enumerate(versions):
            assert serial["restores"][(path, version)] == data


class TestSerialVsParallelParity:
    """``workers=N`` only fans the scan and the fingerprints out; every OSS
    request is issued by the caller's thread in the serial order.  So a
    parallel run must be indistinguishable from the serial one — repository
    bytes, restored bytes, the endpoint's request/byte/virtual-second
    counters and every job's time breakdown — at every worker count, with
    and without injected faults or the durability tier."""

    @pytest.fixture(autouse=True)
    def _kib_sized_shares(self, monkeypatch):
        """The workload's files are 64-128 KiB; under the product's 4 Mi
        share floor no scan here would ever leave the caller's thread."""
        monkeypatch.setattr("repro.exec.engine._MIN_SHARE", 1 << 14)

    @pytest.mark.parametrize("workers", PARALLEL_WORKERS)
    @pytest.mark.parametrize("seed", [101, 202])
    def test_parallel_repository_is_byte_identical(self, seed, workers):
        workload = _parity_workload(seed)
        serial = _run_slimstore(workload, 0)
        parallel = _run_slimstore(workload, workers)
        _assert_same_run(serial, parallel, workload, f"workers={workers}")

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "rates",
        [
            dict(get_error_rate=0.05, put_error_rate=0.05),
            dict(put_error_rate=0.03, torn_write_rate=0.05),
        ],
        ids=["transient-errors", "torn-writes"],
    )
    def test_parallel_parity_under_chaos(self, workers, rates):
        """Same fault seed, serial vs parallel: the fault policy draws from
        its seeded RNG once per request, and both runs issue the same
        requests in the same order from one thread, so the faults land on
        the same operations and the retries, the degraded decisions and
        the repositories come out identical."""
        workload = _parity_workload(303)
        serial = _run_slimstore(workload, 0, chaos_seed=4040, **rates)
        parallel = _run_slimstore(workload, workers, chaos_seed=4040, **rates)
        assert serial["oss_stats"].faults_injected > 0
        _assert_same_run(serial, parallel, workload, f"workers={workers} chaos")

    def test_parallel_parity_with_the_durability_tier(self):
        """Replica/parity placement and journaled tier changes follow the
        container write order, which no longer depends on ``workers``."""
        workload = _parity_workload(505)
        config = SMALL_CONFIG.with_overrides(durability=ReplicationPolicy())
        serial = _run_slimstore(workload, 0, config=config)
        parallel = _run_slimstore(workload, 2, config=config)
        assert any(
            key.startswith("durability/") for key in serial["bucket_state"]["slimstore"]
        ), "the tier never replicated or erasure-coded a container"
        _assert_same_run(serial, parallel, workload, "workers=2 durability")

    def test_parallel_parity_across_a_fold(self, monkeypatch):
        """Six commits at ``FOLD_EVERY`` 2: the catalog's log folds three
        times (checkpoint PUT + batched DELETE), on the caller's thread and
        at the same request positions whatever ``workers`` is."""
        monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 2)
        workload = _parity_workload(606)
        serial = _run_slimstore(workload, 0)
        parallel = _run_slimstore(workload, 2)
        bucket = serial["bucket_state"]["slimstore"]
        assert "catalog/state.json" in bucket
        assert not [key for key in bucket if key.startswith("similar/")]
        assert json.loads(bucket["catalog/state.json"])["log_next"] >= 4
        _assert_same_run(serial, parallel, workload, "workers=2 across folds")

    def test_parallel_blake2b_repository_is_byte_identical(self):
        """Fingerprint algorithm and worker count compose: a blake2b repo
        built in parallel equals a blake2b repo built serially."""
        workload = _parity_workload(404)
        base = SMALL_CONFIG.with_overrides(fingerprint_algo="blake2b")
        serial = SlimStore(base.with_overrides(workers=0))
        parallel = SlimStore(base.with_overrides(workers=2))
        try:
            for store in (serial, parallel):
                for path, versions in workload.items():
                    for data in versions:
                        store.backup(path, data)
            assert bucket_state(parallel.oss) == bucket_state(serial.oss)
            for path, versions in workload.items():
                for version, data in enumerate(versions):
                    assert parallel.restore(path, version).data == data
        finally:
            serial.close()
            parallel.close()


class TestDeferredDrainParity:
    """The inline G-node pass and a deferred one are one pass on two
    schedules: backing up with ``run_gnode=False`` and draining after every
    call builds the inline repository.  Only the catalog's records differ
    (they carry the pending marks and the drains' clears)."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_deferred_drain_equals_inline(self, seed, workers, monkeypatch):
        monkeypatch.setattr("repro.exec.engine._MIN_SHARE", 1 << 14)
        workload = _parity_workload(seed)
        config = SMALL_CONFIG.with_overrides(workers=workers)
        runs = []
        for deferred in (False, True):
            store = SlimStore(config)
            try:
                for path, versions in workload.items():
                    for data in versions:
                        store.backup(path, data, run_gnode=not deferred)
                        if deferred:
                            store.drain()
                assert store.pending_versions() == []
                state = {
                    bucket: {
                        key: blob
                        for key, blob in objects.items()
                        if not key.startswith("catalog/")
                    }
                    for bucket, objects in bucket_state(store.oss).items()
                }
                restores = {
                    (path, version): store.restore(path, version).data
                    for path, versions in workload.items()
                    for version in range(len(versions))
                }
                runs.append((state, restores, store.space_report()))
            finally:
                store.close()
        inline, deferred = runs
        assert deferred[0] == inline[0]
        assert deferred[1] == inline[1]
        assert deferred[2] == inline[2]
        for path, versions in workload.items():
            for version, data in enumerate(versions):
                assert inline[1][(path, version)] == data


# ---------------------------------------------------------------------------
# Lazy boundary cursor vs the eager whole-file boundary set
# ---------------------------------------------------------------------------


def _eager_boundaries(chunker, data):
    """What ``BackupEngine.backup`` built before the cursor existed."""
    boundary_set = chunker.boundaries(data)
    boundary_set.bytes_scanned = len(data)
    return boundary_set


def _run_jobs(workload, config, *, outage_before=(), outage_during=()) -> dict:
    """Like :func:`_run_slimstore`, plus every backup's counters and flags.

    ``outage_before`` lists job ordinals whose backup runs with every GET
    failing (the dedup base is unreachable from the start: a degraded-mode
    job); for those in ``outage_during`` the GETs start failing at the
    job's second segment-recipe prefetch (the base is lost mid-stream).
    """
    from repro.core.recipe import RecipeHandle

    store, faults = make_chaos_store(seed=1, config=config)
    fetch = RecipeHandle.get_segment_range
    prefetches = 0

    def fetch_until_outage(handle, ordinal, span):
        nonlocal prefetches
        prefetches += 1
        if prefetches == 2:
            faults.outage({"get"})
        return fetch(handle, ordinal, span)

    try:
        jobs = []
        ordinal = 0
        for path, versions in workload.items():
            for data in versions:
                if ordinal in outage_before:
                    faults.outage({"get"})
                prefetches = 0
                with mock.patch.object(
                    RecipeHandle,
                    "get_segment_range",
                    fetch_until_outage if ordinal in outage_during else fetch,
                ):
                    report = store.backup(path, data)
                faults.revive()
                ordinal += 1
                counters = dict(report.result.counters.counts)
                scanned = counters.pop("bytes_scanned")
                jobs.append(
                    {
                        "breakdown": report.result.breakdown,
                        "counters": counters,
                        "degraded": report.result.degraded,
                        "recipe": report.result.recipe,
                        "scanned": scanned,
                    }
                )
        restores = {
            (path, version): store.restore(path, version).data
            for path, versions in workload.items()
            for version in range(len(versions))
        }
        return {
            "restores": restores,
            "bucket_state": bucket_state(store.oss),
            "oss_stats": store.oss.stats,
            "jobs": jobs,
        }
    finally:
        store.close()


def _assert_cursor_equals_eager(workload, config, monkeypatch, **kwargs) -> tuple[dict, dict]:
    lazy = _run_jobs(workload, config, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.dedup.BoundaryCursor", _eager_boundaries)
        eager = _run_jobs(workload, config, **kwargs)
    for aspect in ("restores", "bucket_state", "oss_stats"):
        assert lazy[aspect] == eager[aspect], f"{aspect} diverged"
    for ordinal, (ours, theirs) in enumerate(zip(lazy["jobs"], eager["jobs"], strict=True)):
        for aspect in ("breakdown", "counters", "degraded", "recipe"):
            assert ours[aspect] == theirs[aspect], f"job {ordinal}: {aspect} diverged"
    for path, versions in workload.items():
        for version, data in enumerate(versions):
            assert lazy["restores"][(path, version)] == data
    return lazy, eager


class TestCursorVsEagerParity:
    """``BackupEngine.backup`` cuts through a lazy ``BoundaryCursor``; the
    whole-file ``chunker.boundaries(data)`` it replaced must be
    indistinguishable from it in everything a job leaves behind — the
    repository bytes, the restores, the endpoint counters, each job's
    recipe, virtual-time breakdown and counters — and differ
    only in how many bytes were handed to the scan kernel."""

    @pytest.mark.parametrize("chunk_merging", [False, True], ids=["nomerge", "merge"])
    @pytest.mark.parametrize("skip_chunking", [False, True], ids=["noskip", "skip"])
    @pytest.mark.parametrize("chunker", ["gear", "fastcdc", "rabin", "fixed"])
    def test_every_chunker_and_acceleration(
        self, chunker, skip_chunking, chunk_merging, monkeypatch
    ):
        workload = _parity_workload(606)
        config = SMALL_CONFIG.with_overrides(
            chunker=chunker, skip_chunking=skip_chunking, chunk_merging=chunk_merging
        )
        lazy, eager = _assert_cursor_equals_eager(workload, config, monkeypatch)
        counters = [job["counters"] for job in lazy["jobs"]]
        if skip_chunking and chunker != "fixed":
            # Versions 1 and 2 of both files replay history...
            assert sum(c.get("skip_success", 0) for c in counters) >= 30
            assert sum(c.get("skip_fail", 0) for c in counters) >= 1
            # ...and hand the kernel a fraction of what the eager set did.
            assert sum(j["scanned"] for j in lazy["jobs"]) < 0.75 * sum(
                j["scanned"] for j in eager["jobs"]
            )
        if chunker == "fixed":
            assert all(job["scanned"] == 0 for job in lazy["jobs"])

    def test_degraded_jobs(self, monkeypatch):
        """Jobs whose dedup base is unreachable from the start (every GET
        fails), and jobs that lose it mid-stream — after skip chunking has
        already replayed part of the previous recipe — on both recipe read
        paths: ranged (the whole-read cap at 0), as a recipe above the cap
        is read, and whole."""
        workload = _parity_workload(707)
        config = SMALL_CONFIG.with_overrides(prefetch_segment_span=1)
        outages = {"outage_before": {1, 4}, "outage_during": {2, 5}}
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", 0)
            lazy, _ = _assert_cursor_equals_eager(workload, config, patch, **outages)
        assert [job["degraded"] for job in lazy["jobs"]] == [
            False, True, True, False, True, True,
        ]  # fmt: skip
        for ordinal in (1, 4):
            assert lazy["jobs"][ordinal]["counters"].get("dup_chunks", 0) == 0
        for ordinal in (2, 5):
            counters = lazy["jobs"][ordinal]["counters"]
            assert counters["skip_success"] > 0 and counters["degraded_chunks"] > 0

        lazy, _ = _assert_cursor_equals_eager(workload, config, monkeypatch, **outages)
        # A base read whole can only be lost at open: the outage that starts
        # at the second prefetch of jobs 2 and 5 meets segments already in
        # memory, so those jobs deduplicate every chunk as usual.
        assert [job["degraded"] for job in lazy["jobs"]] == [
            False, True, False, False, True, False,
        ]  # fmt: skip
        for ordinal in (1, 4):
            assert lazy["jobs"][ordinal]["counters"].get("dup_chunks", 0) == 0
        for ordinal in (2, 5):
            counters = lazy["jobs"][ordinal]["counters"]
            assert counters["skip_success"] > 0 and "degraded_chunks" not in counters

    def test_workers_keep_the_fan_out_for_a_first_version_only(self, monkeypatch):
        """``workers=2``: a path's first version has no history to skip by
        and keeps ``chunk_and_fingerprint``; later versions use the cursor."""
        monkeypatch.setattr("repro.exec.engine._MIN_SHARE", 1 << 14)
        from repro.exec.engine import ParallelExecutor

        fanned_out = []
        original = ParallelExecutor.chunk_and_fingerprint

        def recording(self, chunker, data, algo="sha1"):
            fanned_out.append(len(data))
            return original(self, chunker, data, algo)

        monkeypatch.setattr(ParallelExecutor, "chunk_and_fingerprint", recording)
        workload = _parity_workload(808)
        config = SMALL_CONFIG.with_overrides(workers=2)
        lazy, eager = _assert_cursor_equals_eager(workload, config, monkeypatch)
        first_versions = [len(versions[0]) for versions in workload.values()]
        assert fanned_out == first_versions * 2  # the lazy run, then the eager run
        scanned = [job["scanned"] for job in lazy["jobs"]]
        assert scanned[0] == first_versions[0] and scanned[3] == first_versions[1]
        assert all(s < 0.6 * first_versions[0] for s in scanned[1:3])
        serial, _ = _assert_cursor_equals_eager(
            workload, SMALL_CONFIG.with_overrides(workers=0), monkeypatch
        )
        for aspect in ("restores", "bucket_state", "oss_stats"):
            assert lazy[aspect] == serial[aspect], f"workers=2 vs serial: {aspect}"
