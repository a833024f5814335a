"""The crash matrix: kill the node at *every* OSS write, then recover.

The headline crash-consistency harness.  For each scenario it first runs
the job unimpeded against a probe store to count its OSS writes, then
replays the job from the identical base state once per write index with
``FaultPolicy.crash_after_writes(i)`` armed — the node dies exactly at
write *i* — reattaches a fresh store (running attach-time recovery) and
asserts the crash-consistency contract:

* every committed version restores byte-identically;
* no version is partially visible (catalog, recipe and the similar-file
  view agree on exactly the committed set);
* zero orphaned bytes: every live container is referenced by a committed
  version, the journal is empty, no torn pairs survive, and no metadata-log
  record an interrupted fold left behind outlives the reattach.

Each matrix runs twice: once as is (a handful of commits never reaches a
fold of the catalog's delta log), and once with ``FOLD_EVERY`` at 2 from a
base whose logs were left un-folded, so the swept write stream also crosses
the fold — checkpoint PUT, batched DELETE — at the job's own commit points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.recovery import RecoveryManager
from repro.core.system import SlimStore
from repro.errors import SimulatedCrashError, VersionNotFoundError
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, bucket_state, mutate, random_bytes

pytestmark = pytest.mark.slow

#: Deep-copy of every bucket (the fork point of the matrix).
clone_state = bucket_state


def attach(state: dict[str, dict[str, bytes]] | None = None,
           config=SMALL_CONFIG, fold: bool = True) -> SlimStore:
    """A fresh SlimStore over a fresh OSS seeded with ``state``.

    ``fold=False`` attaches the way ``repro fsck`` does (the base states are
    clean, so all it skips is the attach-time fold): the metadata logs keep
    their tails and the next commit may find a fold due."""
    oss = ObjectStorageService()
    store = SlimStore(config, oss)
    if state is not None:
        for bucket, objects in state.items():
            oss.create_bucket(bucket)
            oss._backend(bucket)._objects = dict(objects)
        store.recover(run_recovery=fold)
    return store


def reattach(store: SlimStore) -> SlimStore:
    """Attach a new node to the (possibly crashed) store's OSS state."""
    store.oss.set_fault_policy(None)
    survivor = SlimStore(store.config, store.oss)
    survivor.recover()
    return survivor


def count_writes(base_state, action, config=SMALL_CONFIG, fold: bool = True) -> int:
    """Probe run: how many OSS writes does ``action`` perform?"""
    probe = attach(base_state, config, fold)
    policy = FaultPolicy()
    probe.oss.set_fault_policy(policy)
    action(probe)
    probe.oss.set_fault_policy(None)
    return policy.writes_seen


def run_matrix(base_state, action, verify, config=SMALL_CONFIG, fold: bool = True) -> int:
    """Crash ``action`` at every write index; recover; verify. Returns N."""
    total_writes = count_writes(base_state, action, config, fold)
    assert total_writes > 0
    for crash_at in range(total_writes):
        store = attach(base_state, config, fold)
        policy = FaultPolicy()
        policy.crash_after_writes(crash_at)
        store.oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            action(store)
        survivor = reattach(store)
        verify(survivor, crash_at)
    return total_writes


CHECKPOINTS = ("catalog/state.json",)


def folds_crossed(base_state, action) -> set[str]:
    """Checkpoints ``action`` rewrites when run from the un-folded base."""
    probe = attach(base_state, fold=False)
    before = bucket_state(probe.oss)["slimstore"]
    action(probe)
    after = bucket_state(probe.oss)["slimstore"]
    return {key for key in CHECKPOINTS if after.get(key) != before.get(key)}


def assert_zero_debris(survivor: SlimStore) -> None:
    """Journal empty, no torn pairs, no orphaned bytes, index coherent, no
    metadata-log record left below its checkpoint's mark."""
    inspection = RecoveryManager(survivor).inspect()
    assert inspection.clean, f"repository dirty after recovery: {inspection}"
    assert not inspection.log_debris
    # ... judged against the bucket, not only the log's own bookkeeping:
    # every record object on OSS belongs to a live (un-folded) tail, and
    # the similar-file index, a view of the catalog, owns no object.
    assert (
        survivor.oss.peek_keys(survivor.bucket, "catalog/log/")
        == survivor.catalog_log.record_keys()
    )
    assert not survivor.oss.peek_keys(survivor.bucket, "similar/")
    live = set(survivor.storage.containers.container_ids())
    referenced = survivor.catalog.live_container_ids()
    orphans = live - referenced
    assert not orphans, f"orphaned containers survived recovery: {orphans}"
    recovery = survivor.last_recovery
    if recovery is not None:
        assert not recovery.torn_damaged


def assert_exactly_visible(survivor: SlimStore, path: str,
                           versions: list[int]) -> None:
    """The committed version set is visible atomically everywhere."""
    assert survivor.versions(path) == versions
    latest = survivor.storage.similar_index.latest_version(path)
    assert latest == (versions[-1] if versions else None)
    next_version = (versions[-1] + 1) if versions else 0
    with pytest.raises(VersionNotFoundError):
        survivor.storage.recipes.get_recipe(path, next_version)


def compacting_chain() -> tuple[dict, list[bytes], bytes]:
    """Age a version chain of ``f`` until the *next* backup's maintenance
    pass provably compacts: (the chain's state, its payloads, the payload
    whose backup compacts)."""
    rng = np.random.default_rng(31337)
    store = attach()
    data = random_bytes(rng, 256 * 1024)
    store.backup("f", data)
    payloads = [data]
    for _ in range(12):
        data = mutate(rng, data, runs=4, run_bytes=16 * 1024)
        store.close()  # publish the last inline pass's clear
        state = clone_state(store.oss)
        probe = attach(state)
        report = probe.backup("f", data)
        if report.compaction is not None and report.compaction.sparse_containers:
            return state, list(payloads), data
        store.backup("f", data)
        payloads.append(data)
    pytest.fail("version chain never aged into sparse compaction")


def write_keys(base_state, action, fold: bool = True) -> list[tuple[str, str]]:
    """Probe run: the (verb, key) of every write ``action`` performs."""
    writes = []

    class Spy(FaultPolicy):
        def before_request(self, op, bucket, key):
            if op in self.WRITE_OPS:
                writes.append((op, key))
            return super().before_request(op, bucket, key)

    probe = attach(base_state, fold=fold)
    probe.oss.set_fault_policy(Spy())
    action(probe)
    return writes


def backup_outcomes(base_state, action, path: str, version: int,
                    fold: bool = True) -> list[list[tuple[str, int, str]]]:
    """Crash index → the ``backup`` resolution recovery must report for
    ``action``'s backup of ``version``: none while the intent has not
    landed (write 0) or is already closed, ``discarded`` up to and
    including a crash on the commit record, ``committed`` after it."""
    writes = write_keys(base_state, action, fold)
    assert writes[0][0] == "put" and writes[0][1].startswith("journal/")
    intent = writes[0][1]
    commit = next(i for i, (_, key) in enumerate(writes) if key.startswith("catalog/log/"))
    close = next(i for i, write in enumerate(writes) if write == ("delete", intent))
    return [
        []
        if crash_at == 0 or crash_at > close
        else [(path, version, "discarded" if crash_at <= commit else "committed")]
        for crash_at in range(len(writes))
    ]


def resolutions(survivor: SlimStore) -> list[tuple[str, int, str]]:
    recovery = survivor.last_recovery
    return [] if recovery is None else recovery.backup_resolutions


class TestBackupCrashMatrix:
    """Crash at every write of a full backup + reverse dedup + compaction."""

    @pytest.fixture(scope="class")
    def base(self):
        """The matrix sweeps a backup whose write stream spans online
        dedup, the commit, reverse dedup and the full compaction schedule."""
        return compacting_chain()

    def test_probe_run_exercises_compaction(self, base):
        base_state, _payloads, next_payload = base
        probe = attach(base_state)
        report = probe.backup("f", next_payload)
        assert report.compaction is not None
        assert report.compaction.sparse_containers
        assert report.compaction.chunks_moved > 0
        assert report.reverse_dedup is not None
        assert_zero_debris(probe)

    def test_crash_at_every_write_index(self, base):
        self._sweep(base)

    def test_crash_at_every_write_index_across_folds(self, base, monkeypatch):
        monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 2)
        base_state, _payloads, next_payload = base
        assert folds_crossed(
            base_state, lambda store: store.backup("f", next_payload)
        ) == set(CHECKPOINTS)
        self._sweep(base, fold=False)

    def _sweep(self, base, fold: bool = True):
        base_state, payloads, next_payload = base
        committed = list(range(len(payloads)))
        extended = committed + [len(payloads)]
        contents = payloads + [next_payload]

        def action(store: SlimStore) -> None:
            store.backup("f", next_payload)

        outcomes = backup_outcomes(base_state, action, "f", len(payloads), fold)

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in (committed, extended), (crash_at, versions)
            assert_exactly_visible(survivor, "f", versions)
            # A backup is reported committed exactly when its commit
            # record landed.
            assert resolutions(survivor) == outcomes[crash_at], crash_at
            for version in versions:
                assert survivor.restore("f", version).data == contents[version], (
                    crash_at,
                    version,
                )
            assert_zero_debris(survivor)

        total = run_matrix(base_state, action, verify, fold=fold)
        # The matrix must be wide enough to cross the backup commit, the
        # reverse-dedup pass and the compaction schedule.
        assert total > 20

    @staticmethod
    def _catalog_writes(base) -> tuple[int, int, int]:
        """Probe the backup: the write indices of its commit record and of
        the record carrying its clear (the compaction fix-up), and its
        write count."""
        base_state, _payloads, next_payload = base

        def action(store: SlimStore) -> None:
            assert store.backup("f", next_payload).compaction.sparse_containers

        keys = [key for _, key in write_keys(base_state, action)]
        commit, clear = [i for i, key in enumerate(keys) if key.startswith("catalog/log/")]
        assert commit < clear < len(keys) - 1
        return commit, clear, len(keys)

    @staticmethod
    def _crash_backup(base, crash_at: int) -> SlimStore:
        base_state, _payloads, next_payload = base
        store = attach(base_state)
        policy = FaultPolicy()
        policy.crash_after_writes(crash_at)
        store.oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.backup("f", next_payload)
        return reattach(store)

    def test_crash_between_commit_and_clear_leaves_the_version_pending(self, base):
        """Kill the backup at every write after its commit record, through
        the end of its inline drain: the version is committed, and pending
        until the record carrying its clear lands.  One drain finishes it,
        and every version restores."""
        _base_state, payloads, next_payload = base
        contents = payloads + [next_payload]
        commit, clear, total = self._catalog_writes(base)
        for crash_at in range(commit + 1, total):
            survivor = self._crash_backup(base, crash_at)
            assert survivor.versions("f") == list(range(len(contents))), crash_at
            expected = [("f", len(payloads))] if crash_at <= clear else []
            assert survivor.pending_versions() == expected, crash_at
            assert_zero_debris(survivor)
            survivor.drain()
            assert survivor.pending_versions() == [], crash_at
            assert_zero_debris(survivor)
            for version, payload in enumerate(contents):
                assert survivor.restore("f", version).data == payload, (crash_at, version)

    def test_redraining_a_drained_version_writes_nothing(self, base):
        """Die on the record carrying the clear, after the whole pass
        landed: draining the reattached, still pending version again —
        reverse dedup over its containers, compaction of its compacted
        newest recipe — writes only the clear.  Running the pass once more
        writes nothing at all."""
        _base_state, payloads, _next_payload = base
        key = ("f", len(payloads))
        _commit, clear, _total = self._catalog_writes(base)
        survivor = self._crash_backup(base, clear)
        assert survivor.pending_versions() == [key]
        new_containers = survivor.catalog.pending_containers(*key)
        before = clone_state(survivor.oss)
        policy = FaultPolicy()
        survivor.oss.set_fault_policy(policy)
        survivor.drain()
        assert policy.writes_seen == 1  # the catalog record clearing it
        assert survivor.pending_versions() == []
        after = clone_state(survivor.oss)
        assert {
            bucket: {k: v for k, v in objects.items() if not k.startswith("catalog/")}
            for bucket, objects in after.items()
        } == {
            bucket: {k: v for k, v in objects.items() if not k.startswith("catalog/")}
            for bucket, objects in before.items()
        }
        recipe = survivor.storage.recipes.get_recipe(*key)
        survivor._drain({key: (new_containers, recipe)})
        assert policy.writes_seen == 1
        assert clone_state(survivor.oss) == after

    def test_a_pending_versions_container_collected_by_a_later_pass(self):
        """The process dies after ``g``'s inline pass but before its clear
        lands, so ``g`` is pending although its container already owns its
        chunk.  The next process backs up ``f`` into the same bytes; its
        inline pass deletes ``g``'s copy and collects the container.  The
        drain of ``g`` then skips the container that is gone."""
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        shared = random_bytes(np.random.default_rng(1), 4096)
        first = random_bytes(np.random.default_rng(2), 4096)
        store.backup("f", first)
        store.backup("g", shared)
        (g_container,) = store.catalog.references("g", 0)
        survivor = reattach(store)
        assert survivor.pending_versions() == [("g", 0)]
        assert survivor.backup("f", shared).reverse_dedup.duplicates_removed == 1
        assert not survivor.storage.containers.exists(g_container)
        survivor.drain()
        assert survivor.pending_versions() == []
        assert_zero_debris(survivor)
        assert survivor.restore("f", 0).data == first
        assert survivor.restore("f", 1).data == shared
        assert survivor.restore("g", 0).data == shared


class TestDrainCrashMatrix:
    """Crash at every write of a drain over two pending versions: the
    reverse-dedup pass over both, the newer one's compaction, the one
    catalog record that clears them and the intent closes after it."""

    @pytest.fixture(scope="class")
    def base(self):
        """Age a version chain until a drain over its next two versions,
        both backed up with ``run_gnode=False``, provably compacts the newer."""
        rng = np.random.default_rng(4711)
        store = attach()
        data = random_bytes(rng, 256 * 1024)
        store.backup("f", data)
        payloads = [data]
        for _ in range(12):
            pending = [mutate(rng, data, runs=4, run_bytes=16 * 1024)]
            pending.append(mutate(rng, pending[0], runs=4, run_bytes=16 * 1024))
            # Publish the inline pass's clear (it would ride the next commit),
            # so only the two deferred versions are pending in the clone.
            store.close()
            probe = attach(clone_state(store.oss))
            for payload in pending:
                probe.backup("f", payload, run_gnode=False)
            state = clone_state(probe.oss)
            compactions = []
            compact = probe.gnode.compact_sparse

            def spy(*args, _compact=compact, _log=compactions):
                _log.append(_compact(*args))
                return _log[-1]

            probe.gnode.compact_sparse = spy
            probe.drain()
            if any(report.sparse_containers for report in compactions):
                return state, payloads + pending
            data = pending[0]
            store.backup("f", data)
            payloads.append(data)
        pytest.fail("version chain never aged into a compacting drain")

    def test_crash_at_every_write_index(self, base):
        base_state, payloads = base
        pending = [("f", len(payloads) - 2), ("f", len(payloads) - 1)]

        def action(store: SlimStore) -> None:
            assert store.pending_versions() == pending
            store.drain()

        def verify(survivor: SlimStore, crash_at: int) -> None:
            assert survivor.versions("f") == list(range(len(payloads)))
            assert set(survivor.pending_versions()) <= set(pending), crash_at
            assert_zero_debris(survivor)
            survivor.drain()
            assert survivor.pending_versions() == [], crash_at
            assert_zero_debris(survivor)
            for version, payload in enumerate(payloads):
                assert survivor.restore("f", version).data == payload, (
                    crash_at,
                    version,
                )

        total = run_matrix(base_state, action, verify)
        # Wide enough to cross the pass, both compactions and the record.
        assert total > 10


class TestDeleteCrashMatrix:
    """Crash at every write of a version deletion (sweep + journal)."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(24680)
        chain = [random_bytes(rng, 96 * 1024)]
        data = bytearray(chain[0])
        data[10_000:14_000] = random_bytes(rng, 4_000)
        chain.append(bytes(data))
        data = bytearray(chain[1])
        data[50_000:58_000] = random_bytes(rng, 8_000)
        chain.append(bytes(data))
        store = attach()
        for payload in chain:
            store.backup("f", payload)
        return clone_state(store.oss), chain

    def test_crash_at_every_write_index(self, base):
        self._sweep(base)

    def test_crash_at_every_write_index_across_folds(self, base, monkeypatch):
        """The catalog fold lands at the delete's own commit point."""
        monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 2)
        assert folds_crossed(
            base[0], lambda store: store.delete_version("f", 0)
        ) == {"catalog/state.json"}
        self._sweep(base, fold=False)

    def _sweep(self, base, fold: bool = True):
        base_state, chain = base
        # Every fingerprint of version 0: a superset of its representatives.
        deleted = [
            record.fp
            for record in attach(base_state).storage.recipes.get_recipe("f", 0).all_records()
        ]

        def action(store: SlimStore) -> None:
            store.delete_version("f", 0)

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in ([0, 1, 2], [1, 2]), (crash_at, versions)
            assert_exactly_visible(survivor, "f", versions)
            similar = survivor.storage.similar_index
            if versions == [1, 2]:
                assert similar.find_similar(deleted) != ("f", 0), crash_at
            for version in versions:
                assert survivor.restore("f", version).data == chain[version]
            assert_zero_debris(survivor)
            # Whatever state the crash left, the delete (or its replay)
            # can proceed afterwards and the survivors stay intact.
            if versions == [0, 1, 2]:
                survivor.delete_version("f", 0)
            assert similar.find_similar(deleted) != ("f", 0), crash_at
            for version in (1, 2):
                assert survivor.restore("f", version).data == chain[version]

        run_matrix(base_state, action, verify, fold=fold)


class TestSnapshotCrashMatrix:
    """Crash at every write of a two-file snapshot run (gnode off: the
    maintenance writes have their own matrix above)."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(13579)
        files = {
            "vol/a": random_bytes(rng, 48 * 1024),
            "vol/b": random_bytes(rng, 48 * 1024),
        }
        store = attach()
        return clone_state(store.oss), files

    def test_crash_at_every_write_index(self, base):
        self._sweep(base)

    def test_crash_at_every_write_index_across_folds(self, base, monkeypatch):
        """Two members: the second one's commit finds a fold due."""
        monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 2)
        base_state, files = base
        assert folds_crossed(
            base_state, lambda store: store.backup_snapshot(files, run_gnode=False)
        ) == set(CHECKPOINTS)
        self._sweep(base, fold=False)

    def _sweep(self, base, fold: bool = True):
        base_state, files = base

        def action(store: SlimStore) -> None:
            store.backup_snapshot(files, run_gnode=False)

        def verify(survivor: SlimStore, crash_at: int) -> None:
            for path, payload in files.items():
                versions = survivor.versions(path)
                assert versions in ([], [0]), (crash_at, path)
                assert_exactly_visible(survivor, path, versions)
                if versions:
                    assert survivor.restore(path, 0).data == payload
            # The run lists exactly its committed members (each joined the
            # run in its own commit record), and they restore.
            committed = {path: 0 for path in files if survivor.versions(path) == [0]}
            published = set(survivor.snapshots.list_ids())
            assert published == ({"00000000"} if committed else set()), crash_at
            for snapshot_id in published:
                snapshot = survivor.snapshots.get(snapshot_id)
                assert snapshot.members == committed, crash_at
                for path, version in snapshot.members.items():
                    assert survivor.restore(path, version).data == files[path]
            assert_zero_debris(survivor)
            # The snapshot id sequence never collides with a published
            # manifest (a crash before the journal entry landed may
            # recycle the dead run's id, which was never visible).
            follow_up, _ = survivor.backup_snapshot(
                {"vol/c": b"later run"}, run_gnode=False
            )
            assert follow_up not in published

        run_matrix(base_state, action, verify, fold=fold)


class TestDeleteSnapshotCrashMatrix:
    """Crash at every write of a snapshot delete: the older of two runs
    whose unchanged member (an alias in the newer run) keeps its recipe."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(97531)
        older = {
            "vol/a": random_bytes(rng, 48 * 1024),
            "vol/b": random_bytes(rng, 48 * 1024),
            "vol/c": random_bytes(rng, 32 * 1024),
        }
        newer = dict(older)
        newer["vol/a"] = mutate(rng, older["vol/a"], 2, 4096)
        newer["vol/b"] = mutate(rng, older["vol/b"], 2, 4096)
        store = attach()
        first, _ = store.backup_snapshot(older)
        second, _ = store.backup_snapshot(newer)
        store.close()  # publish the last inline pass's clear
        return clone_state(store.oss), (first, older), (second, newer)

    def test_crash_at_every_write_index(self, base):
        self._sweep(base)

    def test_crash_at_every_write_index_across_folds(self, base, monkeypatch):
        """The catalog fold lands at the delete's own commit point."""
        monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 2)
        base_state, (first, _older), _newer = base
        assert folds_crossed(
            base_state, lambda store: store.delete_snapshot(first)
        ) == set(CHECKPOINTS)
        self._sweep(base, fold=False)

    def _sweep(self, base, fold: bool = True):
        base_state, (first, older), (second, newer) = base

        def action(store: SlimStore) -> None:
            store.delete_snapshot(first)

        def verify(survivor: SlimStore, crash_at: int) -> None:
            ids = survivor.snapshots.list_ids()
            assert ids in ([first, second], [second]), (crash_at, ids)
            if first in ids:
                # Not deleted: every member of the older run restores.
                assert survivor.restore_snapshot(first) == older, crash_at
            else:
                # Deleted: so is every member no newer run retains.
                for path in older:
                    assert survivor.versions(path) == [1], (crash_at, path)
                    with pytest.raises(VersionNotFoundError):
                        survivor.restore(path, 0)
            # The unchanged member's recipe outlives the older run.
            assert survivor.restore_snapshot(second) == newer, crash_at
            assert_zero_debris(survivor)
            if first in ids:
                survivor.delete_snapshot(first)
                assert survivor.snapshots.list_ids() == [second]
                assert survivor.restore_snapshot(second) == newer, crash_at

        total = run_matrix(base_state, action, verify, fold=fold)
        assert total > 3
