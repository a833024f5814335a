"""Attach-after-crash recovery windows and the deletion grace epoch.

The crash matrix (``test_crash_matrix``) sweeps *every* write index; this
suite pins the interesting windows by name — uncommitted backup discard,
committed backup roll-forward, a snapshot run cut short — and asserts
the recovery report labels them correctly.  A commit record that fails
without a crash leaves the live catalog what OSS holds.  It also covers the
two-phase-deletion grace epoch: a reader that planned a restore against
pre-maintenance metadata keeps reading entombed containers byte-for-byte
until the grace expires.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core.system import SlimStore
from repro.errors import (
    ObjectNotFoundError,
    RetryExhaustedError,
    SimulatedCrashError,
    TransientOSSError,
    VersionNotFoundError,
)
from repro.oss.faults import FaultPolicy
from tests.conftest import SMALL_CONFIG, random_bytes
from tests.integration.test_crash_matrix import (
    assert_zero_debris,
    attach,
    clone_state,
    compacting_chain,
    count_writes,
    reattach,
)

DATA_KEY = "containers/{cid:012d}.data"
META_KEY = "containers/{cid:012d}.meta"


def crash_at(state, action, index: int) -> SlimStore:
    """Replay ``action`` from ``state``, crash at write ``index``, reattach."""
    store = attach(state)
    policy = FaultPolicy()
    policy.crash_after_writes(index)
    store.oss.set_fault_policy(policy)
    with pytest.raises(SimulatedCrashError):
        action(store)
    return reattach(store)


class TestBackupWindows:
    @pytest.fixture()
    def base(self, rng):
        d0 = random_bytes(rng, 96 * 1024)
        d1 = random_bytes(rng, 96 * 1024)
        store = attach()
        store.backup("f", d0, run_gnode=False)
        return clone_state(store.oss), d0, d1

    @staticmethod
    def _backup(d1):
        return lambda store: store.backup("f", d1, run_gnode=False)

    def test_crash_before_first_write_leaves_repository_clean(self, base):
        state, d0, d1 = base
        survivor = crash_at(state, self._backup(d1), 0)
        # Write 0 is the journal begin itself: nothing landed, so the
        # reattach finds no evidence and runs no recovery at all.
        assert survivor.last_recovery is None
        assert survivor.versions("f") == [0]
        assert survivor.restore("f", 0).data == d0

    def test_uncommitted_backup_is_discarded(self, base):
        state, d0, d1 = base
        action = self._backup(d1)
        total = count_writes(state, action)
        # Crash at the catalog put (second-to-last write): the recipe
        # landed but the commit did not, so recovery must delete it and
        # discard the version.
        survivor = crash_at(state, action, total - 2)
        recovery = survivor.last_recovery
        assert recovery is not None
        assert any(k == "backup" for _s, k in recovery.discarded)
        assert not any(k == "backup" for _s, k in recovery.rolled_forward)
        assert survivor.versions("f") == [0]
        assert survivor.restore("f", 0).data == d0
        # The discarded attempt's containers were orphan-collected.
        live = set(survivor.storage.containers.container_ids())
        assert live <= survivor.catalog.live_container_ids()

    def test_version_sequence_continues_after_discard(self, base):
        state, d0, d1 = base
        survivor = crash_at(state, self._backup(d1), 2)
        report = survivor.backup("f", d1, run_gnode=False)
        assert report.version == 1
        assert survivor.versions("f") == [0, 1]
        assert survivor.restore("f", 0).data == d0
        assert survivor.restore("f", 1).data == d1

    def test_committed_backup_missing_only_close_rolls_forward(self, base):
        state, d0, d1 = base
        action = self._backup(d1)
        total = count_writes(state, action)
        # The very last write of an un-maintained backup is the journal
        # close (deletes count as writes): crashing there leaves a fully
        # committed version with only its intent outstanding.
        survivor = crash_at(state, action, total - 1)
        recovery = survivor.last_recovery
        assert recovery is not None
        assert any(k == "backup" for _s, k in recovery.rolled_forward)
        assert not any(k == "backup" for _s, k in recovery.discarded)
        assert survivor.versions("f") == [0, 1]
        assert survivor.restore("f", 1).data == d1


class TestSnapshotPartialPublish:
    def test_partial_manifest_covers_exactly_the_committed_members(self, rng):
        files = {
            "vol/a": random_bytes(rng, 48 * 1024),
            "vol/b": random_bytes(rng, 48 * 1024),
        }
        store = attach()
        state = clone_state(store.oss)

        def action(s: SlimStore) -> None:
            s.backup_snapshot(files, run_gnode=False)

        total = count_writes(state, action)
        found_partial = False
        for index in range(1, total):
            survivor = crash_at(state, action, index)
            a_done = survivor.versions("vol/a") == [0]
            b_done = survivor.versions("vol/b") == [0]
            if not (a_done and not b_done):
                continue
            # vol/a committed but vol/b did not: vol/a joined the run in
            # its own commit record, so the run names it alone.
            found_partial = True
            ids = survivor.snapshots.list_ids()
            assert len(ids) == 1, index
            snapshot = survivor.snapshots.get(ids[0])
            assert snapshot.members == {"vol/a": 0}, index
            assert survivor.restore_snapshot(ids[0]) == {"vol/a": files["vol/a"]}
        assert found_partial, "no crash index hit the partial-publish window"


@dataclass
class RefuseCatalogRecords(FaultPolicy):
    """The endpoint refuses every commit record PUT after the first
    ``allow`` (no crash)."""

    allow: int = 0

    def before_request(self, op, bucket, key):
        if op == "put" and key.startswith("catalog/log/"):
            if not self.allow:
                raise TransientOSSError(op, bucket, key, reason="catalog log refused")
            self.allow -= 1
        return super().before_request(op, bucket, key)


def assert_no_orphans(store: SlimStore) -> None:
    live = set(store.storage.containers.container_ids())
    assert live <= store.catalog.live_container_ids()
    assert store.storage.journal.open_intents() == []


class TestFailedCatalogPublish:
    """A commit record that does not land, with the node still alive: the
    job's catalog ops are not applied, ops queued before stay queued, and
    what the job wrote stays collectable by the next attach."""

    def test_failed_backup_commits_nothing_and_its_debris_is_collected(self, rng):
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        store.backup("f", d0)
        store.oss.set_fault_policy(RefuseCatalogRecords())
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.backup("f", d1)
        store.oss.set_fault_policy(None)
        assert store.versions("f") == [0]
        # Only the first backup's inline clear is still queued.
        assert [op[0] for op in store.catalog.pending] == ["clear_degraded"]
        assert store.storage.similar_index.latest_version("f") == 0
        assert store.restore("f").data == d0
        # The job wrote containers and a recipe: its intent stays open, so
        # the next attach collects them.
        assert [i.kind for i in store.storage.journal.open_intents()] == ["backup"]
        survivor = reattach(store)
        assert survivor.versions("f") == [0]
        assert survivor.last_recovery.backup_resolutions == [("f", 1, "discarded")]
        with pytest.raises(VersionNotFoundError):
            survivor.storage.recipes.get_recipe("f", 1)
        assert_no_orphans(survivor)
        assert survivor.restore("f", 0).data == d0

    def test_the_live_process_commits_the_version_later(self, rng):
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        store.backup("f", d0)
        store.oss.set_fault_policy(RefuseCatalogRecords())
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.backup("f", d1)
        store.oss.set_fault_policy(None)
        assert store.backup("f", d1).version == 1
        store.close()
        survivor = reattach(store)
        assert survivor.versions("f") == [0, 1]
        assert_no_orphans(survivor)
        for version, payload in enumerate((d0, d1)):
            assert survivor.restore("f", version).data == payload

    def _fail_backup(self, store, data) -> None:
        store.oss.set_fault_policy(RefuseCatalogRecords())
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.backup("f", data)
        store.oss.set_fault_policy(None)

    def test_a_stale_intent_spares_a_retried_recipe_an_alias_keeps(self, rng):
        """The failed job's version is committed by a retry, an unchanged
        re-backup aliases it, and FIFO deletes drop the retry (its recipe
        stays for the alias): the next attach must not delete that recipe."""
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        store.backup("f", d0)
        self._fail_backup(store, d1)
        assert store.backup("f", d1).version == 1
        assert store.backup("f", d1).result.alias_of == 1
        store.delete_version("f", 0)
        store.delete_version("f", 1)
        survivor = reattach(store)
        assert survivor.versions("f") == [2]
        assert survivor.restore("f", 2).data == d1
        assert_no_orphans(survivor)

    def test_a_stale_intent_collects_the_recipe_an_alias_retry_left(self, rng):
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        store.backup("f", d0)
        self._fail_backup(store, d1)
        assert store.backup("f", d0).result.alias_of == 0
        survivor = reattach(store)
        assert survivor.versions("f") == [0, 1]
        with pytest.raises(VersionNotFoundError):
            survivor.storage.recipes.get_recipe("f", 1)
        assert survivor.restore("f", 1).data == d0
        assert_no_orphans(survivor)

    def test_a_stale_delete_intent_spares_containers_referenced_again(self, rng):
        """A delete that failed alive keeps its intent; a later backup
        references the containers it listed, and a retried delete then
        keeps them: the next attach must keep them too."""
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        store.backup("f", d0)
        store.backup("f", d1)
        store.oss.set_fault_policy(RefuseCatalogRecords())
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.delete_version("f", 0)
        store.oss.set_fault_policy(None)
        shared = store.catalog.references("f", 0) - store.catalog.references("f", 1)
        assert store.backup("g", d0).version == 0
        assert shared & store.catalog.references("g", 0)
        store.delete_version("f", 0)
        survivor = reattach(store)
        assert survivor.versions("f") == [1]
        assert survivor.restore("g", 0).data == d0
        assert survivor.restore("f", 1).data == d1
        assert_no_orphans(survivor)

    def test_failed_deletes_drop_nothing(self, rng):
        d0, d1 = random_bytes(rng, 200 * 1024), random_bytes(rng, 200 * 1024)
        store = attach()
        first, _ = store.backup_snapshot({"f": d0})
        second, _ = store.backup_snapshot({"f": d1})
        store.oss.set_fault_policy(RefuseCatalogRecords())
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.delete_snapshot(first)
        with pytest.raises((TransientOSSError, RetryExhaustedError)):
            store.delete_version("f", 0)
        store.oss.set_fault_policy(None)
        for node in (store, reattach(store)):
            assert node.versions("f") == [0, 1]
            assert node.snapshots.list_ids() == [first, second]
            assert node.restore("f", 0).data == d0
            assert node.restore_snapshot(second) == {"f": d1}
        survivor = reattach(store)
        assert_no_orphans(survivor)
        survivor.delete_snapshot(first)
        assert survivor.versions("f") == [1]
        assert survivor.restore_snapshot(second) == {"f": d1}
        assert_no_orphans(survivor)


    def test_a_failed_compaction_fixup_leaves_the_version_pending(self):
        """The backup's commit record lands, the record carrying its
        compaction fix-up does not: the backup reports ``degraded`` instead
        of raising, the live catalog stays what OSS holds (the version
        pending, its compaction intent open), and the next attach rolls the
        compaction forward with zero debris."""
        base_state, payloads, next_payload = compacting_chain()
        contents = payloads + [next_payload]
        version = len(payloads)
        store = attach(base_state)
        store.oss.set_fault_policy(RefuseCatalogRecords(allow=1))
        report = store.backup("f", next_payload)
        store.oss.set_fault_policy(None)
        assert report.degraded
        assert report.compaction.sparse_containers
        assert store.versions("f") == list(range(version + 1))
        assert store.pending_versions() == [("f", version)]
        assert store.catalog.pending == []
        assert [i.kind for i in store.storage.journal.open_intents()] == ["compaction"]
        published = attach(clone_state(store.oss), fold=False)
        assert store.catalog.to_json() == published.catalog.to_json()
        for index, payload in enumerate(contents):
            assert store.restore("f", index).data == payload
        survivor = reattach(store)
        assert survivor.last_recovery.rolled_forward
        assert survivor.pending_versions() == [("f", version)]
        assert_zero_debris(survivor)
        survivor.drain()
        assert survivor.pending_versions() == []
        assert_zero_debris(survivor)
        for index, payload in enumerate(contents):
            assert survivor.restore("f", index).data == payload

    @pytest.mark.parametrize("next_call", ["drain", "delete_version"])
    def test_the_next_call_publishes_the_failed_fixup(self, next_call):
        """After the failed fix-up record, the same process's next ``drain``
        (which finds nothing left to compact: the recipe was re-pointed)
        or ``delete_version`` publishes the fix-up and only then closes the
        compaction intent: the catalog references what the recipe does."""
        base_state, payloads, next_payload = compacting_chain()
        contents = payloads + [next_payload]
        version = len(payloads)
        store = attach(base_state)
        store.oss.set_fault_policy(RefuseCatalogRecords(allow=1))
        report = store.backup("f", next_payload)
        store.oss.set_fault_policy(None)
        assert report.degraded
        sparse = set(report.compaction.sparse_containers)
        if next_call == "drain":
            store.drain()
            assert store.pending_versions() == []
        else:
            store.delete_version("f", 0)
            assert store.pending_versions() == [("f", version)]
        recipe = store.storage.recipes.get_recipe("f", version)
        assert store.catalog.references("f", version) == recipe.referenced_containers()
        assert sparse <= store.catalog._garbage[("f", version)]
        assert store.storage.journal.open_intents() == []
        published = attach(clone_state(store.oss), fold=False)
        assert store.catalog.to_json() == published.catalog.to_json()
        store.drain()
        while store.versions("f")[0] < 2:
            store.delete_version("f", store.versions("f")[0])
        survivor = reattach(store)
        assert_zero_debris(survivor)
        assert survivor.versions("f") == list(range(2, version + 1))
        for index in survivor.versions("f"):
            assert survivor.restore("f", index).data == contents[index]


class TestScrubReportsTornDamage:
    def test_referenced_torn_pair_survives_recovery_and_fails_scrub(self, rng):
        """Losing the meta of a referenced container is data loss the
        journal cannot explain: recovery quarantines it (never deletes),
        and scrub — whose container pass cannot even see the quarantined
        id — reports it explicitly."""
        store = attach()
        store.backup("f", random_bytes(rng, 64 * 1024), run_gnode=False)
        cid = min(store.storage.recipes.get_recipe("f", 0).referenced_containers())
        store.oss.delete_object("slimstore", META_KEY.format(cid=cid))

        survivor = SlimStore(SMALL_CONFIG, store.oss)
        survivor.recover()
        assert survivor.last_recovery is not None
        assert cid in survivor.last_recovery.torn_damaged

        report = survivor.scrub()
        assert report.torn_containers == [cid]
        assert not report.clean
        # The data object was NOT garbage-collected: scrub territory.
        assert (
            survivor.oss.peek_size("slimstore", DATA_KEY.format(cid=cid))
            is not None
        )


GRACE_CONFIG = replace(SMALL_CONFIG, tombstone_grace_epochs=1)


class TestDeletionGraceEpoch:
    """A stale reader keeps its planned reads for a full grace epoch."""

    def _two_distinct_versions(self, rng, config):
        writer = attach(config=config)
        d0 = random_bytes(rng, 96 * 1024)
        d1 = random_bytes(rng, 96 * 1024)
        writer.backup("f", d0, run_gnode=False)
        writer.backup("f", d1, run_gnode=False)
        return writer, d0

    def _plan_reads(self, reader: SlimStore, path: str, version: int):
        """Resolve version's bytes to (cid, offset, size) the way a
        restore planner does — against the reader's current metadata."""
        recipe = reader.storage.recipes.get_recipe(path, version)
        plan = []
        for record in recipe.all_records():
            meta = reader.storage.containers.read_meta(record.container_id)
            entry = meta.find(record.fp)
            assert entry is not None
            plan.append((record.container_id, entry.offset, entry.size))
        return plan

    def _read_back(self, reader: SlimStore, plan) -> bytes:
        out = bytearray()
        for cid, offset, size in plan:
            data = reader.oss.get_object("slimstore", DATA_KEY.format(cid=cid))
            out += data[offset : offset + size]
        return bytes(out)

    def test_stale_reader_survives_version_delete_within_grace(self, rng):
        writer, d0 = self._two_distinct_versions(rng, GRACE_CONFIG)
        reader = SlimStore(GRACE_CONFIG, writer.oss)
        reader.recover()
        plan = self._plan_reads(reader, "f", 0)
        cids = sorted({cid for cid, _o, _s in plan})

        writer.delete_version("f", 0)
        # v0's exclusive containers are entombed, not deleted...
        assert set(writer.storage.containers.tombstoned_ids()) >= set(cids)
        # ...so the reader's in-flight restore completes byte-identically.
        assert self._read_back(reader, plan) == d0

        # The tombstones survive exactly one deep_clean (grace epoch)...
        writer.gnode.deep_clean()
        assert self._read_back(reader, plan) == d0
        # ...and the next sweep reaps the bytes for real.
        writer.gnode.deep_clean()
        with pytest.raises(ObjectNotFoundError):
            self._read_back(reader, plan)
        assert writer.storage.containers.tombstoned_ids() == []

    def test_grace_zero_deletes_out_from_under_the_reader(self, rng):
        writer, _d0 = self._two_distinct_versions(rng, SMALL_CONFIG)
        reader = SlimStore(SMALL_CONFIG, writer.oss)
        reader.recover()
        plan = self._plan_reads(reader, "f", 0)

        writer.delete_version("f", 0)
        # The seed behaviour (grace 0): the planned reads break mid-restore.
        with pytest.raises(ObjectNotFoundError):
            self._read_back(reader, plan)

    def test_tombstones_survive_reattach(self, rng):
        writer, d0 = self._two_distinct_versions(rng, GRACE_CONFIG)
        reader = SlimStore(GRACE_CONFIG, writer.oss)
        reader.recover()
        plan = self._plan_reads(reader, "f", 0)
        writer.delete_version("f", 0)
        tombstoned = writer.storage.containers.tombstoned_ids()
        assert tombstoned

        # A freshly attached node sees the same grace bookkeeping and
        # recovery does NOT treat in-grace containers as debris.
        fresh = SlimStore(GRACE_CONFIG, writer.oss)
        fresh.recover()
        assert fresh.storage.containers.tombstoned_ids() == tombstoned
        assert fresh.last_recovery is None
        assert self._read_back(fresh, plan) == d0
