"""O(1) commit metadata: the catalog persists as a checkpoint plus one small
record per commit, and the similar-file index rides it as a view.

What this suite pins down, beside ``tests/core/test_deltalog.py`` (the
mechanism) and the crash matrices (the commit contract):

* any interleaving of catalog mutations, registrations, commits, folds and
  reattaches reloads exactly the committed state, view included;
* the first record and every checkpoint carry the format stamp, and a
  repository without it is refused before anything else is read or
  written; a HEAD-written attach sends nothing under the prefixes of the
  retired layouts;
* the bytes one commit writes do not depend on how many paths the
  repository holds (the property the whole-object rewrite lacked);
* the requests a backup does *not* need are not sent: no commit record when
  no mutator changed anything, no journal intent but the ``backup`` one,
  nothing under ``similar/``;
* an interrupted fold's leftovers are reported by ``fsck`` and folded away;
* the global index's WAL, the third delta log, keeps every entry across
  attaches.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SlimStore, SlimStoreConfig
from repro.oss import deltalog
from repro.core.journal import INTENT_KINDS
from repro.core.recovery import RecoveryManager
from repro.core.similar_index import pack
from repro.core.system import FORMAT
from repro.errors import (
    RepositoryFormatError,
    RetryExhaustedError,
    SimulatedCrashError,
    TransientOSSError,
)
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, bucket_state, mutate, random_bytes

BUCKET = "slimstore"
PATHS = ["a", "b/c", "d"]


def reattach(store: SlimStore, run_recovery: bool = True) -> SlimStore:
    survivor = SlimStore(store.config, store.oss)
    survivor.recover(run_recovery=run_recovery)
    return survivor


def similar_state(store: SlimStore):
    index = store.storage.similar_index
    return dict(index._latest), dict(index._by_rep)


def keys(store: SlimStore, prefix: str) -> list[str]:
    return store.oss.peek_keys(BUCKET, prefix)


# ---------------------------------------------------------------------------
# Property: mutations x commit points x fold points x reattach
# ---------------------------------------------------------------------------

cids = st.lists(st.integers(0, 12), max_size=4)
step = st.one_of(
    # The last list: the new containers the version's pass scans.
    st.tuples(st.just("backup"), st.integers(0, 2), cids, cids),
    st.tuples(st.just("maintain"), st.integers(0, 2), cids, cids),
    st.tuples(st.just("settle"), st.integers(0, 2)),
    st.tuples(st.just("drop"), st.integers(0, 2)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("fold")),
    st.tuples(st.just("reattach"), st.booleans()),
)


def fake_reps(path: str, version: int, count: int) -> list[bytes]:
    return [f"{path}|{version % 3}|{k}".encode().ljust(20, b".") for k in range(count)]


@settings(max_examples=80)
@given(st.sampled_from([1, 2, 3, 5]), st.lists(step, min_size=1, max_size=30))
def test_reattached_state_equals_the_committed_state(fold_every, steps):
    """Drive the catalog's mutators directly, representatives included
    (what ``backup`` / ``delete_version`` / recovery do, minus the data
    path), publish at random commit points, fold at random points and on
    schedule, and reattach — sometimes read-only — at random points.  The
    survivor must hold the catalog and its similar-file view as of the last
    commit (uncommitted ops die with the process)."""
    with mock.patch.object(deltalog, "FOLD_EVERY", fold_every):
        live = SlimStore(SMALL_CONFIG, ObjectStorageService())
        committed = live.catalog.to_json()
        committed_view = similar_state(live)
        for name, *args in steps:
            catalog = live.catalog
            if name == "backup":
                index, referenced, new = args
                path = PATHS[index]
                versions = catalog.versions(path)
                version = versions[-1] + 1 if versions else 0
                reps = pack(fake_reps(path, version, len(referenced)))
                catalog.register(path, version, set(referenced), new, reps)
            elif name == "maintain":
                index, referenced, garbage = args
                versions = catalog.versions(PATHS[index])
                if versions:
                    catalog.update_references(PATHS[index], versions[-1], set(referenced))
                    catalog.add_garbage(PATHS[index], versions[-1], garbage)
            elif name == "settle":
                versions = catalog.versions(PATHS[args[0]])
                if versions:
                    catalog.clear_pending(PATHS[args[0]], versions[-1])
            elif name == "drop":
                path = PATHS[args[0]]
                versions = catalog.versions(path)
                if versions:
                    catalog.drop_version(path, versions[0])
            elif name in ("commit", "fold"):
                live._persist_catalog()
                committed = catalog.to_json()
                committed_view = similar_state(live)
                if name == "fold":
                    live.fold_metadata()
                    assert not keys(live, "catalog/log/")
            else:
                survivor = reattach(live, run_recovery=args[0])
                assert survivor.catalog.to_json() == committed
                assert similar_state(survivor) == committed_view
                assert survivor.catalog.refcounts() == (
                    type(catalog).from_json(committed).refcounts()
                )
                assert not survivor.catalog.pending
                live = survivor
        survivor = reattach(live)
        assert survivor.catalog.to_json() == committed
        assert similar_state(survivor) == committed_view
        assert RecoveryManager(survivor).inspect().clean
        assert not keys(survivor, "similar/")


# ---------------------------------------------------------------------------
# The format stamp
# ---------------------------------------------------------------------------


def record_access(oss: ObjectStorageService, monkeypatch) -> list[tuple[str, str]]:
    """Every (method, key or prefix) ``oss`` serves from here on, the free
    peeks included (a batched delete names its keys)."""
    log: list[tuple[str, str]] = []
    for name in (
        "put_object", "get_object", "get_range", "get_ranges", "delete_object",
        "delete_objects", "list_objects", "head_object", "peek_size", "peek_keys",
    ):
        original = getattr(oss, name)

        def spy(bucket, key="", *args, _name=name, _original=original, **kwargs):
            log.append((_name, key if isinstance(key, str) else ",".join(key)))
            return _original(bucket, key, *args, **kwargs)

        monkeypatch.setattr(oss, name, spy)
    return log


def stamped_repository(rng, config=SMALL_CONFIG) -> SlimStore:
    """Two versions of ``f`` and a snapshot run, closed and never folded."""
    store = SlimStore(config, ObjectStorageService())
    data = random_bytes(rng, 48 * 1024)
    store.backup("f", data)
    store.backup("f", mutate(rng, data, runs=2, run_bytes=4096))
    store.backup_snapshot({"vol/a": random_bytes(rng, 24 * 1024), "vol/b": data})
    store.close()
    assert not keys(store, "catalog/state.json")
    return store


def test_the_first_record_and_every_checkpoint_carry_the_stamp(rng):
    store = stamped_repository(rng)
    records = [json.loads(store.oss.get_object(BUCKET, key)) for key in keys(store, "catalog/log/")]
    assert len(records) > 1
    assert records[0][0] == ["format", FORMAT]
    assert [op for record in records for op in record if op[0] == "format"] == [records[0][0]]
    survivor = reattach(store)  # folds
    checkpoint = json.loads(store.oss.get_object(BUCKET, "catalog/state.json"))
    assert checkpoint["format"] == FORMAT
    survivor.backup("g", random_bytes(rng, 8 * 1024))
    (record,) = [json.loads(store.oss.get_object(BUCKET, key)) for key in keys(store, "catalog/log/")]
    assert all(op[0] != "format" for op in record)


def test_a_first_record_refused_alive_is_stamped_on_retry(rng):
    """The stamp stays queued with the rest of the failed record."""
    from tests.integration.test_crash_recovery import RefuseCatalogRecords

    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    data = random_bytes(rng, 32 * 1024)
    store.oss.set_fault_policy(RefuseCatalogRecords())
    with pytest.raises((TransientOSSError, RetryExhaustedError)):
        store.backup("f", data)
    store.oss.set_fault_policy(None)
    assert not store.catalog.stamped
    assert store.backup("f", data).version == 0
    first = json.loads(store.oss.get_object(BUCKET, "catalog/log/000000000000"))
    assert first[0] == ["format", FORMAT] and first[1][:3] == ["register", "f", 0]
    assert reattach(store).restore("f").data == data


@pytest.mark.parametrize("layout", ["checkpoint_without_stamp", "record_0_without_stamp", "stamp_of_2"])
def test_an_unstamped_repository_is_refused_before_anything_is_read(rng, layout, monkeypatch):
    """A folded checkpoint without ``"format"``, a never-folded log whose
    record 0 lacks the op, or a stamp this code does not read: the writing
    and the inspection attach both raise, read nothing outside
    ``catalog/`` and write nothing."""
    store = stamped_repository(rng)
    objects = store.oss._backend(BUCKET)._objects
    if layout == "record_0_without_stamp":
        key = "catalog/log/000000000000"
        record = json.loads(objects[key])
        assert record[0] == ["format", FORMAT]
        objects[key] = json.dumps(record[1:]).encode()
    else:
        reattach(store)  # folds
        raw = json.loads(objects["catalog/state.json"])
        if layout == "stamp_of_2":
            raw["format"] = 2
        else:
            del raw["format"]
        objects["catalog/state.json"] = json.dumps(raw).encode()
    before = bucket_state(store.oss)
    access = record_access(store.oss, monkeypatch)
    for run_recovery in (True, False):
        with pytest.raises(RepositoryFormatError) as refused:
            reattach(store, run_recovery=run_recovery)
        assert refused.value.found == (2 if layout == "stamp_of_2" else None)
        assert refused.value.supported == FORMAT
        assert str(FORMAT) in str(refused.value)
    assert bucket_state(store.oss) == before
    assert access and all(key.startswith("catalog/") for _, key in access), access


def test_an_attach_reads_nothing_under_the_retired_prefixes(rng, monkeypatch):
    """A never-folded repository with the durability tier on: neither the
    writing nor the inspection attach sends a request or a peek under the
    layouts retired with the format stamp."""
    from tests.integration.test_durability_failover import DURABLE_CONFIG

    store = stamped_repository(rng, DURABLE_CONFIG)
    assert store.oss.peek_size(BUCKET, "durability/state.json") is None
    retired = ("snapshots/", "similar/", "durability/records/", "durability/stripes/")
    access = record_access(store.oss, monkeypatch)
    for run_recovery in (False, True):
        survivor = reattach(store, run_recovery=run_recovery)
        assert survivor.catalog.to_json() == store.catalog.to_json()
    assert access
    assert [(name, key) for name, key in access if key.startswith(retired)] == []


def test_every_intent_kind_has_a_handler_and_no_other(rng):
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    assert set(RecoveryManager(store).handlers) == set(INTENT_KINDS)


@pytest.mark.parametrize("kind", ["reverse_dedup", "snapshot", "delete_snapshot"])
def test_an_intent_of_an_unknown_kind_is_discarded(rng, kind):
    """The journal is outside input: an intent no handler knows (these are
    kinds older code wrote) changes no visible state."""
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    data = random_bytes(rng, 48 * 1024)
    store.backup("f", data)
    store.close()
    expected = store.catalog.to_json()
    store.oss.put_object(
        BUCKET, "journal/000000000009.json",
        json.dumps({"kind": kind, "payload": {"snapshot_id": "00000000"}}).encode(),
    )
    survivor = reattach(store)
    assert survivor.last_recovery.discarded == [(9, kind)]
    assert survivor.catalog.to_json() == expected
    assert not keys(survivor, "journal/")
    assert survivor.restore("f").data == data


# ---------------------------------------------------------------------------
# Growth: what one commit writes does not depend on the repository's size
# ---------------------------------------------------------------------------


def small_file_repository(paths: int) -> tuple[SlimStore, dict[str, bytes]]:
    """``paths`` 4 KiB files, each backed up once; file *i* has the same
    bytes in every repository this builds."""
    store = SlimStore(SlimStoreConfig(), ObjectStorageService())
    files = {
        f"src/{i:04d}.c": random_bytes(np.random.default_rng(i), 4096)
        for i in range(paths)
    }
    for path, data in files.items():
        store.backup(path, data)
    return store, files


def test_bytes_written_by_one_commit_are_independent_of_repository_size():
    """An unchanged 4 KiB re-backup into 10 paths and into 500 paths writes
    the same objects; only decimal widths (container ids, the journalled
    watermark) may differ — far less than one commit record."""
    written = {}
    for paths in (10, 500):
        store, files = small_file_repository(paths)
        path = next(iter(files))
        before = store.oss.stats.snapshot()
        store.backup(path, files[path])
        written[paths] = store.oss.stats.diff(before).bytes_written
        (record_key,) = keys(store, "catalog/log/")[-1:]
        record_bytes = store.oss.peek_size(BUCKET, record_key)
    assert abs(written[500] - written[10]) < record_bytes, written


def test_six_hundred_small_commits_write_under_three_times_the_logical_bytes():
    """300 paths of 4 KiB backed up twice: 600 commits, two scheduled folds
    of the catalog's log, nothing under ``similar/``.  Rewriting the whole
    catalog per commit alone wrote more than 5x the logical bytes here."""
    store, files = small_file_repository(300)
    for path, data in files.items():
        store.backup(path, data)
    logical = 2 * sum(len(data) for data in files.values())
    stats = store.oss.stats
    assert stats.bytes_written < 3 * logical, stats.bytes_written / logical
    # 600 records, folded at 256 and 512: a tail of 88 remains.
    assert len(keys(store, "catalog/log/")) == 600 - 2 * deltalog.FOLD_EVERY
    assert not keys(store, "similar/")
    survivor = reattach(store)
    assert survivor.catalog.to_json() == store.catalog.to_json()
    assert similar_state(survivor) == similar_state(store)
    # The similar index's bytes are its section of the folded checkpoint.
    checkpoint = json.loads(store.oss.get_object(BUCKET, "catalog/state.json"))
    assert survivor.space_report().similar_index_bytes == len(
        json.dumps(checkpoint["similar"])
    )
    path = next(iter(files))
    assert survivor.restore(path).data == files[path]


# ---------------------------------------------------------------------------
# Requests that are no longer sent
# ---------------------------------------------------------------------------


def record_writes(store: SlimStore, monkeypatch) -> list[tuple[str, str]]:
    """Every (verb, key) write ``store``'s endpoint serves from here on."""
    log: list[tuple[str, str]] = []
    for verb in ("put_object", "delete_object", "delete_objects"):
        original = getattr(store.oss, verb)

        def spy(bucket, key, *args, _verb=verb, _original=original, **kwargs):
            # One entry per write request (a batched delete names its keys).
            log.append((_verb, key if isinstance(key, str) else ",".join(key)))
            return _original(bucket, key, *args, **kwargs)

        monkeypatch.setattr(store.oss, verb, spy)
    return log


def test_unchanged_rebackup_opens_one_journal_intent(rng, monkeypatch):
    """The ``backup`` intent's PUT and DELETE are the only journal traffic.
    Skip chunking is off, so the job cannot prove the file unchanged and
    commits a recipe (with it on, the version is an alias and writes no
    journal object at all — ``test_alias_versions.py``)."""
    store = SlimStore(SlimStoreConfig(skip_chunking=False), ObjectStorageService())
    data = random_bytes(rng, 4096)
    store.backup("f", data)
    writes = record_writes(store, monkeypatch)
    report = store.backup("f", data)
    assert report.result.new_container_ids == []
    assert report.reverse_dedup is not None
    assert report.reverse_dedup.chunks_scanned == 0
    journal = [(verb, key) for verb, key in writes if key.startswith("journal/")]
    assert [verb for verb, _ in journal] == ["put_object", "delete_object"]
    assert journal[0][1] == journal[1][1]
    # ... and one commit record, which carries the representatives: the
    # similar index writes nothing of its own.
    assert sum(key.startswith("catalog/") for _, key in writes) == 1
    assert sum(key.startswith("similar/") for _, key in writes) == 0


def test_a_pass_that_changes_nothing_publishes_nothing(rng, monkeypatch):
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    data = random_bytes(rng, 64 * 1024)
    store.backup("f", data, run_gnode=False)
    writes = record_writes(store, monkeypatch)
    # An update_references with the set it already holds records no op ...
    store.catalog.update_references("f", 0, store.catalog.references("f", 0))
    store.catalog.add_garbage("f", 0, [])
    store._persist_catalog()
    assert not [key for _, key in writes if key.startswith("catalog/")]
    # ... a drain that clears the flag publishes exactly one record, and
    # one with nothing pending publishes none.
    assert store.drain() is not None
    assert store.pending_versions() == []
    assert len([key for _, key in writes if key.startswith("catalog/")]) == 1
    assert store.drain() is None
    assert len([key for _, key in writes if key.startswith("catalog/")]) == 1
    assert reattach(store).pending_versions() == []


def test_a_backup_whose_fold_cannot_reach_oss_still_commits(rng, monkeypatch):
    """The commit record landed; the fold that came due is housekeeping and
    is simply tried again next time."""
    monkeypatch.setattr(deltalog, "FOLD_EVERY", 2)

    class NoCheckpoints(FaultPolicy):
        blocked = True

        def before_request(self, op, bucket, key):
            if self.blocked and op == "put" and key == "catalog/state.json":
                raise TransientOSSError(op, bucket, key)
            return super().before_request(op, bucket, key)

    policy = NoCheckpoints()
    store = SlimStore(SMALL_CONFIG, ObjectStorageService(faults=policy))
    payloads = {name: random_bytes(rng, 20 * 1024) for name in "abc"}
    for name in "ab":
        assert store.backup(name, payloads[name]).version == 0
    assert not keys(store, "catalog/state.json")
    assert reattach(store, run_recovery=False).catalog.paths() == ["a", "b"]
    policy.blocked = False
    store.backup("c", payloads["c"])
    assert keys(store, "catalog/state.json") and not keys(store, "catalog/log/")
    assert not keys(store, "similar/")
    survivor = reattach(store)
    for name, data in payloads.items():
        assert survivor.restore(name).data == data


# ---------------------------------------------------------------------------
# fsck: an interrupted fold's leftovers
# ---------------------------------------------------------------------------


def test_interrupted_fold_is_reported_by_fsck_and_folded_away_on_attach(monkeypatch):
    monkeypatch.setattr(deltalog, "FOLD_EVERY", 3)
    rng = np.random.default_rng(7)
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    payloads = {f"f{i}": random_bytes(rng, 24 * 1024) for i in range(3)}
    policy = FaultPolicy()
    store.oss.set_fault_policy(policy)
    for path, data in list(payloads.items())[:2]:
        store.backup(path, data)
    # The third commit makes the fold due.  Find the fold's checkpoint PUT
    # in a probe of the write stream, then die right after it.
    probe = SlimStore(SMALL_CONFIG, ObjectStorageService())
    for path, data in list(payloads.items())[:2]:
        probe.backup(path, data)
    writes = record_writes(probe, monkeypatch)
    probe.backup("f2", payloads["f2"])
    index = [key for _, key in writes].index("catalog/state.json")

    policy.crash_after_writes(index + 1)
    with pytest.raises(SimulatedCrashError):
        store.backup("f2", payloads["f2"])
    store.oss.set_fault_policy(None)

    inspected = reattach(store, run_recovery=False)
    report = RecoveryManager(inspected).inspect()
    assert report.log_debris == [f"catalog/log/{seq:012d}" for seq in range(3)]
    assert not report.clean
    # Read-only: the inspection attach deleted nothing.
    assert keys(inspected, "catalog/log/") == report.log_debris

    survivor = reattach(store)
    assert RecoveryManager(survivor).inspect().clean
    assert not keys(survivor, "catalog/log/")
    assert survivor.catalog.paths() == list(payloads)
    for path, data in payloads.items():
        assert survivor.restore(path).data == data


# ---------------------------------------------------------------------------
# The global index's WAL
# ---------------------------------------------------------------------------


def index_items(store: SlimStore) -> dict[bytes, int]:
    return dict(store.storage.global_index.iter_items())


@pytest.mark.parametrize("fold", [True, False])
def test_attaches_between_backups_keep_every_global_index_entry(rng, fold):
    """Back up, attach, back up, attach.  A fresh WAL used to start from an
    empty segment, so the second backup's first index write overwrote the
    records the first one logged (111 of 330 entries survived)."""
    store = SlimStore(SlimStoreConfig(), ObjectStorageService())
    store.backup("a", random_bytes(rng, 1 << 20))
    attached = reattach(store, run_recovery=fold)
    assert index_items(attached) == index_items(store)
    attached.backup("b", random_bytes(rng, 512 << 10))
    expected = index_items(attached)
    assert len(expected) > len(index_items(store))
    assert index_items(reattach(attached, run_recovery=fold)) == expected

