"""O(1) commit metadata: the catalog persists as a checkpoint plus one small
record per commit, and the similar-file index rides it as a view.

What this suite pins down, beside ``tests/core/test_deltalog.py`` (the
mechanism) and the crash matrices (the commit contract):

* any interleaving of catalog mutations, registrations, commits, folds and
  reattaches reloads exactly the committed state, view included;
* a repository written whole-object by the previous format attaches, and
  one whose similar index has its own checkpoint and log (the layout
  before the view rode the catalog) attaches to the same view, which a
  writing attach migrates and an inspection attach leaves alone;
* the bytes one commit writes do not depend on how many paths the
  repository holds (the property the whole-object rewrite lacked);
* the requests a backup does *not* need are not sent: no commit record when
  no mutator changed anything, no journal intent but the ``backup`` one,
  nothing under ``similar/``;
* an interrupted fold's leftovers are reported by ``fsck`` and folded away;
* the global index's WAL, the third delta log, keeps every entry across
  attaches, including a WAL mirror the previous format left behind.
"""

from __future__ import annotations

import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SlimStore, SlimStoreConfig
from repro.oss import deltalog
from repro.core.recovery import RecoveryManager
from repro.core.similar_index import pack
from repro.errors import SimulatedCrashError, TransientOSSError
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, bucket_state, mutate, random_bytes
from tests.kvstore.legacy_wal import LegacyWriteAheadLog

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
    # False: no mark; True: a mark naming no containers (written before
    # marks named them); a list: a mark naming those new containers.
    st.tuples(
        st.just("backup"), st.integers(0, 2), cids, st.one_of(st.booleans(), cids)
    ),
    st.tuples(st.just("maintain"), st.integers(0, 2), cids, cids),
    st.tuples(st.just("settle"), st.integers(0, 2), st.booleans()),
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
                index, referenced, mark = args
                path = PATHS[index]
                versions = catalog.versions(path)
                version = versions[-1] + 1 if versions else 0
                reps = pack(fake_reps(path, version, len(referenced)))
                catalog.register(path, version, set(referenced), representatives=reps)
                if mark is True:
                    catalog.mark_pending(path, version)
                elif mark is not False:
                    catalog.mark_pending(path, version, mark)
            elif name == "maintain":
                index, referenced, garbage = args
                versions = catalog.versions(PATHS[index])
                if versions:
                    catalog.update_references(PATHS[index], versions[-1], set(referenced))
                    catalog.add_garbage(PATHS[index], versions[-1], garbage)
            elif name == "settle":
                index, pending = args
                versions = catalog.versions(PATHS[index])
                if versions and pending:
                    catalog.mark_pending(PATHS[index], versions[-1])
                elif versions:
                    catalog.clear_pending(PATHS[index], versions[-1])
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
# Legacy: a repository persisted whole-object, before the delta log
# ---------------------------------------------------------------------------


def legacy_catalog_json(catalog) -> str:
    """The previous format's ``VersionCatalog.to_json`` (no ``log_next``)."""
    return json.dumps(
        {
            "versions": catalog._versions,
            "refs": [
                [path, version, sorted(cids)]
                for (path, version), cids in sorted(catalog._refs.items())
            ],
            "garbage": [
                [path, version, sorted(cids)]
                for (path, version), cids in sorted(catalog._garbage.items())
            ],
            "degraded": [list(key) for key in sorted(catalog._pending)],
        }
    )


def legacy_similar_blob(latest: dict, by_rep: dict, log_next: int | None = None) -> bytes:
    """A blob of the similar index's own layout: header, path entries,
    representative entries, and — in a checkpoint written once the index
    had its log — the 8-byte folded-through trailer."""
    blob = bytearray(struct.pack(">II", len(latest), len(by_rep)))
    for path, version in sorted(latest.items()):
        encoded = path.encode()
        blob += struct.pack(">HI", len(encoded), version)
        blob += encoded
    for fp, (path, version) in sorted(by_rep.items()):
        encoded = path.encode()
        blob += struct.pack(">20sHI", fp, len(encoded), version)
        blob += encoded
    if log_next is not None:
        blob += struct.pack(">Q", log_next)
    return bytes(blob)


def test_legacy_whole_object_repository_attaches_backs_up_and_reattaches(rng):
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    chain = [random_bytes(rng, 96 * 1024)]
    chain.append(mutate(rng, chain[0], runs=2, run_bytes=4096))
    other = random_bytes(rng, 40 * 1024)
    store.backup("f", chain[0])
    store.backup("f", chain[1])
    store.backup("g", other)
    # Re-express the metadata exactly as the previous release left it: the
    # two whole objects, and nothing under either log prefix.
    objects = store.oss._backend(BUCKET)._objects
    for key in keys(store, "catalog/"):
        del objects[key]
    objects["catalog/state.json"] = legacy_catalog_json(store.catalog).encode()
    objects["similar/index"] = legacy_similar_blob(*similar_state(store))

    attached = reattach(store)
    assert attached.versions("f") == [0, 1] and attached.versions("g") == [0]
    assert similar_state(attached) == similar_state(store)
    assert attached.restore("f", 1).data == chain[1]
    # The writing attach migrated the similar index into the checkpoint.
    assert not keys(attached, "similar/")
    assert json.loads(objects["catalog/state.json"])["similar"]

    chain.append(mutate(rng, chain[1], runs=2, run_bytes=4096))
    report = attached.backup("f", chain[2])
    assert report.version == 2
    assert report.dedup_ratio > 0.5  # deduplicated against the legacy history
    # The new commit is a record beside the migrated checkpoint.
    assert keys(attached, "catalog/log/") == ["catalog/log/000000000000"]

    again = reattach(attached)
    assert again.versions("f") == [0, 1, 2]
    for version, payload in enumerate(chain):
        assert again.restore("f", version).data == payload
    assert again.restore("g", 0).data == other
    assert similar_state(again) == similar_state(attached)
    # That attach folded the new record.
    assert json.loads(objects["catalog/state.json"])["log_next"] == 1
    assert not keys(again, "catalog/log/") and not keys(again, "similar/")


@pytest.mark.parametrize("layout", ["checkpoint", "checkpoint_and_log", "log"])
def test_a_legacy_similar_layout_attaches_to_the_same_view(rng, layout):
    """The similar index as it persisted before riding the catalog: its own
    checkpoint ``similar/index`` (``checkpoint``: the trailer-less first
    format; ``checkpoint_and_log``: a trailered one, the log's tail and an
    interrupted fold's debris; ``log``: records only, one of them a crashed
    backup's uncommitted registration) beside a catalog carrying no view.
    An inspection attach reads it and writes nothing; a writing attach
    reads the same view, folds it into the catalog checkpoint and deletes
    every ``similar/`` key; the next attach needs none of them."""
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    for name in ("a", "b/c", "d"):
        data = random_bytes(rng, 48 * 1024)
        store.backup(name, data)
        store.backup(name, mutate(rng, data, runs=2, run_bytes=4096))
    store.delete_version("d", 0)
    store.fold_metadata()
    latest, by_rep = expected = similar_state(store)
    assert by_rep
    objects = store.oss._backend(BUCKET)._objects
    raw = json.loads(objects["catalog/state.json"])
    del raw["similar"]
    objects["catalog/state.json"] = json.dumps(raw).encode()
    records = [
        legacy_similar_blob(
            {path: latest[path]},
            {fp: owner for fp, owner in by_rep.items() if owner == (path, version)},
        )
        for path, version in sorted(set(by_rep.values()))
    ]
    if layout == "checkpoint":
        objects["similar/index"] = legacy_similar_blob(latest, by_rep)
    elif layout == "checkpoint_and_log":
        folded = {fp: owner for fp, owner in by_rep.items() if owner[0] != "a"}
        objects["similar/index"] = legacy_similar_blob(latest, folded, log_next=3)
        for seq in range(3):  # debris: already covered by the checkpoint
            objects[f"similar/log/{seq:012d}"] = records[-1]
        for seq, record in enumerate(records[:2], start=3):
            objects[f"similar/log/{seq:012d}"] = record
        # Only the tail names path "a": records[:2] are its registrations.
        assert {owner[0] for owner in by_rep.values() if owner not in folded.values()} == {"a"}
    else:
        uncommitted = legacy_similar_blob({"a": 2}, {b"\xff" * 20: ("a", 2)})
        for seq, record in enumerate(records + [uncommitted]):
            objects[f"similar/log/{seq:012d}"] = record
    assert keys(store, "similar/")

    before = bucket_state(store.oss)
    inspected = reattach(store, run_recovery=False)
    assert similar_state(inspected) == expected
    assert bucket_state(store.oss) == before  # the inspection wrote nothing

    attached = reattach(store)
    assert similar_state(attached) == expected
    assert not keys(attached, "similar/")
    assert json.loads(objects["catalog/state.json"])["similar"]
    assert similar_state(reattach(attached)) == expected
    for name in ("a", "b/c"):
        assert attached.restore(name, 1).data == store.restore(name, 1).data


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
    store.backup("f", data)
    store.catalog.mark_pending("f", 0)
    store._persist_catalog()
    writes = record_writes(store, monkeypatch)
    # An update_references with the set it already holds records no op ...
    store.catalog.update_references("f", 0, store.catalog.references("f", 0))
    store.catalog.add_garbage("f", 0, [])
    store.catalog.mark_pending("f", 0)
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


def test_a_mark_without_container_ids_replays_and_drains(rng):
    """A pending mark as marks were written before they named the version's
    new containers replays on attach and drains over the version's catalog
    references."""
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    data = random_bytes(rng, 64 * 1024)
    store.backup("f", data)
    store.catalog_log.append(json.dumps([["mark_degraded", "f", 0]]).encode())
    attached = reattach(store)
    assert attached.pending_versions() == [("f", 0)]
    assert attached.catalog.pending_containers("f", 0) == sorted(
        attached.catalog.references("f", 0)
    )
    assert attached.drain().chunks_scanned > 0
    assert reattach(attached).pending_versions() == []
    assert attached.restore("f").data == data


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


def test_a_legacy_wal_mirror_attaches_with_every_index_entry(rng):
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    chain = [random_bytes(rng, 128 * 1024)]
    store.backup("f", chain[0])
    expected = index_items(store)
    # Re-express every shard's WAL as the previous release left it: the
    # whole segment mirrored to ``active.wal``, no record objects.
    bucket = "slimstore-index"
    objects = store.oss._backend(bucket)._objects
    for key in [key for key in objects if key.startswith("wal/")]:
        del objects[key]
    for shard in store.storage.global_index._shards:
        legacy = LegacyWriteAheadLog(store.oss, bucket, shard._name)
        for key, value in shard.iter_items():
            legacy.log_put(key, value)

    attached = reattach(store)
    assert index_items(attached) == expected
    assert not store.oss.peek_keys(bucket, "wal/global-index-000/log/")
    chain.append(mutate(rng, chain[0], runs=2, run_bytes=4096))
    attached.backup("f", chain[1])
    again = reattach(attached)
    assert index_items(again) == index_items(attached)
    for version, payload in enumerate(chain):
        assert again.restore("f", version).data == payload
