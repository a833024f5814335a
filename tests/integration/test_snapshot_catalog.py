"""Snapshots as catalog state: what a full-volume run writes, and how a
repository written before (one ``snapshots/`` manifest per run, ``snapshot``
and ``delete_snapshot`` intents) attaches.

* a run sends two journal requests per member that stores anything — its
  ``backup`` intent's PUT and DELETE — and none for an alias member; no
  object under ``snapshots/``, no intent carrying the member map;
* legacy manifests and an open legacy ``snapshot`` intent attach to the
  same membership; a writing attach folds it into the catalog checkpoint
  and deletes every ``snapshots/`` key, an inspection attach writes
  nothing; an open legacy ``delete_snapshot`` intent is finished.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SlimStore, SlimStoreConfig
from repro.core.recovery import RecoveryManager
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, bucket_state, mutate, random_bytes

BUCKET = "slimstore"


def journal_requests(store: SlimStore, monkeypatch) -> list[tuple[str, str, int]]:
    """Every (verb, key, body bytes) request under ``journal/`` or
    ``snapshots/`` that ``store``'s endpoint serves from here on."""
    log: list[tuple[str, str, int]] = []
    for verb in ("put_object", "delete_object", "get_object"):
        original = getattr(store.oss, verb)

        def spy(bucket, key, *args, _verb=verb, _original=original, **kwargs):
            if key.startswith(("journal/", "snapshots/")):
                body = args[0] if _verb == "put_object" else b""
                log.append((_verb, key, len(body)))
            return _original(bucket, key, *args, **kwargs)

        monkeypatch.setattr(store.oss, verb, spy)
    return log


def test_a_run_sends_two_journal_requests_per_stored_member(monkeypatch):
    """200 files of 4 KiB: 400 journal requests, each PUT one ``backup``
    intent.  A second run with half the files unchanged sends two per
    changed file only (an alias commit writes no intent)."""
    store = SlimStore(SlimStoreConfig(), ObjectStorageService())
    files = {
        f"src/{i:04d}.c": random_bytes(np.random.default_rng(i), 4096)
        for i in range(200)
    }
    requests = journal_requests(store, monkeypatch)
    first, _ = store.backup_snapshot(files, run_gnode=False)
    assert len(requests) == 2 * len(files)
    assert not any(key.startswith("snapshots/") for _, key, _ in requests)
    puts = [key for verb, key, _ in requests if verb == "put_object"]
    assert len(puts) == len(set(puts)) == len(files)
    # The largest PUT is one backup intent: nothing grows with the run.
    widest = json.dumps({"kind": "backup", "payload": {
        "path": max(files, key=len), "version": 0, "watermark": 10 ** 6,
    }})
    assert max(size for verb, _, size in requests if verb == "put_object") < len(widest)

    requests.clear()
    changed = {path: data for i, (path, data) in enumerate(sorted(files.items())) if i % 2}
    second_files = dict(files)
    rng = np.random.default_rng(7)
    for path in changed:
        second_files[path] = mutate(rng, files[path], 1, 512)
    second, reports = store.backup_snapshot(second_files, run_gnode=False)
    aliases = sum(report.result.alias_of is not None for report in reports)
    assert aliases == len(files) - len(changed)
    assert len(requests) == 2 * len(changed)
    assert store.snapshots.list_ids() == [first, second]
    assert store.snapshots.get(second).members == {path: 1 for path in files}
    assert not store.oss.peek_keys(BUCKET, "snapshots/")


def test_an_empty_run_is_refused():
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    with pytest.raises(ValueError):
        store.backup_snapshot({})
    assert store.snapshots.list_ids() == []


# ---------------------------------------------------------------------------
# Legacy: manifests under ``snapshots/`` and the intents that wrote them
# ---------------------------------------------------------------------------


def reattach(store: SlimStore, run_recovery: bool = True) -> SlimStore:
    survivor = SlimStore(store.config, store.oss)
    survivor.recover(run_recovery=run_recovery)
    return survivor


def membership(store: SlimStore) -> dict[str, dict[str, int]]:
    return {sid: store.snapshots.get(sid).members for sid in store.snapshots.list_ids()}


def manifest(snapshot_id: str, members: dict[str, int]) -> bytes:
    """One manifest object as the previous layout wrote it."""
    return json.dumps({"snapshot_id": snapshot_id, "members": members}).encode()


def intent(kind: str, **payload) -> bytes:
    """One journal entry as the previous layout wrote it."""
    return json.dumps({"kind": kind, "payload": payload}).encode()


@pytest.fixture
def legacy(rng):
    """Two runs of two files, re-expressed as the previous layout left
    them: a folded checkpoint without the ``"snapshots"`` section (and no
    record naming a snapshot); the runs' manifests are the caller's."""
    older = {"vol/a": random_bytes(rng, 48 * 1024), "vol/b": random_bytes(rng, 32 * 1024)}
    newer = {path: mutate(rng, data, 1, 4096) for path, data in older.items()}
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    store.backup_snapshot(older)
    store.backup_snapshot(newer)
    store.fold_metadata()
    expected = membership(store)
    assert expected == {"00000000": {"vol/a": 0, "vol/b": 0},
                        "00000001": {"vol/a": 1, "vol/b": 1}}
    objects = store.oss._backend(BUCKET)._objects
    raw = json.loads(objects["catalog/state.json"])
    del raw["snapshots"]
    objects["catalog/state.json"] = json.dumps(raw).encode()
    assert not store.oss.peek_keys(BUCKET, "catalog/log/")
    return store, objects, expected, (older, newer)


@pytest.mark.parametrize("layout", ["manifests", "open_snapshot_intent"])
def test_legacy_runs_attach_to_the_same_membership(legacy, layout):
    """Both runs published (``manifests``), or the newer one cut short by a
    crash after its last member committed, before its manifest
    (``open_snapshot_intent``: the intent lists its members, one of them a
    version that never committed).  The attach yields the same membership;
    a writing attach folds it into the checkpoint and deletes every
    ``snapshots/`` key; an inspection attach writes nothing."""
    store, objects, expected, (older, newer) = legacy
    objects["snapshots/00000000"] = manifest("00000000", expected["00000000"])
    if layout == "manifests":
        objects["snapshots/00000001"] = manifest("00000001", expected["00000001"])
    else:
        members = dict(expected["00000001"], **{"vol/c": 0})
        objects["journal/000000000000.json"] = intent(
            "snapshot", snapshot_id="00000001", members=members
        )

    before = bucket_state(store.oss)
    inspected = reattach(store, run_recovery=False)
    assert bucket_state(store.oss) == before  # the inspection wrote nothing
    assert membership(inspected)["00000000"] == expected["00000000"]

    attached = reattach(store)
    assert membership(attached) == expected
    assert not attached.oss.peek_keys(BUCKET, "snapshots/")
    assert json.loads(objects["catalog/state.json"])["snapshots"] == expected
    assert RecoveryManager(attached).inspect().clean
    assert attached.restore_snapshot("00000000") == older
    assert attached.restore_snapshot("00000001") == newer

    # The next attach reads the checkpoint alone, and new runs go on.
    again = reattach(attached)
    assert membership(again) == expected
    third, _ = again.backup_snapshot(newer)
    assert third == "00000002"
    again.delete_snapshot("00000000")
    assert membership(reattach(again)) == {
        "00000001": expected["00000001"], third: {"vol/a": 2, "vol/b": 2}
    }


def test_an_open_legacy_delete_snapshot_intent_is_finished(legacy):
    """The previous layout died right after journaling the delete of the
    older run: the attach drops its members and the run."""
    store, objects, expected, (_older, newer) = legacy
    for snapshot_id, members in expected.items():
        objects[f"snapshots/{snapshot_id}"] = manifest(snapshot_id, members)
    objects["journal/000000000000.json"] = intent(
        "delete_snapshot", snapshot_id="00000000",
        members=[["vol/a", 0], ["vol/b", 0]],
    )
    attached = reattach(store)
    assert membership(attached) == {"00000001": expected["00000001"]}
    assert attached.versions("vol/a") == attached.versions("vol/b") == [1]
    assert attached.restore_snapshot("00000001") == newer
    assert not attached.oss.peek_keys(BUCKET, "snapshots/")
    inspection = RecoveryManager(attached).inspect()
    assert inspection.clean, inspection
    live = set(attached.storage.containers.container_ids())
    assert live <= attached.catalog.live_container_ids()
