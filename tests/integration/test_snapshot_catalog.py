"""Snapshots as catalog state: what a full-volume run writes.

A run sends two journal requests per member that stores anything — its
``backup`` intent's PUT and DELETE — and none for an alias member; no
object under ``snapshots/``, no intent carrying the member map.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SlimStore, SlimStoreConfig
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, mutate, random_bytes

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
