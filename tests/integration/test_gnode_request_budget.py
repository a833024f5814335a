"""What the inline G-node pass does *not* send.

The pass needs no bookkeeping of its own: the commit record's pending mark
is its recovery record, so a changed file's backup writes one journal
intent (the ``backup`` one), and the pass scans the metas its job wrote and
rewrites the containers it just updated without reading either back.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro import SlimStore
from repro.core.container import ContainerStore
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, random_bytes

BUCKET = "slimstore"


def record_requests(store: SlimStore, monkeypatch) -> list[tuple[str, str]]:
    """Every (verb, key) request ``store``'s endpoint serves from here on;
    a request sent inside a G-node-called ``rewrite`` has its verb prefixed
    with ``rewrite:``."""
    log: list[tuple[str, str]] = []
    inside = []
    for verb in ("put_object", "get_object", "get_range", "get_ranges",
                 "delete_object", "delete_objects"):
        original = getattr(store.oss, verb)

        def spy(bucket, key, *args, _verb=verb, _original=original, **kwargs):
            name = key if isinstance(key, str) else ",".join(key)
            log.append((f"rewrite:{_verb}" if inside else _verb, name))
            return _original(bucket, key, *args, **kwargs)

        monkeypatch.setattr(store.oss, verb, spy)
    rewrite = ContainerStore.rewrite

    def tracked(self, *args, **kwargs):
        inside.append(True)
        try:
            return rewrite(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(ContainerStore, "rewrite", tracked)
    return log


def by_prefix(log: list[tuple[str, str]]) -> Counter:
    return Counter((verb, key.split("/")[0]) for verb, key in log)


def test_inline_backup_of_a_changed_small_file_sends_no_bookkeeping(monkeypatch):
    """``f`` changes into the bytes ``g`` already stores.  The job follows
    ``f``'s own history, so it stores the chunk again; the inline pass
    finds ``g``'s copy through the global index, marks it deleted and
    rewrites (here: collects) ``g``'s container."""
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    shared = random_bytes(np.random.default_rng(1), 4096)
    store.backup("f", random_bytes(np.random.default_rng(2), 4096))
    store.backup("g", shared)
    (g_container,) = store.catalog.references("g", 0)
    log = record_requests(store, monkeypatch)
    report = store.backup("f", shared)
    assert report.reverse_dedup.duplicates_removed == 1
    assert not store.storage.containers.exists(g_container)
    counts = by_prefix(log)
    # The backup intent is the only journal traffic.
    assert counts[("put_object", "journal")] == 1
    assert counts[("delete_object", "journal")] == 1
    # The job's containers are scanned from the metas it holds ...
    written = {
        ContainerStore.META_KEY.format(cid=cid)
        for cid in report.result.new_container_ids
    }
    assert written
    assert not [key for verb, key in log if verb == "get_object" and key in written]
    # ... and the G-node's rewrite takes the meta it just persisted.
    assert [key for verb, key in log if verb.startswith("rewrite:")]
    assert not [
        key for verb, key in log if verb.startswith("rewrite:get") and key.endswith(".meta")
    ]
    # The version's clear rides the next record: one commit record so far.
    assert counts[("put_object", "catalog")] == 1
    assert store.restore("g", 0).data == shared
