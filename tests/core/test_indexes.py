"""Tests for the similar-file index and the global index."""

import json

import pytest

from repro.core.global_index import GlobalIndex
from repro.core.similar_index import SimilarFileIndex, pack
from repro.core.system import VersionCatalog
from repro.fingerprint.hashing import fingerprint


def fps(prefix: str, count: int) -> list[bytes]:
    return [fingerprint(f"{prefix}{i}".encode()) for i in range(count)]


class TestSimilarFileIndex:
    @pytest.fixture
    def index(self) -> SimilarFileIndex:
        return SimilarFileIndex()

    def test_latest_version_tracking(self, index):
        assert index.latest_version("f") is None
        index.register("f", 0, fps("a", 4))
        index.register("f", 1, fps("b", 4))
        assert index.latest_version("f") == 1

    def test_find_similar_by_votes(self, index):
        index.register("one", 0, fps("one", 8))
        index.register("two", 0, fps("two", 8))
        query = fps("one", 8)[:5] + fps("two", 8)[:2]
        assert index.find_similar(query) == ("one", 0)

    def test_find_similar_none_without_overlap(self, index):
        index.register("one", 0, fps("one", 8))
        assert index.find_similar(fps("other", 8)) is None

    def test_find_similar_min_votes(self, index):
        index.register("one", 0, fps("one", 8))
        query = fps("one", 8)[:1]
        assert index.find_similar(query, min_votes=2) is None
        assert index.find_similar(query, min_votes=1) == ("one", 0)

    def test_persistence_roundtrip(self, index):
        """The view persists through the catalog: a commit record's
        representatives replay, and the checkpoint carries the owners."""
        catalog = VersionCatalog(index)
        for version in range(4):
            catalog.register("dir/f", version, {1}, [], pack(fps("x", 5)))
        replayed = VersionCatalog()
        replayed.replay(catalog.pending)
        for rebuilt in (replayed, VersionCatalog.from_json(catalog.to_json())):
            rebuilt.settle_view()
            assert rebuilt.similar.latest_version("dir/f") == 3
            assert rebuilt.similar.find_similar(fps("x", 5)) == ("dir/f", 3)

    def test_load_without_object(self):
        """Loading an empty view forgets every path and representative."""
        index = SimilarFileIndex()
        index.register("f", 0, fps("x", 5))
        index.load({})
        assert index.latest_version("f") is None
        assert index.find_similar(fps("x", 5)) is None

    def test_forget_version(self, index):
        index.register("f", 0, fps("x", 5))
        index.forget_version("f", 0)
        assert index.latest_version("f") is None
        assert index.find_similar(fps("x", 5)) is None

    def test_newer_registration_wins_representatives(self, index):
        shared = fps("shared", 4)
        index.register("old", 0, shared)
        index.register("new", 0, shared)
        assert index.find_similar(shared) == ("new", 0)

    def test_stored_bytes(self, index):
        """The view's bytes are its share of the catalog checkpoint."""
        catalog = VersionCatalog(index)
        empty = catalog.view_bytes()
        catalog.register("f", 0, {1}, [], pack(fps("x", 3)))
        assert catalog.view_bytes() > empty
        section = json.loads(catalog.to_json())["similar"]
        assert catalog.view_bytes() == len(json.dumps(section))


class TestGlobalIndex:
    @pytest.fixture
    def index(self, oss) -> GlobalIndex:
        return GlobalIndex(oss, "idxbucket", bloom_capacity=1024)

    def test_assign_lookup(self, index):
        fp = fingerprint(b"chunk")
        assert index.lookup(fp) is None
        index.assign(fp, 42)
        assert index.lookup(fp) == 42

    def test_reassign_moves_owner(self, index):
        fp = fingerprint(b"chunk")
        index.assign(fp, 1)
        index.assign(fp, 2)
        assert index.lookup(fp) == 2

    def test_remove(self, index):
        fp = fingerprint(b"chunk")
        index.assign(fp, 1)
        index.remove(fp)
        assert index.lookup(fp) is None

    def test_bloom_prefilter(self, index):
        known = fingerprint(b"known")
        index.assign(known, 1)
        assert index.maybe_contains(known)
        rejections = sum(
            0 if index.maybe_contains(fingerprint(f"new{i}".encode())) else 1
            for i in range(100)
        )
        assert rejections > 90
        assert index.counters.get("bloom_rejections") == rejections

    def test_counters(self, index):
        fp = fingerprint(b"x")
        index.assign(fp, 1)
        index.lookup(fp)
        assert index.counters.get("index_assigns") == 1
        assert index.counters.get("index_lookups") == 1

    def test_survives_flush(self, index):
        entries = {fingerprint(str(i).encode()): i for i in range(50)}
        for fp, cid in entries.items():
            index.assign(fp, cid)
        index.flush()
        for fp, cid in entries.items():
            assert index.lookup(fp) == cid

    def test_stored_bytes_after_flush(self, index):
        index.assign(fingerprint(b"x"), 1)
        index.flush()
        assert index.stored_bytes() > 0
