"""Tests for recipes, recipe indexes and the recipe store."""

import pytest

from repro.core.recipe import ChunkRecord, Recipe, RecipeIndex, RecipeStore
from repro.errors import RecipeError, VersionNotFoundError
from repro.fingerprint.hashing import fingerprint


def make_record(index: int, container: int = 0, superchunk: bool = False) -> ChunkRecord:
    return ChunkRecord(
        fp=fingerprint(f"chunk{index}".encode()),
        container_id=container,
        size=4096 + index,
        duplicate_times=index % 4,
        is_superchunk=superchunk,
        first_fp=fingerprint(f"first{index}".encode()) if superchunk else b"",
        first_size=1024 if superchunk else 0,
    )


def make_recipe(path="file.db", version=0, segments=3, records_per_segment=5) -> Recipe:
    recipe = Recipe(path=path, version=version)
    counter = 0
    for _ in range(segments):
        segment = []
        for _ in range(records_per_segment):
            segment.append(make_record(counter, superchunk=(counter % 7 == 3)))
            counter += 1
        recipe.segments.append(segment)
    recipe.total_bytes = sum(r.size for r in recipe.all_records())
    return recipe


class TestChunkRecord:
    def test_plain_roundtrip(self):
        record = make_record(1)
        restored, offset = ChunkRecord.read_from(record.to_bytes(), 0)
        assert restored == record
        assert offset == len(record.to_bytes())

    def test_superchunk_roundtrip(self):
        record = make_record(2, superchunk=True)
        restored, _ = ChunkRecord.read_from(record.to_bytes(), 0)
        assert restored.is_superchunk
        assert restored.first_fp == record.first_fp
        assert restored.first_size == record.first_size

    def test_is_duplicate_not_serialised(self):
        record = make_record(1)
        record.is_duplicate = True
        restored, _ = ChunkRecord.read_from(record.to_bytes(), 0)
        assert restored.is_duplicate is False

    def test_bad_fingerprint_rejected(self):
        with pytest.raises(RecipeError):
            ChunkRecord(fp=b"short", container_id=0, size=10)

    def test_superchunk_requires_first_fp(self):
        with pytest.raises(RecipeError):
            ChunkRecord(fp=b"\x01" * 20, container_id=0, size=10, is_superchunk=True)


class TestRecipe:
    def test_roundtrip(self):
        recipe = make_recipe()
        restored = Recipe.from_bytes(recipe.path, recipe.to_bytes())
        assert restored.version == recipe.version
        assert restored.total_bytes == recipe.total_bytes
        assert restored.all_records() == recipe.all_records()
        assert len(restored.segments) == 3

    def test_chunk_count(self):
        assert make_recipe(segments=2, records_per_segment=4).chunk_count() == 8

    def test_referenced_containers(self):
        recipe = Recipe(path="f", version=0)
        recipe.segments.append([make_record(0, container=3), make_record(1, container=9)])
        assert recipe.referenced_containers() == {3, 9}

    def test_empty_recipe_roundtrip(self):
        recipe = Recipe(path="empty", version=1)
        restored = Recipe.from_bytes("empty", recipe.to_bytes())
        assert restored.segments == []

    def test_bad_magic_rejected(self):
        payload = bytearray(make_recipe().to_bytes())
        payload[:8] = b"NOTMAGIC"
        with pytest.raises(RecipeError):
            Recipe.from_bytes("f", bytes(payload))


class TestRecipeIndex:
    def test_add_lookup(self):
        index = RecipeIndex()
        fp = fingerprint(b"x")
        index.add(fp, 3)
        index.add(fp, 5)
        index.add(fp, 3)  # duplicate ignored
        assert index.lookup(fp) == [3, 5]
        assert index.lookup(fingerprint(b"y")) == []

    def test_roundtrip(self):
        index = RecipeIndex()
        for i in range(20):
            index.add(fingerprint(str(i).encode()), i % 4)
        restored = RecipeIndex.from_bytes(index.to_bytes())
        assert restored.entries == index.entries

    def test_len_counts_entries(self):
        index = RecipeIndex()
        index.add(fingerprint(b"a"), 0)
        index.add(fingerprint(b"a"), 1)
        index.add(fingerprint(b"b"), 0)
        assert len(index) == 3


class TestRecipeIndexOf:
    def test_samples_segment_heads_and_superchunk_first_chunks(self):
        recipe = make_recipe(segments=3, records_per_segment=5)
        index = RecipeIndex.of(recipe.segments, 10**9)
        for ordinal, segment in enumerate(recipe.segments):
            assert ordinal in index.lookup(segment[0].fp)
            for record in segment[1:]:
                if record.is_superchunk:
                    assert index.lookup(record.first_fp) == [ordinal]
        assert RecipeIndex.of(recipe.segments, 1).lookup(recipe.segments[1][3].fp) == [1]

    def test_empty_recipe_has_an_empty_index(self):
        assert len(RecipeIndex.of([], 4)) == 0


class TestRecipeStore:
    @pytest.fixture
    def store(self, oss) -> RecipeStore:
        return RecipeStore(oss, "bucket")

    @pytest.fixture
    def ranged(self, monkeypatch) -> None:
        """Every recipe above the whole-read cap: read span by span."""
        monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", 0)

    def test_put_get_recipe(self, store):
        recipe = make_recipe("db/users.tbl", 2)
        store.put_recipe(recipe)
        loaded = store.get_recipe("db/users.tbl", 2)
        assert loaded.all_records() == recipe.all_records()

    def test_missing_recipe_raises(self, store, ranged):
        with pytest.raises(VersionNotFoundError):
            store.get_recipe("ghost", 0)
        with pytest.raises(VersionNotFoundError):
            store.open_recipe("ghost", 0)
        store.put_recipe(make_recipe("f", 0))  # an overwrite: no index
        with pytest.raises(VersionNotFoundError):
            store.open_recipe("f", 0).recipe_index(4)

    def test_path_quoting(self, store):
        recipe = make_recipe("dir with spaces/weird%név", 0)
        store.put_recipe(recipe)
        assert store.get_recipe("dir with spaces/weird%név", 0).version == 0

    def test_open_recipe_segment_access(self, store, monkeypatch):
        recipe = make_recipe("f", 0, segments=4, records_per_segment=6)
        store.put_recipe(recipe)
        for cap, whole in ((512 * 1024, True), (0, False)):
            monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", cap)
            handle = store.open_recipe("f", 0)
            assert handle.whole is whole
            assert handle.segment_count == 4
            assert handle.get_segment(2) == recipe.segments[2]
            assert handle.get_segment_range(1, 10) == recipe.segments[1:]

    def test_small_recipe_opens_with_one_get(self, store, oss):
        recipe = make_recipe("f", 0, segments=8, records_per_segment=8)
        store.put_recipe(recipe, 4)
        assert oss.peek_keys("bucket", "recipeidx/") == []
        before = oss.stats.snapshot()
        handle = store.open_recipe("f", 0)
        opened = oss.stats.diff(before)
        assert (opened.get_requests, opened.bytes_read) == (
            1, oss.peek_size("bucket", "recipes/f/000000")
        )
        before = oss.stats.snapshot()
        assert handle.get_segment_range(2, 3) == recipe.segments[2:5]
        index = handle.recipe_index(4)
        assert oss.stats.diff(before).get_requests == 0
        assert index.entries == RecipeIndex.of(recipe.segments, 4).entries

    def test_index_written_only_above_the_cap(self, store, oss, monkeypatch):
        recipe = make_recipe("f", 0)
        size = len(recipe.to_bytes())
        monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", size)
        store.put_recipe(recipe, 4)
        assert oss.peek_keys("bucket", "recipeidx/") == []
        monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", size - 1)
        store.put_recipe(recipe, 4)
        assert oss.peek_keys("bucket", "recipeidx/") == ["recipeidx/f/000000"]

    def test_segment_fetch_is_ranged(self, store, oss, ranged):
        recipe = make_recipe("f", 0, segments=8, records_per_segment=32)
        store.put_recipe(recipe)
        handle = store.open_recipe("f", 0)
        before = oss.stats.snapshot()
        handle.get_segment(3)
        delta = oss.stats.diff(before)
        full_size = oss.peek_size("bucket", "recipes/f/000000")
        assert delta.bytes_read < full_size / 4

    def test_segment_range_single_request(self, store, oss, ranged):
        recipe = make_recipe("f", 0, segments=8, records_per_segment=8)
        store.put_recipe(recipe)
        handle = store.open_recipe("f", 0)
        before = oss.stats.snapshot()
        segments = handle.get_segment_range(2, 3)
        assert oss.stats.diff(before).get_requests == 1
        assert segments == recipe.segments[2:5]

    def test_segment_range_clamped_at_end(self, store):
        recipe = make_recipe("f", 0, segments=3)
        store.put_recipe(recipe)
        handle = store.open_recipe("f", 0)
        assert handle.get_segment_range(2, 10) == recipe.segments[2:]

    def test_segment_out_of_range(self, store):
        store.put_recipe(make_recipe("f", 0, segments=2))
        handle = store.open_recipe("f", 0)
        with pytest.raises(RecipeError):
            handle.get_segment(2)

    def test_recipe_index_roundtrip(self, store, oss, ranged):
        recipe = make_recipe("f", 0)
        store.put_recipe(recipe, 4)
        before = oss.stats.snapshot()
        index = store.open_recipe("f", 0).recipe_index(4)
        # Header, segment tables, the index object.
        assert oss.stats.diff(before).get_requests == 3
        assert index.entries == RecipeIndex.of(recipe.segments, 4).entries

    def test_delete_recipe(self, store, oss, ranged):
        store.put_recipe(make_recipe("f", 0), 4)
        assert oss.peek_keys("bucket", "recipeidx/") == ["recipeidx/f/000000"]
        assert store.delete_recipe("f", 0) is True
        with pytest.raises(VersionNotFoundError):
            store.get_recipe("f", 0)
        assert oss.peek_keys("bucket", "recipeidx/") == []
        assert store.delete_recipe("f", 0) is False

    def test_stored_bytes(self, store):
        assert store.stored_bytes() == 0
        store.put_recipe(make_recipe("f", 0))
        assert store.stored_bytes() > 0
