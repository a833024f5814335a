"""Both recipe read paths build the same index and the same repository.

A backup opens a base recipe no larger than ``WHOLE_RECIPE_BYTES`` whole and
derives its recipe index with ``RecipeIndex.of``; a larger one is read span
by span and keeps the ``recipeidx/`` object its writer PUT.  With the cap
patched to 0 every recipe is "larger", which is also the format of every
repository written before the cap existed.  The derived index must equal
the written object byte for byte, and a repository written in that format
must keep growing exactly like one written at the default cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SlimStore
from repro.core.recipe import WHOLE_RECIPE_BYTES, RecipeIndex
from repro.oss.object_store import ObjectStorageService
from tests.conftest import (
    SMALL_CONFIG,
    bucket_state,
    make_version_chain,
    mutate,
    random_bytes,
    stable_versions,
)

BUCKET = "slimstore"
CAP = "repro.core.recipe.WHOLE_RECIPE_BYTES"


@pytest.mark.parametrize("chunk_merging", [False, True], ids=["nomerge", "merge"])
@pytest.mark.parametrize("chunker", ["fastcdc", "gear", "rabin", "fixed"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_the_derived_index_equals_the_written_one(chunker, chunk_merging, seed):
    config = SMALL_CONFIG.with_overrides(chunker=chunker, chunk_merging=chunk_merging)
    rng = np.random.default_rng(seed)
    base = random_bytes(rng, 128 * 1024)
    versions = stable_versions(base, 4) + [mutate(rng, base, runs=2, run_bytes=4096)]
    store = SlimStore(config, ObjectStorageService())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CAP, 0)
        for data in versions:
            store.backup("f", data)
    store.close()
    ratio = config.effective_sample_ratio()
    superchunks = 0
    for version in store.versions("f"):
        written = store.oss.get_object(BUCKET, f"recipeidx/f/{version:06d}")
        recipe = store.storage.recipes.get_recipe("f", version)
        assert RecipeIndex.of(recipe.segments, ratio).to_bytes() == written
        handle = store.storage.recipes.open_recipe("f", version)
        assert handle.whole
        assert handle.recipe_index(ratio).entries == RecipeIndex.from_bytes(written).entries
        superchunks += sum(record.is_superchunk for record in recipe.all_records())
    assert (superchunks > 0) is chunk_merging


def grow(workload: dict[str, list[bytes]], first_cap: int) -> tuple[dict, dict]:
    """Back up the first three versions of each path at ``first_cap``, then
    attach a new store at the default cap: back up the rest (plus a path
    similar to an old one), drop each path's oldest version."""
    oss = ObjectStorageService()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CAP, first_cap)
        store = SlimStore(SMALL_CONFIG, oss)
        for path, chain in workload.items():
            for data in chain[:3]:
                store.backup(path, data)
        store.close()
    store = SlimStore(SMALL_CONFIG, oss)
    store.recover()
    for path, chain in workload.items():
        for data in chain[3:]:
            store.backup(path, data)
    first = next(iter(workload))
    store.backup("copy-of-" + first, workload[first][1])
    for path in workload:
        store.delete_version(path, 0)
    restores = {
        (path, version): store.restore(path, version).data
        for path in store.catalog.paths()
        for version in store.versions(path)
    }
    store.close()
    return bucket_state(oss), restores


@pytest.mark.parametrize("seed", [1, 2])
def test_a_repository_with_an_index_per_recipe_grows_like_a_new_one(seed):
    rng = np.random.default_rng(seed)
    workload = {
        path: make_version_chain(rng, versions=5, size=160 * 1024) for path in ("a.db", "b.db")
    }
    legacy_state, legacy_restores = grow(workload, 0)
    state, restores = grow(workload, WHOLE_RECIPE_BYTES)
    assert legacy_restores == restores
    for path, chain in workload.items():
        for version in range(1, len(chain)):
            assert restores[(path, version)] == chain[version]
    legacy_indexes = {key for key in legacy_state[BUCKET] if key.startswith("recipeidx/")}
    # The old-format recipes still live keep their (never read) index; the
    # deleted ones took theirs with them.
    assert legacy_indexes == {
        key.replace("recipes/", "recipeidx/", 1)
        for key in legacy_state[BUCKET]
        if key.startswith("recipes/") and int(key.rsplit("/", 1)[1]) in (1, 2)
    }
    assert legacy_indexes
    for objects in (legacy_state[BUCKET], state[BUCKET]):
        for key in legacy_indexes:
            objects.pop(key, None)
    assert legacy_state == state
