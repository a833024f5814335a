"""Alias commits: a version byte-identical to its predecessor shares its recipe.

When the backup job's skip run, seeded at the base's first record, replays
the whole base unbroken, ``SlimStore.backup`` commits the version as one
catalog record naming its *origin* (the newest version of the path that owns
a recipe) and writes nothing else.  This suite pins the contract down:

* every reader resolves an alias through the catalog — restore, browse,
  scrub, snapshots, and a reattached store (checkpoint and log alike);
* a recipe is deleted, and its similar-index entries forgotten, exactly
  when the last live version resolving to it drops; deleting everything
  leaves no container or recipe bytes behind;
* a changed version after an alias deduplicates against the origin;
* an unchanged small file costs 1 GET and 1 PUT, and no journal object;
* a crash at every write of an alias backup, a changed backup after an
  alias, and the deletes of an origin and of its last alias recovers to a
  consistent repository;
* a Hypothesis sequence of backups, deletes and reattaches agrees with a
  dict-of-bytes model.
"""

from __future__ import annotations

import urllib.parse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SlimStore, SlimStoreConfig
from repro.core import recipe as recipes
from repro.core.browse import BrowseSession
from repro.errors import SimulatedCrashError
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from tests.conftest import (
    SMALL_CONFIG,
    bucket_state,
    make_version_chain,
    mutate,
    random_bytes,
)
from tests.integration.test_crash_matrix import (
    assert_zero_debris,
    attach,
    reattach,
    run_matrix,
)

BUCKET = "slimstore"


def recipe_versions(store: SlimStore) -> dict[str, set[int]]:
    """path → versions whose recipe object exists on OSS."""
    found: dict[str, set[int]] = {}
    for key in store.oss.peek_keys(BUCKET, "recipes/"):
        _, path, version = key.split("/")
        found.setdefault(urllib.parse.unquote(path), set()).add(int(version))
    return found


def assert_recipes_follow_catalog(store: SlimStore) -> None:
    """Exactly the recipes live versions resolve to exist, each above the
    whole-read cap with its index, and the similar index's latest is the
    newest version's origin."""
    catalog = store.catalog
    expected = {
        path: {catalog.recipe_version(path, v) for v in catalog.versions(path)}
        for path in catalog.paths()
    }
    assert recipe_versions(store) == expected
    # An index exists for exactly the live recipes above the cap, so none
    # outlives its recipe.
    large = set()
    for path, versions in expected.items():
        for version in versions:
            name = f"{urllib.parse.quote(path, safe='')}/{version:06d}"
            if store.oss.peek_size(BUCKET, "recipes/" + name) > recipes.WHOLE_RECIPE_BYTES:
                large.add("recipeidx/" + name)
    assert set(store.oss.peek_keys(BUCKET, "recipeidx/")) == large
    similar = store.storage.similar_index
    for path, versions in expected.items():
        live = catalog.versions(path)
        assert similar.latest_version(path) == catalog.recipe_version(path, live[-1])
    for owner in similar._by_rep.values():
        assert owner[1] in expected.get(owner[0], set()), owner


def aliases_of(reports) -> list[int | None]:
    return [report.result.alias_of for report in reports]


@pytest.fixture
def chain(rng) -> list[bytes]:
    """Payloads of versions 0-3: v1 repeats v0, v3 repeats the changed v2."""
    data = random_bytes(rng, 160 * 1024)
    changed = mutate(rng, data, runs=2, run_bytes=4096)
    return [data, data, changed, changed]


@pytest.fixture
def store(chain) -> SlimStore:
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    reports = [store.backup("f", payload) for payload in chain]
    assert aliases_of(reports) == [None, 0, None, 2]
    return store


class TestReads:
    def test_restore_every_version(self, store, chain):
        for version, payload in enumerate(chain):
            result = store.restore("f", version)
            assert result.data == payload
            assert result.version == version
        assert store.restore("f").data == chain[-1]
        assert_recipes_follow_catalog(store)

    def test_browse_every_version(self, store, chain):
        session = BrowseSession(store)
        for version, payload in enumerate(chain):
            for offset in (0, 5000, len(payload) - 100):
                got = session.read("f", offset, 4096, version=version)
                assert got == payload[offset : offset + 4096]

    def test_scrub_checks_each_recipe_once(self, store):
        report = store.scrub()
        assert report.clean
        assert report.recipes_checked == 2

    def test_snapshots_of_unchanged_trees(self, rng):
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        files = {"vol/a": random_bytes(rng, 40 * 1024), "vol/b": random_bytes(rng, 30 * 1024)}
        first, _ = store.backup_snapshot(files)
        second, reports = store.backup_snapshot(files)
        assert aliases_of(reports) == [0, 0]
        assert store.restore_snapshot(first) == files
        assert store.restore_snapshot(second) == files
        store.delete_snapshot(first)
        assert store.restore_snapshot(second) == files
        assert_recipes_follow_catalog(store)

    @pytest.mark.parametrize("fold", [False, True])
    def test_reattach(self, store, chain, fold):
        if fold:
            store.fold_metadata()  # the alias map rides the checkpoint
        survivor = reattach(store)
        assert survivor.catalog.to_json() == store.catalog.to_json()
        for version, payload in enumerate(chain):
            assert survivor.restore("f", version).data == payload
        assert_recipes_follow_catalog(survivor)

class TestLifetime:
    def test_fifo_deletion_drops_a_recipe_with_its_last_version(self, store, chain, rng):
        fresh = SlimStore(SMALL_CONFIG, ObjectStorageService()).space_report()
        expected_recipes = [{0, 2}, {2}, {2}, set()]
        for version, recipes in enumerate(expected_recipes):
            store.delete_version("f", version)
            assert recipe_versions(store).get("f", set()) == recipes
            assert_recipes_follow_catalog(store)
            for later in range(version + 1, len(chain)):
                assert store.restore("f", later).data == chain[later]
        space = store.space_report()
        assert (space.container_bytes, space.recipe_bytes) == (
            fresh.container_bytes,
            fresh.recipe_bytes,
        )
        assert store.storage.similar_index.latest_version("f") is None
        assert not store.storage.similar_index._by_rep
        # The path starts over at version 0.
        assert store.backup("f", chain[0]).version == 0
        assert store.restore("f", 0).data == chain[0]

    def test_a_drain_compacting_an_origin_repoints_its_aliases(self, rng):
        """Version 5 repeats version 4 before either's G-node pass ran; the
        drain compacts 4's recipe, and 5 — sharing it — follows along, so
        dropping versions 0-4 keeps every container 5 needs."""
        payloads = make_version_chain(rng, versions=5, size=128 * 1024,
                                      runs=4, run_bytes=8 * 1024)
        payloads.append(payloads[-1])
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        reports = [store.backup("f", data, run_gnode=False) for data in payloads]
        assert aliases_of(reports) == [None] * 5 + [4]
        committed = store.catalog.references("f", 4)
        store.drain()
        compacted = store.catalog.references("f", 4)
        assert compacted != committed
        assert store.catalog.references("f", 5) == compacted
        survivor = reattach(store)
        assert survivor.catalog.references("f", 5) == compacted
        for version in range(5):
            survivor.delete_version("f", version)
        assert survivor.restore("f", 5).data == payloads[-1]
        assert_zero_debris(survivor)
        assert_recipes_follow_catalog(survivor)

    def test_changed_version_after_an_alias_dedups_against_the_origin(self, chain, rng):
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        store.backup("f", chain[0], run_gnode=False)
        store.backup("f", chain[0], run_gnode=False)
        origin = store.storage.recipes.get_recipe("f", 0)
        changed = mutate(rng, chain[0], runs=1, run_bytes=2048)
        result = store.backup("f", changed, run_gnode=False).result
        assert result.version == 2 and result.alias_of is None
        assert result.counters.get("detect_by_name") == 1
        assert result.dedup_ratio > 0.9
        old = origin.referenced_containers()
        dup = {r.container_id for r in result.recipe.all_records() if r.is_duplicate}
        assert dup and dup <= old
        assert store.restore("f", 2).data == changed

    def test_a_prefix_ending_on_a_cut_is_not_an_alias(self, chain):
        """Every chunk of the prefix is a verified prediction, but the run
        does not cover the whole base: a recipe is committed."""
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        records = store.backup("f", chain[0]).result.recipe.all_records()
        prefix = chain[0][: len(chain[0]) - records[-1].size]
        result = store.backup("f", prefix).result
        assert result.counters.get("skip_success") == result.counters.get("chunks")
        assert result.alias_of is None
        assert store.restore("f", 1).data == prefix
        assert_recipes_follow_catalog(store)

    def test_deleted_non_latest_version_leaves_no_similarity_base(self, rng):
        """FIFO deletion of a version that is not the latest used to leave
        its representatives behind; a new path whose header matched them
        then failed in ``open_recipe``."""
        store = SlimStore(SlimStoreConfig(), ObjectStorageService())
        first = random_bytes(rng, 1 << 20)
        store.backup("A", first)
        store.backup("A", random_bytes(rng, 1 << 20))
        store.delete_version("A", 0)
        assert store.catalog.paths() == ["A"]
        report = store.backup("B", first[: 512 * 1024])
        assert report.result.counters.get("detect_none") == 1
        assert store.restore("B").data == first[: 512 * 1024]
        assert_recipes_follow_catalog(store)

    def test_vanished_similarity_base_is_no_base(self, rng):
        store = SlimStore(SlimStoreConfig(), ObjectStorageService())
        first = random_bytes(rng, 1 << 20)
        store.backup("A", first)
        # An index entry outliving its recipe (as a stale one would).
        store.storage.recipes.delete_recipe("A", 0)
        report = store.backup("B", first[: 512 * 1024])
        assert report.result.counters.get("detect_none") == 1
        assert store.restore("B").data == first[: 512 * 1024]

    def test_the_view_follows_a_drop_no_process_replays(self, rng):
        """Kill the delete retiring recipe 0 right after its commit record
        landed, and attach read-only, so no intent is replayed: the
        similar-file view already lacks the recipe's entries, because the
        commit record itself carries the drop."""
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        data = random_bytes(rng, 160 * 1024)
        for payload in (data, data, random_bytes(rng, 160 * 1024)):
            store.backup("f", payload)
        fps = [r.fp for r in store.storage.recipes.get_recipe("f", 0).all_records()]
        similar = store.storage.similar_index
        store.delete_version("f", 0)  # version 1 still resolves to recipe 0
        assert ("f", 0) in similar.owners()
        assert similar.find_similar(fps) == ("f", 0)
        policy = FaultPolicy()
        policy.crash_after_writes(2)  # the intent, then the commit record
        store.oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.delete_version("f", 1)
        assert ("f", 0) not in similar.owners()  # dropped with the op itself
        store.oss.set_fault_policy(None)
        inspected = SlimStore(SMALL_CONFIG, store.oss)
        inspected.recover(run_recovery=False)
        assert inspected.storage.journal.open_intents()
        assert recipe_versions(inspected)["f"] == {0, 2}  # not yet deleted
        view = inspected.storage.similar_index
        assert ("f", 0) not in view.owners()
        assert view.find_similar(fps) != ("f", 0)
        assert view.latest_version("f") == 2
        survivor = reattach(inspected)
        assert_recipes_follow_catalog(survivor)

    def test_requests_of_one_delete_version(self, rng):
        """Retiring a recipe costs its journal intent, the commit record, one
        batched DELETE for the recipe and its index, and the intent's close."""
        store = SlimStore(SMALL_CONFIG, ObjectStorageService())
        data = random_bytes(rng, 96 * 1024)
        store.backup("f", data)
        store.backup("f", data)  # an alias of version 0
        store.backup("f", data + b"tail")  # shares every container
        store.fold_metadata()
        requests = record_requests(store)
        store.delete_version("f", 0)
        # Version 1 still resolves to recipe 0: nothing but the commit.
        assert requests == [
            ("put_object", "journal/"),
            ("put_object", "catalog/"),
            ("delete_object", "journal/"),
        ]
        requests.clear()
        store.delete_version("f", 1)
        assert requests == [
            ("put_object", "journal/"),
            ("put_object", "catalog/"),
            ("delete_objects", "recipes/f/000000,recipeidx/f/000000"),
            ("delete_object", "journal/"),
        ]
        assert_recipes_follow_catalog(store)


def record_requests(store: SlimStore) -> list[tuple[str, str]]:
    """Every request ``store``'s endpoint serves from here on, as (verb, key
    family) — a batched DELETE names its keys."""
    log: list[tuple[str, str]] = []
    oss = store.oss
    for verb in ("put_object", "get_object", "get_range", "get_ranges", "delete_object",
                 "delete_objects", "list_objects", "head_object"):
        original = getattr(oss, verb)

        def spy(bucket, key, *args, _verb=verb, _original=original, **kwargs):
            shown = ",".join(key) if isinstance(key, list) else key.split("/")[0] + "/"
            log.append((_verb, shown))
            return _original(bucket, key, *args, **kwargs)

        setattr(oss, verb, spy)
    return log


def test_an_unchanged_small_file_costs_one_get_and_one_put(rng):
    store = SlimStore(SlimStoreConfig(), ObjectStorageService())
    data = random_bytes(rng, 4096)
    store.backup("src/main.c", data)
    requests = record_requests(store)
    before = store.oss.stats.snapshot()
    report = store.backup("src/main.c", data)
    traffic = store.oss.stats.diff(before)
    assert report.result.alias_of == 0
    # The whole recipe; the commit record.
    assert requests == [("get_object", "recipes/"), ("put_object", "catalog/")]
    assert (traffic.get_requests, traffic.put_requests, traffic.delete_requests) == (1, 1, 0)
    assert not store.oss.peek_keys(BUCKET, "journal/")
    assert report.reverse_dedup is None and report.compaction is None


# ---------------------------------------------------------------------------
# Crash at every write
# ---------------------------------------------------------------------------


def build(payloads: list[bytes], deletes: int = 0) -> dict:
    store = attach()
    for payload in payloads:
        store.backup("f", payload)
    for version in range(deletes):
        store.delete_version("f", version)
    return bucket_state(store.oss)


def sweep(base_state, action, outcomes: dict[tuple[int, ...], list[bytes]]) -> int:
    """Crash ``action`` at every write; the survivor holds one of
    ``outcomes`` (live versions → their payloads), consistently."""

    def verify(survivor: SlimStore, crash_at: int) -> None:
        versions = tuple(survivor.versions("f"))
        assert versions in outcomes, (crash_at, versions)
        for version, payload in zip(versions, outcomes[versions]):
            assert survivor.restore("f", version).data == payload, (crash_at, version)
        assert_recipes_follow_catalog(survivor)
        assert_zero_debris(survivor)

    return run_matrix(base_state, action, verify)


class TestCrashMatrix:
    @pytest.fixture(scope="class")
    def payloads(self) -> tuple[bytes, bytes]:
        rng = np.random.default_rng(4242)
        data = random_bytes(rng, 128 * 1024)
        return data, mutate(rng, data, runs=3, run_bytes=8 * 1024)

    def test_alias_backup(self, payloads):
        data, _ = payloads
        writes = sweep(
            build([data]),
            lambda store: store.backup("f", data),
            {(0,): [data], (0, 1): [data, data]},
        )
        assert writes == 1  # the commit record, and nothing else

    def test_changed_backup_after_an_alias(self, payloads):
        data, changed = payloads
        writes = sweep(
            build([data, data]),
            lambda store: store.backup("f", changed),
            {(0, 1): [data, data], (0, 1, 2): [data, data, changed]},
        )
        assert writes > 5

    def test_delete_of_an_origin_with_a_live_alias(self, payloads):
        data, changed = payloads
        sweep(
            build([data, data, changed]),
            lambda store: store.delete_version("f", 0),
            {(0, 1, 2): [data, data, changed], (1, 2): [data, changed]},
        )

    def test_delete_of_its_last_alias(self, payloads):
        data, changed = payloads
        sweep(
            build([data, data, changed], deletes=1),
            lambda store: store.delete_version("f", 1),
            {(1, 2): [data, changed], (2,): [changed]},
        )


# ---------------------------------------------------------------------------
# A random sequence against a dict-of-bytes model
# ---------------------------------------------------------------------------

PATHS = ("a", "b")
operation = st.one_of(
    st.tuples(st.just("same"), st.sampled_from(PATHS)),
    st.tuples(st.just("mutate"), st.sampled_from(PATHS), st.integers(0, 2**16)),
    st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    st.tuples(st.just("reattach")),
)


@settings(max_examples=30)
@given(st.lists(operation, min_size=1, max_size=12))
def test_sequences_match_a_dict_of_bytes_model(operations):
    store = SlimStore(SMALL_CONFIG, ObjectStorageService())
    model: dict[str, dict[int, bytes]] = {path: {} for path in PATHS}
    seeds = {path: random_bytes(np.random.default_rng(index), 48 * 1024)
             for index, path in enumerate(PATHS)}
    for name, *args in operations:
        if name == "reattach":
            store = reattach(store)
            continue
        path = args[0]
        live = model[path]
        if name == "delete":
            if live:
                oldest = min(live)
                store.delete_version(path, oldest)
                del live[oldest]
            continue
        previous = live[max(live)] if live else None
        current = seeds[path] if previous is None else previous
        if name == "mutate":
            rng = np.random.default_rng(args[1])
            current = mutate(rng, current, runs=1, run_bytes=2048)
        report = store.backup(path, current)
        if current != previous:
            assert report.result.alias_of is None
        # (Unchanged bytes may still commit a recipe: a run whose duplicate
        # times reach the merge threshold is merged, which is a change.)
        live[report.version] = current
        for version, payload in live.items():
            assert store.restore(path, version).data == payload
        assert_recipes_follow_catalog(store)
    survivor = reattach(store)
    for path, live in model.items():
        assert survivor.versions(path) == sorted(live)
        for version, payload in live.items():
            assert survivor.restore(path, version).data == payload
    assert_recipes_follow_catalog(survivor)
    assert_zero_debris(survivor)
