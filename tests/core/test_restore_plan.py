"""Tests for the restore planner (container schedule + ranged spans)."""

import pytest

from repro.core.config import SlimStoreConfig
from repro.core.restore_plan import (
    RANGED_READ_GAP_BYTES,
    ReadSpan,
    RestorePlanner,
    coalesce_spans,
)
from repro.core.storage import StorageLayer
from repro.errors import RestoreError
from repro.sim.metrics import Counters, TimeBreakdown
from tests.conftest import RegisteringEngine, mutate, random_bytes

CONFIG = SlimStoreConfig(
    container_bytes=128 * 1024,
    segment_bytes=64 * 1024,
    min_superchunk_bytes=16 * 1024,
    max_superchunk_bytes=64 * 1024,
    merge_threshold=3,
)


@pytest.fixture
def storage(oss) -> StorageLayer:
    return StorageLayer.create(oss)


@pytest.fixture
def planner(storage) -> RestorePlanner:
    return RestorePlanner(storage)


def plan_for(planner, storage, path, version, ranged, gap=RANGED_READ_GAP_BYTES):
    records = storage.recipes.get_recipe(path, version).all_records()
    return planner.plan(records, ranged, gap, TimeBreakdown(), Counters())


class TestCoalesceSpans:
    def test_adjacent_extents_merge(self):
        spans = coalesce_spans({(0, 100), (100, 50)}, gap_bytes=0)
        assert spans == [ReadSpan(0, 150)]

    def test_gap_within_threshold_merges(self):
        spans = coalesce_spans({(0, 100), (150, 100)}, gap_bytes=64)
        assert spans == [ReadSpan(0, 250)]

    def test_gap_beyond_threshold_splits(self):
        spans = coalesce_spans({(0, 100), (200, 100)}, gap_bytes=64)
        assert spans == [ReadSpan(0, 100), ReadSpan(200, 100)]

    def test_overlapping_extents_merge(self):
        # A superchunk and an alias into its first chunk.
        spans = coalesce_spans({(0, 4096), (0, 512), (1024, 512)}, gap_bytes=0)
        assert spans == [ReadSpan(0, 4096)]

    def test_contained_extent_does_not_shrink_span(self):
        spans = coalesce_spans({(0, 4096), (512, 128)}, gap_bytes=0)
        assert spans == [ReadSpan(0, 4096)]

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            coalesce_spans({(0, 10)}, gap_bytes=-1)


class TestWholeContainerPlan:
    def test_one_read_per_container_in_first_use_order(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        backup.backup("f", random_bytes(rng, 400 * 1024))
        plan = plan_for(planner, storage, "f", 0, ranged=False)
        cids = [read.container_id for read in plan.reads]
        assert len(cids) == len(set(cids))
        assert [read.first_use for read in plan.reads] == sorted(
            read.first_use for read in plan.reads
        )
        assert all(read.spans is None for read in plan.reads)
        assert plan.bytes_saved == 0

    def test_whole_mode_charges_no_plan_traffic(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        backup.backup("f", random_bytes(rng, 200 * 1024))
        records = storage.recipes.get_recipe("f", 0).all_records()
        before = storage.oss.stats.snapshot()
        plan = planner.plan(
            records, False, RANGED_READ_GAP_BYTES, TimeBreakdown(), Counters()
        )
        assert storage.oss.stats.diff(before).get_requests == 0
        assert plan.plan_seconds == 0.0

    def test_read_for_record_marks_first_uses(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        backup.backup("f", random_bytes(rng, 300 * 1024))
        plan = plan_for(planner, storage, "f", 0, ranged=False)
        triggered = [i for i in plan.read_for_record if i >= 0]
        assert triggered == list(range(len(plan.reads)))


class TestRangedPlan:
    def test_fresh_version_plans_full_coverage(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        data = random_bytes(rng, 300 * 1024)
        backup.backup("f", data)
        plan = plan_for(planner, storage, "f", 0, ranged=True)
        assert all(read.spans for read in plan.reads)
        # A fresh version is contiguous: planned bytes cover the payload.
        assert plan.planned_bytes >= len(data)

    def test_aged_version_saves_bytes(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        data = random_bytes(rng, 256 * 1024)
        for _ in range(6):
            backup.backup("f", data)
            data = mutate(rng, data, runs=3, run_bytes=4 * 1024)
        # The latest version reuses a few chunks from many old containers:
        # ranged reads skip the stale bytes of those containers.
        plan = plan_for(planner, storage, "f", 5, ranged=True, gap=0)
        assert plan.bytes_saved > 0
        for read in plan.reads:
            assert read.planned_bytes <= read.container_bytes

    def test_meta_reads_counted_and_charged(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        backup.backup("f", random_bytes(rng, 300 * 1024))
        counters = Counters()
        records = storage.recipes.get_recipe("f", 0).all_records()
        plan = planner.plan(records, True, 0, TimeBreakdown(), counters)
        assert counters.get("plan_meta_reads") == len(plan.reads)
        assert plan.plan_seconds > 0

    def test_moved_chunk_resolved_at_plan_time(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        data = random_bytes(rng, 128 * 1024)
        result = backup.backup("f", data)
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        victim = meta.live_entries()[0]
        payload = storage.containers.read_data(cid)
        chunk = payload[victim.offset : victim.offset + victim.size]
        builder = storage.containers.new_builder(CONFIG.container_bytes)
        builder.add_chunk(victim.fp, chunk)
        storage.containers.write(builder)
        storage.global_index.assign(victim.fp, builder.container_id)
        meta.mark_deleted(victim.fp)
        storage.containers.update_meta(meta)

        counters = Counters()
        records = storage.recipes.get_recipe("f", 0).all_records()
        plan = planner.plan(records, True, 0, TimeBreakdown(), counters)
        assert counters.get("global_index_redirects") == 1
        resolved_cids = {r.container_id for r in plan.resolved}
        assert builder.container_id in resolved_cids

    def test_unknown_chunk_raises_with_container_id(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        result = backup.backup("f", random_bytes(rng, 64 * 1024))
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        victim = meta.live_entries()[0]
        meta.mark_deleted(victim.fp)
        storage.containers.update_meta(meta)
        storage.global_index.remove(victim.fp)
        records = storage.recipes.get_recipe("f", 0).all_records()
        with pytest.raises(RestoreError, match=f"container {cid}"):
            planner.plan(records, True, 0, TimeBreakdown(), Counters())

    def test_stale_index_entry_raises_with_container_id(self, planner, storage, rng):
        backup = RegisteringEngine(CONFIG, storage)
        result = backup.backup("f", random_bytes(rng, 64 * 1024))
        cid = result.new_container_ids[0]
        meta = storage.containers.read_meta(cid)
        victim = meta.live_entries()[0]
        meta.mark_deleted(victim.fp)
        storage.containers.update_meta(meta)
        # Point the index at a container that never held the chunk.
        other = storage.containers.new_builder(CONFIG.container_bytes)
        other.add_chunk(b"\x99" * 20, b"unrelated")
        storage.containers.write(other)
        storage.global_index.assign(victim.fp, other.container_id)
        records = storage.recipes.get_recipe("f", 0).all_records()
        with pytest.raises(RestoreError, match=f"container {other.container_id}"):
            planner.plan(records, True, 0, TimeBreakdown(), Counters())
