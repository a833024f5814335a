"""Cluster ingest against the sharded index."""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterSimulator, JobSpec, ShardedIndexSpec
from repro.sim.cost_model import CostModel

MB = float(1 << 20)


class TestShardedIndexSpec:
    def test_lookups_spread_uniformly(self):
        spec = ShardedIndexSpec(shard_count=4, batch_size=8)
        assert spec.per_shard_keys(10) == [3, 3, 2, 2]
        assert sum(spec.per_shard_keys(1000)) == 1000

    def test_request_keys_tile_the_shard_share(self):
        spec = ShardedIndexSpec(shard_count=1, batch_size=8)
        assert spec.request_keys(20) == [8, 8, 4]
        assert spec.request_keys(0) == []

    def test_total_requests_shrink_with_batching(self):
        unbatched = ShardedIndexSpec(shard_count=4, batch_size=1)
        batched = ShardedIndexSpec(shard_count=4, batch_size=256)
        assert unbatched.total_requests(1024) == 1024
        assert batched.total_requests(1024) == 4

    def test_total_requests_round_each_shard_up(self):
        spec = ShardedIndexSpec(shard_count=1, batch_size=256)
        assert [spec.total_requests(k) for k in (0, 1, 256, 257)] == [0, 1, 1, 2]
        assert ShardedIndexSpec(shard_count=1).total_requests(512) == 512
        # 10 keys over 4 shards split 3/3/2/2: one partial batch each.
        assert ShardedIndexSpec(shard_count=4, batch_size=2).total_requests(10) == 6

    def test_validation(self):
        for bad in [
            {"shard_count": 0},
            {"batch_size": 0},
            {"slots_per_shard": 0},
        ]:
            with pytest.raises(ValueError):
                ShardedIndexSpec(**bad)


class TestClusterIndexContention:
    def _job(self, lookups: int) -> JobSpec:
        return JobSpec(
            logical_bytes=MB, cpu_seconds=0.0, network_bytes=0,
            index_lookups=lookups,
        )

    @pytest.mark.parametrize(
        "shards,batch", [(1, 1), (1, 256), (4, 1), (4, 256), (16, 256)]
    )
    def test_makespan_matches_the_closed_form(self, shards, batch):
        model = CostModel()
        cluster = ClusterSimulator(
            4, model, slots_per_node=2,
            index_spec=ShardedIndexSpec(shard_count=shards, batch_size=batch),
        )
        report = cluster.run([self._job(512)] * 8)
        # Shards drain concurrently, one server each: the busiest shard
        # (8 jobs x its share of round trips and per-key CPU) sets the pace.
        keys = -(-512 // shards)
        busiest = 8 * (
            -(-keys // batch) * model.oss_request_latency
            + keys * model.cpu_index_query
        )
        assert report.makespan_seconds == pytest.approx(busiest)

    def test_sharding_and_batching_each_cut_the_makespan(self):
        model = CostModel()

        def makespan(shards, batch):
            cluster = ClusterSimulator(
                4, model, slots_per_node=2,
                index_spec=ShardedIndexSpec(shard_count=shards, batch_size=batch),
            )
            return cluster.run([self._job(512)] * 8).makespan_seconds

        baseline = makespan(1, 1)
        assert makespan(4, 1) < baseline / 2  # sharding alone
        assert makespan(1, 256) < baseline / 2  # batching alone
        assert makespan(4, 256) < makespan(4, 1)
        assert makespan(4, 256) < makespan(1, 256)

    def test_rpc_accounting(self):
        spec = ShardedIndexSpec(shard_count=4, batch_size=256)
        cluster = ClusterSimulator(2, CostModel(), index_spec=spec)
        report = cluster.run([self._job(512)] * 6)
        assert report.index_rpcs == 6 * spec.total_requests(512)

    def test_jobs_without_lookups_skip_the_index(self):
        spec = ShardedIndexSpec(shard_count=4, batch_size=1)
        with_index = ClusterSimulator(1, CostModel(), index_spec=spec)
        without = ClusterSimulator(1, CostModel())
        job = JobSpec(MB, 0.01, 0)
        assert (
            with_index.run([job] * 3).makespan_seconds
            == without.run([job] * 3).makespan_seconds
        )
        assert with_index.run([job] * 3).index_rpcs == 0

    def test_from_backup_result_carries_unique_fps(self):
        class _Breakdown:
            def cpu_seconds(self):
                return 0.25

        class _Result:
            logical_bytes = MB
            uploaded_bytes = MB / 2
            breakdown = _Breakdown()
            unique_fps = [b"\x01" * 20, b"\x02" * 20]

        spec = JobSpec.from_backup_result(_Result())
        assert spec.index_lookups == 2
        assert spec.cpu_seconds == 0.25


class TestCrashModel:
    """Node deaths mid-job: wasted work + recovery, never lost jobs."""

    def _job(self) -> JobSpec:
        return JobSpec(logical_bytes=MB, cpu_seconds=1.0, network_bytes=0)

    def test_crash_adds_wasted_and_recovery_time_exactly(self):
        model = CostModel()
        cluster = ClusterSimulator(1, model, slots_per_node=1)
        baseline = cluster.run([self._job()]).makespan_seconds
        report = cluster.run([self._job()], crashes={0: 0.5})
        # Half the job wasted, one recovery scan, then the full retry.
        expected = 0.5 * baseline + 3 * model.oss_request_latency + baseline
        assert report.makespan_seconds == pytest.approx(expected)
        assert report.crashes_simulated == 1
        assert report.wasted_seconds == pytest.approx(0.5 * baseline)
        assert report.recovery_seconds_total == pytest.approx(
            3 * model.oss_request_latency
        )
        # The job still completes exactly once.
        assert len(report.completion_times) == 1

    def test_explicit_recovery_cost_and_multiple_crashes(self):
        cluster = ClusterSimulator(2, CostModel(), slots_per_node=1)
        jobs = [self._job() for _ in range(4)]
        report = cluster.run(
            jobs, crashes={0: 0.25, 3: 0.75}, recovery_seconds=2.0
        )
        assert report.crashes_simulated == 2
        assert report.recovery_seconds_total == pytest.approx(4.0)
        assert len(report.completion_times) == len(jobs)
        clean = cluster.run(jobs).makespan_seconds
        assert report.makespan_seconds > clean

    def test_crash_arguments_validated(self):
        cluster = ClusterSimulator(1, CostModel())
        with pytest.raises(ValueError):
            cluster.run([self._job()], crashes={1: 0.5})
        with pytest.raises(ValueError):
            cluster.run([self._job()], crashes={0: 1.0})
        with pytest.raises(ValueError):
            cluster.run([self._job()], crashes={0: 0.0})
