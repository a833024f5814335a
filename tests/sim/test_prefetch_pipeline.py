"""Tests for the event-driven LAW restore prefetch pipeline."""

import pytest

from repro.core.cluster import ClusterSimulator, RestoreJobSpec
from repro.sim.events import (
    ChannelPool,
    EventLoop,
    RestorePipelineProcess,
    simulate_restore_pipeline,
)


def uniform_trace(reads: int, read_s: float, cpu_s: float):
    """A trace where every record triggers exactly one read."""
    return (
        [read_s] * reads,             # read durations
        list(range(reads)),           # record i blocks on read i
        [cpu_s] * reads,              # per-record CPU
    )


class TestChannelPool:
    def test_hands_out_distinct_ids(self):
        loop = EventLoop()
        pool = ChannelPool(loop, 3)
        granted = []
        for _ in range(3):
            pool.acquire(granted.append)
        loop.run()
        assert sorted(granted) == [0, 1, 2]

    def test_released_channel_is_reused(self):
        loop = EventLoop()
        pool = ChannelPool(loop, 1)
        order = []
        pool.acquire(lambda cid: (order.append(cid), pool.release(cid)))
        pool.acquire(order.append)
        loop.run()
        assert order == [0, 0]

    def test_busy_accounting(self):
        loop = EventLoop()
        pool = ChannelPool(loop, 2)
        pool.occupy(0, 1.5)
        pool.occupy(1, 0.5)
        pool.occupy(0, 1.0)
        assert pool.busy_seconds == [2.5, 0.5]


class TestSerialPipeline:
    def test_zero_threads_matches_closed_form_exactly(self):
        reads, record_reads, cpu = uniform_trace(20, 0.01, 0.002)
        stats = simulate_restore_pipeline(
            reads, record_reads, cpu, threads=0, setup_seconds=0.05
        )
        # No prefetcher: every read stalls, so the stages serialise.
        assert stats.elapsed_seconds == pytest.approx(0.05 + sum(cpu) + sum(reads))
        assert stats.stall_count == 20
        assert stats.stall_seconds == pytest.approx(sum(reads))
        assert stats.channel_busy_seconds == []

    def test_demand_reads_add_serially(self):
        reads, record_reads, cpu = uniform_trace(5, 0.01, 0.001)
        demand = [0.0] * 5
        demand[3] = 0.25
        stats = simulate_restore_pipeline(
            reads, record_reads, cpu, threads=0, demand_seconds=demand
        )
        assert stats.demand_seconds == pytest.approx(0.25)
        assert stats.elapsed_seconds == pytest.approx(sum(reads) + sum(cpu) + 0.25)


class TestEventPipelineCrossCheck:
    """The acceptance bound: with whole-container uncontended reads the
    event schedule matches ``max(cpu, download/threads)`` within 1%
    (startup and tail effects shrink as ~1/#reads)."""

    def test_download_bound_within_one_percent(self):
        reads, record_reads, cpu = uniform_trace(200, 0.01, 0.0002)
        for threads in (1, 2, 4, 8):
            stats = simulate_restore_pipeline(reads, record_reads, cpu, threads)
            closed = max(sum(cpu), sum(reads) / threads)
            assert stats.elapsed_seconds >= closed
            assert stats.elapsed_seconds <= closed * 1.01

    def test_cpu_bound_within_one_percent(self):
        reads, record_reads, cpu = uniform_trace(200, 0.005, 0.02)
        for threads in (2, 4, 8):
            stats = simulate_restore_pipeline(reads, record_reads, cpu, threads)
            closed = max(sum(cpu), sum(reads) / threads)
            assert stats.elapsed_seconds >= closed
            assert stats.elapsed_seconds <= closed * 1.01

    def test_more_threads_never_slower(self):
        reads, record_reads, cpu = uniform_trace(64, 0.01, 0.001)
        elapsed = [
            simulate_restore_pipeline(reads, record_reads, cpu, t).elapsed_seconds
            for t in (0, 1, 2, 4, 8)
        ]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_channel_busy_sums_to_read_work(self):
        reads, record_reads, cpu = uniform_trace(50, 0.013, 0.001)
        stats = simulate_restore_pipeline(reads, record_reads, cpu, threads=4)
        assert len(stats.channel_busy_seconds) == 4
        assert sum(stats.channel_busy_seconds) == pytest.approx(sum(reads))

    def test_download_bound_job_stalls(self):
        reads, record_reads, cpu = uniform_trace(50, 0.02, 0.0001)
        stats = simulate_restore_pipeline(reads, record_reads, cpu, threads=1)
        assert stats.stall_count > 0
        assert stats.stall_seconds > 0

    def test_cache_hit_records_never_stall(self):
        # Only every fifth record triggers a read; the rest are hits.
        reads = [0.01] * 10
        record_reads = [(i // 5) if i % 5 == 0 else -1 for i in range(50)]
        cpu = [0.004] * 50
        stats = simulate_restore_pipeline(reads, record_reads, cpu, threads=2)
        # CPU (0.2s) dominates download (0.1s over 2 channels): only the
        # first read can stall the consumer.
        assert stats.stall_count <= 1

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            simulate_restore_pipeline([0.1], [0], [0.1], threads=-1)
        with pytest.raises(ValueError):
            simulate_restore_pipeline([0.1], [5], [0.1], threads=1)
        with pytest.raises(ValueError):
            simulate_restore_pipeline([0.1], [0, -1], [0.1], threads=1)


class TestSharedPoolContention:
    def test_two_jobs_share_channels(self):
        reads, record_reads, cpu = uniform_trace(40, 0.01, 0.0001)

        def run(jobs: int) -> float:
            loop = EventLoop()
            pool = ChannelPool(loop, 2)
            for _ in range(jobs):
                RestorePipelineProcess(
                    loop, pool, reads, record_reads, cpu, max_parallel=2
                ).start()
            return loop.run()

        alone = run(1)
        contended = run(2)
        # Both jobs want both channels: the pair takes about twice as
        # long as one job, and strictly longer than the uncontended run.
        assert contended > alone * 1.5
        assert contended < alone * 2.2


class TestClusterRestores:
    def job(self, reads=40, read_s=0.01, cpu_s=0.001, threads=4) -> RestoreJobSpec:
        read_seconds, record_reads, cpu = uniform_trace(reads, read_s, cpu_s)
        return RestoreJobSpec(
            logical_bytes=float(reads * 64 * 1024),
            read_seconds=tuple(read_seconds),
            record_reads=tuple(record_reads),
            record_cpu=tuple(cpu),
            demand_seconds=tuple([0.0] * reads),
            setup_seconds=0.01,
            prefetch_threads=threads,
        )

    def test_single_job_matches_standalone_pipeline(self):
        job = self.job()
        sim = ClusterSimulator(1)
        report = sim.run_restores([job])
        stats = simulate_restore_pipeline(
            job.read_seconds,
            job.record_reads,
            job.record_cpu,
            job.prefetch_threads,
            demand_seconds=job.demand_seconds,
            setup_seconds=job.setup_seconds,
        )
        assert report.makespan_seconds == pytest.approx(stats.elapsed_seconds)

    def test_channel_contention_slows_concurrent_jobs(self):
        sim = ClusterSimulator(1)
        alone = sim.run_restores([self.job(threads=8)], channels_per_node=16)
        # 4 download-bound jobs, each wanting 8 channels, share 16.
        crowd = sim.run_restores([self.job(threads=8)] * 4, channels_per_node=16)
        assert crowd.makespan_seconds > alone.makespan_seconds * 1.5
        assert crowd.prefetch_stalls > alone.prefetch_stalls

    def test_restore_slots_bound_concurrency(self):
        sim = ClusterSimulator(1)
        jobs = [self.job(threads=1)] * 4
        two_slots = sim.run_restores(jobs, restore_slots=2, channels_per_node=16)
        four_slots = sim.run_restores(jobs, restore_slots=4, channels_per_node=16)
        assert two_slots.makespan_seconds > four_slots.makespan_seconds

    def test_more_nodes_scale_throughput(self):
        jobs = [self.job(threads=4)] * 6
        one = ClusterSimulator(1).run_restores(jobs, channels_per_node=8)
        three = ClusterSimulator(3).run_restores(jobs, channels_per_node=8)
        assert three.makespan_seconds < one.makespan_seconds
        assert three.aggregate_throughput_mb_s > one.aggregate_throughput_mb_s
        assert len(three.node_channel_busy_seconds) == 3

    def test_restore_slot_waves(self):
        """6 nodes x 8 restore slots run in one wave; one more job queues
        for a second (Fig 10(b): "up to eight restore jobs" per L-node)."""
        sim = ClusterSimulator(6)
        job = self.job(threads=2)
        one = sim.restore_throughput(job, 1)
        assert sim.restore_throughput(job, 48) == pytest.approx(48 * one)
        assert sim.run_restores([job] * 49).makespan_seconds == pytest.approx(
            2 * sim.run_restores([job]).makespan_seconds
        )

    def test_measured_restore_replays_to_its_own_throughput(self, aged_store):
        """Fig 10(b) replays a measured restore on the cluster: one job on
        one node must reproduce the job's own throughput, demand reads
        (global-index redirects on the aged version) included."""
        store, _ = aged_store
        for version in (0, None):
            for threads in (0, 2, 6):
                result = store.restore(
                    "f", version, prefetch_threads=threads, ranged=False
                )
                if version == 0:
                    assert result.counters.get("global_index_redirects") > 0
                spec = RestoreJobSpec.from_restore_result(result)
                replayed = ClusterSimulator(1).restore_throughput(spec, 1)
                assert replayed == pytest.approx(result.throughput_mb_s, rel=1e-12)

    def test_zero_thread_jobs_serialise(self):
        job = self.job(threads=0)
        report = ClusterSimulator(1).run_restores([job])
        expected = (
            job.setup_seconds
            + sum(job.read_seconds)
            + sum(job.record_cpu)
            + sum(job.demand_seconds)
        )
        assert report.makespan_seconds == pytest.approx(expected)

    def test_channel_busy_recorded_per_node(self):
        report = ClusterSimulator(2).run_restores(
            [self.job()] * 2, channels_per_node=4
        )
        assert len(report.node_channel_busy_seconds) == 2
        total_read_work = 2 * sum(self.job().read_seconds)
        busy = sum(sum(node) for node in report.node_channel_busy_seconds)
        assert busy == pytest.approx(total_read_work)
