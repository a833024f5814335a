"""Tests for the bench harness, Fig 10 scaling and reporting."""

import pytest

from repro.bench.harness import BackupSeries, VersionStats, run_backup_series
from repro.bench.reporting import format_series, format_table
from repro.bench.scaling import restic_aggregate_throughput
from repro.core.cluster import ClusterSimulator, JobSpec, RestoreJobSpec
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown
from repro.workloads.base import BackupFile, DatasetVersion

MB = float(1 << 20)


class _FakeResult:
    def __init__(self, logical: int, stored: int, cpu: float):
        self.logical_bytes = logical
        self.stored_chunk_bytes = stored
        self.breakdown = TimeBreakdown()
        self.breakdown.charge("other", cpu)
        self.counters = Counters()


class TestVersionStats:
    def test_absorb_accumulates(self):
        stats = VersionStats(0)
        stats.absorb(_FakeResult(100, 40, 0.1))
        stats.absorb(_FakeResult(100, 10, 0.1))
        assert stats.logical_bytes == 200
        assert stats.stored_chunk_bytes == 50
        assert stats.dedup_ratio == pytest.approx(0.75)
        assert stats.elapsed_seconds == pytest.approx(0.2)

    def test_empty_stats(self):
        stats = VersionStats(0)
        assert stats.dedup_ratio == 0.0
        assert stats.throughput_mb_s == 0.0


class TestRunBackupSeries:
    def test_per_version_aggregation(self):
        versions = [
            DatasetVersion(0, [BackupFile("a", b"xx"), BackupFile("b", b"yy")]),
            DatasetVersion(1, [BackupFile("a", b"xx")]),
        ]
        calls = []

        def backup(path, data):
            calls.append(path)
            return _FakeResult(len(data), len(data), 0.01)

        series = run_backup_series("sys", backup, versions)
        assert calls == ["a", "b", "a"]
        assert [s.logical_bytes for s in series.versions] == [4, 2]
        assert series.total_logical_bytes() == 6

    def test_mean_throughput_skips_first(self):
        series = BackupSeries("sys")
        slow, fast = VersionStats(0), VersionStats(1)
        slow.absorb(_FakeResult(int(MB), 0, 1.0))
        fast.absorb(_FakeResult(int(MB), 0, 0.1))
        series.versions = [slow, fast]
        assert series.mean_throughput() == pytest.approx(10.0, rel=0.01)
        assert series.mean_throughput(skip_first=False) == pytest.approx(5.5, rel=0.01)


class TestScaling:
    """Fig 10's shape: SLIMSTORE curves off the event cluster at 6 L-nodes."""

    def test_slim_backup_linear_within_slots(self):
        cluster = ClusterSimulator(6)
        one = cluster.backup_throughput(JobSpec(MB, 0.01, 0), 1)
        twelve = cluster.backup_throughput(JobSpec(MB, 0.01, 0), 12)
        assert twelve == pytest.approx(12 * one)

    def test_slim_backup_spills_to_more_nodes(self):
        cluster = ClusterSimulator(6)
        # 72 jobs = 6 nodes x 12 slots: still one wave, fully linear.
        seventy_two = cluster.backup_throughput(JobSpec(MB, 0.01, 0), 72)
        one = cluster.backup_throughput(JobSpec(MB, 0.01, 0), 1)
        assert seventy_two == pytest.approx(72 * one)

    def test_slim_backup_waves_beyond_capacity(self):
        model = CostModel()
        cluster = ClusterSimulator(6, model)
        cap = 6 * model.node_backup_slots
        at_cap = cluster.backup_throughput(JobSpec(MB, 0.01, 0), cap)
        beyond = cluster.backup_throughput(JobSpec(MB, 0.01, 0), cap + 1)
        assert beyond < at_cap

    def test_slim_backup_nic_ceiling(self):
        cluster = ClusterSimulator(6)
        # Jobs whose upload rate saturates the NIC scale sub-linearly.
        heavy = cluster.backup_throughput(JobSpec(MB, 0.01, MB), 72)
        light = cluster.backup_throughput(JobSpec(MB, 0.01, 0), 72)
        assert heavy < light

    def test_slim_restore_slots(self):
        job = RestoreJobSpec(
            logical_bytes=MB,
            read_seconds=(0.004,) * 4,
            record_reads=(0, 1, 2, 3),
            record_cpu=(0.001,) * 4,
            demand_seconds=(0.0,) * 4,
            prefetch_threads=2,
        )
        cluster = ClusterSimulator(6)
        one = cluster.restore_throughput(job, 1)
        full = cluster.restore_throughput(job, 48)
        assert full == pytest.approx(48 * one)

    def test_restic_caps_at_serial_rate(self):
        job_bytes, elapsed, serial = MB, 0.008, 0.004
        single = restic_aggregate_throughput(job_bytes, elapsed, serial, 1)
        many = restic_aggregate_throughput(job_bytes, elapsed, serial, 100)
        assert many == pytest.approx(job_bytes / serial / MB, rel=0.01)
        assert many < 3 * single

    def test_zero_jobs(self):
        assert restic_aggregate_throughput(MB, 0.01, 0.001, 0) == 0.0
        assert ClusterSimulator(6).backup_throughput(JobSpec(MB, 0.01, 0), 0) == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("Title", ["col", "value"], [["a", 1], ["bbb", 2.5]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "col" in lines[2]
        assert "2.50" in lines[-1]
        # All rows align to the same width.
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_series_columns(self):
        text = format_series(
            "Fig", "x", ["a", "b"], {"s1": [1.0, 2.0], "s2": [3.0]}
        )
        assert "s1" in text and "s2" in text
        assert "-" in text.splitlines()[-1]  # missing value placeholder
