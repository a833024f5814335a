"""Tests for the discrete-event kernel and the cluster simulator."""

import pytest

from repro.core.cluster import ClusterSimulator, JobSpec
from repro.sim.cost_model import CostModel
from repro.sim.events import EventLoop, SlotResource

MB = float(1 << 20)


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        assert loop.run() == 2.0
        assert order == ["early", "late"]

    def test_ties_break_by_schedule_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        seen = []

        def chain():
            seen.append(loop.now)
            if len(seen) < 3:
                loop.schedule(1.0, chain)

        loop.schedule(1.0, chain)
        assert loop.run() == 3.0
        assert seen == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)


class TestSlotResource:
    def test_grants_up_to_capacity(self):
        loop = EventLoop()
        resource = SlotResource(loop, 2)
        granted = []
        for index in range(3):
            resource.acquire(lambda i=index: granted.append(i))
        loop.run()
        assert granted == [0, 1]
        assert resource.queued == 1

    def test_release_hands_to_waiter(self):
        loop = EventLoop()
        resource = SlotResource(loop, 1)
        log = []

        def holder():
            log.append("holder")
            loop.schedule(5.0, resource.release)

        resource.acquire(holder)
        resource.acquire(lambda: log.append("waiter"))
        loop.run()
        assert log == ["holder", "waiter"]

    def test_over_release_rejected(self):
        loop = EventLoop()
        resource = SlotResource(loop, 1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            SlotResource(EventLoop(), 0)


class TestClusterSimulator:
    def test_single_job_duration(self):
        cluster = ClusterSimulator(1, CostModel())
        job = JobSpec(logical_bytes=MB, cpu_seconds=0.01, network_bytes=0)
        report = cluster.run([job])
        assert report.makespan_seconds == pytest.approx(0.01)
        assert report.aggregate_throughput_mb_s == pytest.approx(100.0)

    def test_parallel_jobs_within_slots(self):
        cluster = ClusterSimulator(1, CostModel(), slots_per_node=4)
        job = JobSpec(MB, 0.01, 0)
        report = cluster.run([job] * 4)
        assert report.makespan_seconds == pytest.approx(0.01)
        assert report.aggregate_throughput_mb_s == pytest.approx(400.0)

    def test_waves_beyond_slots(self):
        cluster = ClusterSimulator(1, CostModel(), slots_per_node=2)
        report = cluster.run([JobSpec(MB, 0.01, 0)] * 4)
        assert report.makespan_seconds == pytest.approx(0.02)

    def test_jobs_spread_over_nodes(self):
        cluster = ClusterSimulator(3, CostModel(), slots_per_node=1)
        report = cluster.run([JobSpec(MB, 0.01, 0)] * 3)
        assert report.makespan_seconds == pytest.approx(0.01)

    def test_nic_contention_slows_network_phase(self):
        model = CostModel()
        cluster = ClusterSimulator(1, model, slots_per_node=8)
        heavy = JobSpec(MB, 0.0001, network_bytes=model.node_nic_bandwidth * 0.01)
        alone = cluster.run([heavy]).makespan_seconds
        crowd = cluster.run([heavy] * 8).makespan_seconds
        assert crowd > 2 * alone

    def test_heterogeneous_jobs(self):
        cluster = ClusterSimulator(2, CostModel(), slots_per_node=1)
        report = cluster.run(
            [JobSpec(MB, 0.03, 0), JobSpec(MB, 0.01, 0), JobSpec(MB, 0.01, 0)]
        )
        # Round-robin: node 0 gets jobs 0 and 2 (serialised behind the
        # 0.03 s job), node 1 gets job 1.
        assert report.makespan_seconds == pytest.approx(0.04)
        assert sorted(report.completion_times) == pytest.approx([0.01, 0.03, 0.04])

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ClusterSimulator(0)
