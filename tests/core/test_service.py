"""Control-plane behaviour: admission, fairness, breaker, leases, scaling."""

import numpy as np
import pytest

from repro import RetryPolicy, SlimStore, SlimStoreConfig
from repro.core.service import (
    CircuitBreaker,
    FairShareScheduler,
    JobRequest,
    ServiceControlPlane,
    ServicePolicy,
)
from repro.core.tenancy import BackupService
from repro.errors import RetryExhaustedError
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, make_version_chain, random_bytes

CONFIG = SlimStoreConfig(container_bytes=64 * 1024, segment_bytes=32 * 1024)


def make_plane(policy: ServicePolicy, **kwargs) -> ServiceControlPlane:
    return ServiceControlPlane(BackupService(config=CONFIG), policy, **kwargs)


def backup_job(tenant: str, rng, path: str = "f", size: int = 32 * 1024) -> JobRequest:
    return JobRequest(tenant=tenant, kind="backup", path=path, data=random_bytes(rng, size))


class TestPolicyValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServicePolicy(tenant_queue_limit=0)
        with pytest.raises(ValueError):
            ServicePolicy(min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            ServicePolicy(lease_seconds=0.0)
        with pytest.raises(ValueError):
            ServicePolicy(autoscale_low_depth=3.0, autoscale_high_depth=1.0)

    def test_unknown_job_kind_rejected(self):
        with pytest.raises(ValueError):
            JobRequest(tenant="alice", kind="compact")


class TestAdmissionControl:
    def test_tenant_queue_bound_rejects_with_retry_after(self, rng):
        policy = ServicePolicy(tenant_queue_limit=2, global_queue_limit=100,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(6):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"f{i}"))
        report = plane.run()
        # 1 dispatched immediately + 2 queued = 3 admitted; 3 shed.
        assert report.admitted == 3
        assert len(report.rejections) == 3
        for rejection in report.rejections:
            assert rejection.reason == "tenant-queue-full"
            assert rejection.retry_after > 0
        assert report.completed == 3  # every admitted job finished

    def test_global_queue_bound(self, rng):
        policy = ServicePolicy(tenant_queue_limit=100, global_queue_limit=3,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               autoscale_high_depth=1e9,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(8):
            tenant = "alice" if i % 2 == 0 else "bob"
            plane.submit_at(0.0, backup_job(tenant, rng, path=f"f{i}"))
        report = plane.run()
        assert report.admitted == 4  # 1 running + 3 queued
        assert {r.reason for r in report.rejections} == {"global-queue-full"}
        assert all(r.retry_after > 0 for r in report.rejections)

    def test_no_silent_drops(self, rng):
        """Every submission is either admitted or carries a rejection."""
        policy = ServicePolicy(tenant_queue_limit=1, global_queue_limit=2,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(10):
            plane.submit_at(float(i) * 1e-6, backup_job("alice", rng, path=f"f{i}"))
        report = plane.run()
        assert report.submitted == 10
        assert report.admitted + len(report.rejections) == 10


class TestFairShare:
    def test_equal_weights_alternate(self):
        scheduler = FairShareScheduler()
        for i in range(3):
            scheduler.enqueue(JobRequest(tenant="alice", kind="backup", cost=10.0), 1.0)
            scheduler.enqueue(JobRequest(tenant="bob", kind="backup", cost=10.0), 1.0)
        order = [scheduler.pick().tenant for _ in range(6)]
        assert order == ["alice", "bob", "alice", "bob", "alice", "bob"]

    def test_weighted_tenant_gets_proportional_share(self):
        scheduler = FairShareScheduler()
        for _ in range(8):
            scheduler.enqueue(JobRequest(tenant="alice", kind="backup", cost=10.0), 1.0)
            scheduler.enqueue(JobRequest(tenant="bob", kind="backup", cost=10.0), 2.0)
        first_six = [scheduler.pick().tenant for _ in range(6)]
        assert first_six.count("bob") == 4  # 2:1 share for double weight

    def test_large_jobs_cost_more_virtual_time(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue(JobRequest(tenant="alice", kind="backup", cost=100.0), 1.0)
        for _ in range(3):
            scheduler.enqueue(JobRequest(tenant="bob", kind="backup", cost=10.0), 1.0)
        order = [scheduler.pick().tenant for _ in range(4)]
        # bob's three small jobs all finish (in virtual time) before
        # alice's one large job.
        assert order == ["bob", "bob", "bob", "alice"]

    def test_service_dispatch_respects_weights(self, rng):
        policy = ServicePolicy(tenant_queue_limit=20, global_queue_limit=100,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               autoscale_high_depth=1e9,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        plane.service.set_weight("bob", 2.0)
        dispatched = []
        plane.decision_hook = lambda i, node, job: dispatched.append(job.tenant)
        for i in range(6):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"a{i}"))
            plane.submit_at(0.0, backup_job("bob", rng, path=f"b{i}"))
        plane.run()
        assert dispatched[:6].count("bob") == 4


class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes(self):
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=10.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == "closed"
        breaker.record_failure(1.0)
        assert breaker.state == "open"
        assert not breaker.allows(5.0)
        assert breaker.retry_after(5.0) == pytest.approx(6.0)
        assert breaker.allows(11.0)  # half-open probe
        assert breaker.state == "half-open"
        breaker.record_success(12.0)
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10.0)
        breaker.record_failure(0.0)
        assert breaker.allows(10.0)
        breaker.record_failure(11.0)
        assert breaker.state == "open"
        assert not breaker.allows(12.0)
        assert [s for _, s in breaker.transitions] == [
            "open", "half-open", "open"
        ]

    def test_open_breaker_sheds_submissions(self, rng):
        policy = ServicePolicy(breaker_failure_threshold=1,
                               breaker_cooldown_seconds=100.0,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        plane.breaker.record_failure(0.0)
        plane.submit_at(0.0, backup_job("alice", rng))
        report = plane.run()
        assert report.admitted == 0
        assert len(report.rejections) == 1
        assert report.rejections[0].reason == "circuit-open"
        assert report.rejections[0].retry_after == pytest.approx(100.0)


class TestAutoscaling:
    def test_deep_queue_scales_up(self, rng):
        policy = ServicePolicy(tenant_queue_limit=50, global_queue_limit=100,
                               min_nodes=1, max_nodes=3, slots_per_node=1,
                               autoscale_high_depth=1.0,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.001,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(10):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"f{i}"))
        report = plane.run()
        ups = [e for e in report.scale_events if e[1] == "up"]
        assert ups
        assert report.completed == 10

    def test_scale_down_returns_to_min(self, rng):
        policy = ServicePolicy(tenant_queue_limit=50, global_queue_limit=100,
                               min_nodes=1, max_nodes=2, slots_per_node=1,
                               autoscale_high_depth=1.0,
                               autoscale_low_depth=0.5,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.001,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(8):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"f{i}"))
        # A straggler long after the burst triggers the scale-down check.
        plane.submit_at(100.0, backup_job("alice", rng, path="late"))
        report = plane.run()
        downs = [e for e in report.scale_events if e[1] == "down"]
        assert downs
        assert len(plane.alive_nodes()) == 1

    def test_fleet_respects_max_nodes(self, rng):
        policy = ServicePolicy(tenant_queue_limit=100, global_queue_limit=200,
                               min_nodes=1, max_nodes=2, slots_per_node=1,
                               autoscale_high_depth=0.5,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.001,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(20):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"f{i}"))
        report = plane.run()
        assert max(count for _, _, count in report.scale_events) <= 2


class TestLeaseRecovery:
    def test_predispatch_kill_requeues_job(self, rng):
        """A node killed at the decision point (before any write) loses
        nothing: the job goes back to the queue head and the autoscaler
        replaces the node."""
        policy = ServicePolicy(min_nodes=1, max_nodes=2, slots_per_node=1,
                               autoscale_high_depth=0.25,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.5,
                               lease_seconds=2.0,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        killed = []

        def hook(index, node_id, job):
            if index == 0:
                plane.kill_node(node_id)
                killed.append(node_id)

        plane.decision_hook = hook
        data = random_bytes(rng, 48 * 1024)
        plane.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        report = plane.run()
        assert killed
        assert report.node_deaths
        assert report.completed == 1
        assert plane.service.restore("alice", "f").data == data

    def test_midwrite_crash_recovers_via_lease_takeover(self, rng):
        """A node dying mid-backup leaves an open intent; after the lease
        expires the takeover re-attaches (running recovery) and re-runs
        the job on a replacement node."""
        policy = ServicePolicy(min_nodes=1, max_nodes=2, slots_per_node=1,
                               autoscale_high_depth=0.25,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.1,
                               lease_seconds=2.0,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        faults = FaultPolicy()
        plane.service.oss.set_fault_policy(faults)

        def hook(index, node_id, job):
            if index == 0:
                faults.crash_after_writes(2)

        plane.decision_hook = hook
        data = random_bytes(rng, 48 * 1024)
        plane.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        report = plane.run()
        assert report.node_deaths
        assert [kind for _, _, kind in report.takeovers] == ["resumed"]
        assert report.completed == 1
        assert plane.service.restore("alice", "f").data == data
        assert plane.service.store_for("alice").versions("f") == [0]

    def test_commit_before_crash_not_duplicated(self, rng):
        """A node that crashed *after* the catalog commit must not re-run
        the job: the takeover sees the expected version committed and
        marks the job complete (exactly-once effect)."""
        policy = ServicePolicy(min_nodes=1, max_nodes=2, slots_per_node=1,
                               autoscale_high_depth=0.25,
                               autoscale_cooldown_seconds=0.0,
                               scale_up_delay_seconds=0.1,
                               lease_seconds=2.0,
                               maintenance_idle_seconds=1e9)
        # Probe: count writes of an identical standalone backup.
        probe = make_plane(ServicePolicy(maintenance_idle_seconds=1e9))
        data = random_bytes(rng, 48 * 1024)
        probe.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        probe_faults = FaultPolicy()
        probe.service.oss.set_fault_policy(probe_faults)
        probe.run()
        writes = probe_faults.writes_seen
        assert writes > 2

        plane = make_plane(policy)
        faults = FaultPolicy()
        plane.service.oss.set_fault_policy(faults)

        def hook(index, node_id, job):
            if index == 0:
                faults.crash_after_writes(writes - 1)  # die on the last write

        plane.decision_hook = hook
        plane.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        report = plane.run()
        assert report.completed == 1
        assert plane.service.store_for("alice").versions("f") == [0]
        assert plane.service.restore("alice", "f").data == data


class TestMaintenanceWindows:
    def test_maintenance_runs_when_idle(self, rng):
        policy = ServicePolicy(min_nodes=1, max_nodes=1, slots_per_node=1,
                               maintenance_idle_seconds=1.0)
        plane = make_plane(policy)
        data = random_bytes(rng, 64 * 1024)
        plane.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        report = plane.run()
        assert report.maintenance_runs >= 1

    def test_maintenance_never_starves_ingest(self, rng):
        """With foreground jobs queued, no maintenance job is dispatched."""
        policy = ServicePolicy(tenant_queue_limit=50, global_queue_limit=100,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               autoscale_high_depth=1e9,
                               maintenance_idle_seconds=0.001)
        plane = make_plane(policy)
        kinds = []
        plane.decision_hook = lambda i, n, job: kinds.append(job.kind)
        for i in range(10):
            plane.submit_at(float(i) * 1e-4, backup_job("alice", rng, path=f"f{i}"))
        plane.run()
        last_backup = max(i for i, kind in enumerate(kinds) if kind == "backup")
        assert all(kind == "backup" for kind in kinds[: last_backup + 1])


class TestPendingMaintenance:
    """Pending G-node work is a fact of the tenant's catalog: it outlives the
    control plane, a node crash after the commit and a failed maintenance
    job, and one maintenance job (``SlimStore.drain``) settles it."""

    POLICY = ServicePolicy(min_nodes=1, max_nodes=2, slots_per_node=1,
                           autoscale_high_depth=0.25,
                           autoscale_cooldown_seconds=0.0,
                           scale_up_delay_seconds=0.1, lease_seconds=2.0,
                           maintenance_idle_seconds=10.0)

    @staticmethod
    def chains(rng) -> dict[str, list[bytes]]:
        return {
            "a": make_version_chain(rng, versions=3, size=128 * 1024),
            "b": make_version_chain(rng, versions=3, size=64 * 1024,
                                    runs=3, run_bytes=4 * 1024),
        }

    @staticmethod
    def submit_chains(plane: ServiceControlPlane, chains) -> None:
        for version in range(len(chains["a"])):
            for offset, (path, chain) in enumerate(chains.items()):
                plane.submit_at(version * 2.0 + offset, JobRequest(
                    tenant="alice", kind="backup", path=path, data=chain[version]
                ))

    @staticmethod
    def spy_drains(monkeypatch) -> list:
        """Every ``SlimStore.drain`` call's report, or the error it raised."""
        outcomes = []
        original = SlimStore.drain

        def spy(store, *args, **kwargs):
            try:
                outcomes.append(original(store, *args, **kwargs))
            except Exception as error:
                outcomes.append(error)
                raise
            return outcomes[-1]

        monkeypatch.setattr(SlimStore, "drain", spy)
        return outcomes

    @staticmethod
    def assert_restores(service: BackupService, chains) -> None:
        for path, chain in chains.items():
            for version, data in enumerate(chain):
                assert service.restore("alice", path, version).data == data

    def test_pending_work_survives_process_death(self, rng, monkeypatch):
        oss = ObjectStorageService()
        chains = self.chains(rng)
        plane = ServiceControlPlane(BackupService(oss, config=SMALL_CONFIG),
                                    self.POLICY)
        self.submit_chains(plane, chains)
        plane.run(until=6.0)  # every backup done, no maintenance window yet
        assert plane.report.completed == 6 and plane.report.maintenance_runs == 0
        del plane  # the process dies, its control plane and service with it

        fresh = ServiceControlPlane(BackupService(oss, config=SMALL_CONFIG),
                                    self.POLICY)
        store = fresh.service.store_for("alice")
        assert store.pending_versions() == [
            (path, version) for path in chains for version in range(3)
        ]
        drains = self.spy_drains(monkeypatch)
        # Any foreground completion opens the tenant's maintenance window.
        fresh.submit_at(0.0, JobRequest(tenant="alice", kind="restore", path="a"))
        report = fresh.run()
        assert report.maintenance_runs == 1 and len(drains) == 1
        assert drains[0].duplicates_removed > 0
        assert store.pending_versions() == []
        self.assert_restores(fresh.service, chains)

    def test_a_crash_after_the_commit_leaves_the_version_pending(self, rng):
        data = random_bytes(rng, 48 * 1024)

        class RecordingFaults(FaultPolicy):
            def before_request(self, op, bucket, key):
                if op in self.WRITE_OPS:
                    writes.append((op, key))
                return super().before_request(op, bucket, key)

        writes: list[tuple[str, str]] = []
        probe = make_plane(self.POLICY)
        probe.service.oss.set_fault_policy(RecordingFaults())
        probe.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        probe.run(until=1.0)
        commit = next(i for i, (op, key) in enumerate(writes)
                      if key.startswith("catalog/log/"))
        op, key = writes[commit + 1]
        assert op == "delete" and key.startswith("journal/")

        plane = make_plane(self.POLICY)
        faults = FaultPolicy()
        plane.service.oss.set_fault_policy(faults)
        # Die at the backup intent's close, right after the commit record.
        plane.decision_hook = (
            lambda index, node_id, job: faults.crash_after_writes(commit + 1)
            if index == 0 else None
        )
        plane.submit_at(0.0, JobRequest(tenant="alice", kind="backup", path="f", data=data))
        report = plane.run(until=5.0)
        assert report.node_deaths
        assert [kind for _, _, kind in report.takeovers] == ["already-committed"]
        store = plane.service.store_for("alice")
        assert store.pending_versions() == [("f", 0)]
        # The takeover scheduled the tenant's maintenance check.
        report = plane.run()
        assert report.maintenance_runs == 1
        assert store.pending_versions() == []
        assert plane.service.restore("alice", "f").data == data

    def test_failed_maintenance_keeps_its_work(self, rng, monkeypatch):
        faults = FaultPolicy()
        service = BackupService(
            ObjectStorageService(faults=faults),
            config=SMALL_CONFIG,
            retry_policy=RetryPolicy(seed=5, base_delay=0.01, max_delay=0.2,
                                     backoff_budget_seconds=5.0),
        )
        plane = ServiceControlPlane(service, self.POLICY)
        chains = self.chains(rng)
        self.submit_chains(plane, chains)
        drains = self.spy_drains(monkeypatch)

        def hook(index, node_id, job):
            if job.kind == "maintenance" and not drains:
                faults.outage({"get"})

        plane.decision_hook = hook
        report = plane.run()
        assert len(drains) == 1 and isinstance(drains[0], RetryExhaustedError)
        assert report.maintenance_runs == 0
        store = service.store_for("alice")
        assert len(store.pending_versions()) == 6

        faults.revive()
        plane.submit_at(plane.loop.now + 1.0,
                        JobRequest(tenant="alice", kind="restore", path="b"))
        report = plane.run()
        assert report.maintenance_runs == 1 and len(drains) == 2
        assert drains[1].duplicates_removed > 0
        assert store.pending_versions() == []
        self.assert_restores(service, chains)


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_drain_compacts_the_latest_versions_like_inline(self, seed):
        """One drain over five pending versions of each path compacts only
        the newest: compacting an older one first would delete copies the
        later recipes still name, and their restores would need redirects."""
        rng = np.random.default_rng(seed)
        chains = {
            path: make_version_chain(rng, versions=5, size=size, runs=4,
                                     run_bytes=8 * 1024)
            for path, size in (("a", 128 * 1024), ("b", 64 * 1024))
        }
        inline = SlimStore(SMALL_CONFIG)
        for version in range(5):
            for path, chain in chains.items():
                inline.backup(path, chain[version])

        service = BackupService(ObjectStorageService(), config=SMALL_CONFIG)
        plane = ServiceControlPlane(service, self.POLICY)
        self.submit_chains(plane, chains)
        assert plane.run().maintenance_runs == 1
        store = service.store_for("alice")
        assert store.pending_versions() == []
        self.assert_restores(service, chains)
        for path, chain in chains.items():
            deferred = store.restore(path)
            assert deferred.data == chain[-1]
            redirects = deferred.counters.get("global_index_redirects")
            assert redirects <= inline.restore(path).counters.get(
                "global_index_redirects")


class TestSLOMetrics:
    def test_latency_includes_queueing(self, rng):
        policy = ServicePolicy(tenant_queue_limit=50, global_queue_limit=100,
                               min_nodes=1, max_nodes=1, slots_per_node=1,
                               autoscale_high_depth=1e9,
                               maintenance_idle_seconds=1e9)
        plane = make_plane(policy)
        for i in range(5):
            plane.submit_at(0.0, backup_job("alice", rng, path=f"f{i}"))
        report = plane.run()
        stats = report.backup_latency["alice"]
        assert stats.count == 5
        # Later jobs queued behind earlier ones: p99 well above p50.
        assert stats.p99 > stats.p50
        summary = report.slo_summary(policy)
        assert summary["alice"]["backup"]["count"] == 5
        assert 0.0 <= summary["alice"]["backup"]["attainment"] <= 1.0
