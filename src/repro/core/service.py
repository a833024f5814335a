"""The overload-robust multi-tenant control plane.

:class:`~repro.core.tenancy.BackupService` gives each tenant an isolated
SLIMSTORE deployment; this module grows it into the *service* the paper
describes — many tenants submitting jobs against a shared elastic L-node
fleet — and makes that service degrade gracefully instead of collapsing
under load or losing work to node death:

* **Admission control with explicit backpressure** — per-tenant and
  global queue bounds; a job the service cannot queue is rejected with a
  concrete ``retry_after``, never silently parked on an unbounded queue.
* **Weighted fair-share scheduling** — start-time fair queueing over
  per-tenant FIFO queues: each job gets a virtual finish tag
  ``start + cost / weight`` and free L-node slots always go to the
  smallest tag, so one tenant's burst cannot starve the others.
* **Circuit breaker + load shedding** — consecutive infrastructure
  failures (retry-exhausted OSS operations, degraded backups) open the
  breaker; while open, new work is shed at admission with the cooldown
  as its retry-after, and one half-open probe decides whether to close.
* **Queue-depth-driven autoscaling** — deep queues grow the fleet (after
  a warm-up delay), idle fleets shrink it, bounded by min/max nodes and
  a cooldown so the fleet does not flap.
* **Lease-based job recovery** — every dispatched job holds a lease;
  node death leaves the lease to expire, after which the takeover path
  re-attaches the tenant (running the
  :class:`~repro.core.recovery.RecoveryManager` over the dead node's
  intents) and either marks the job complete (its commit landed before
  the crash) or re-queues it at the front of its tenant's queue.  The
  idempotency check is the backup's ``expected_version``: a version
  number fixed at dispatch, checked against the recovered catalog.
* **Maintenance windows without starving ingest** — foreground backups
  run with ``run_gnode=False``, so each commit record marks its version
  pending in the tenant's catalog; the maintenance job,
  :meth:`~repro.core.system.SlimStore.drain` over those versions, is
  dispatched only when no foreground work is queued anywhere.  The
  control plane keeps no pending state of its own: a failed or
  interrupted job leaves the versions pending for the next window.
* **Per-tenant SLO metrics** — p50/p99 backup and restore latency
  (arrival to completion, queueing included) and SLO attainment, via
  :class:`~repro.sim.metrics.LatencyStats`.

Timebase: the control plane runs on a
:class:`~repro.sim.events.EventLoop` whose clock is the *service*
timeline (arrivals, queueing, leases).  Dispatched engine work executes
synchronously inside the dispatch event and reports its virtual duration,
which the control plane then occupies on the service timeline — the same
measured-trace-replay idea as :mod:`repro.core.cluster`, with the real
engine in the loop instead of a recorded trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.tenancy import BackupService
from repro.errors import (
    ReproError,
    RetryExhaustedError,
    SimulatedCrashError,
)
from repro.sim.events import EventLoop
from repro.sim.metrics import LatencyStats

#: Job kinds the control plane schedules.
JOB_KINDS = ("backup", "restore", "maintenance")


@dataclass(frozen=True)
class ServicePolicy:
    """Every control-plane knob in one place."""

    #: Max jobs queued per tenant (admitted, not yet dispatched).
    tenant_queue_limit: int = 4
    #: Max jobs queued across all tenants.
    global_queue_limit: int = 16
    #: Base of the retry-after estimate handed to rejected jobs.
    retry_after_base_seconds: float = 1.0
    #: Lease duration granted to a dispatched job; a dead node's job is
    #: recovered this long after its last grant.
    lease_seconds: float = 30.0
    #: Consecutive infrastructure failures that open the breaker.
    breaker_failure_threshold: int = 3
    #: How long the breaker sheds load before a half-open probe.
    breaker_cooldown_seconds: float = 60.0
    #: Scale up when queued jobs exceed this many per fleet slot.
    autoscale_high_depth: float = 2.0
    #: Scale down when queued jobs drop below this many per fleet slot.
    autoscale_low_depth: float = 0.25
    #: Minimum seconds between scaling decisions.
    autoscale_cooldown_seconds: float = 30.0
    #: Fleet size bounds.
    min_nodes: int = 1
    max_nodes: int = 8
    #: Concurrent jobs per L-node.
    slots_per_node: int = 2
    #: Warm-up delay before a scaled-up node serves jobs.
    scale_up_delay_seconds: float = 5.0
    #: Per-tenant SLO thresholds (arrival → completion).
    slo_backup_seconds: float = 60.0
    slo_restore_seconds: float = 30.0
    #: A tenant idle this long with pending G-node work gets a
    #: maintenance job enqueued.
    maintenance_idle_seconds: float = 10.0
    #: Re-dispatch delay after a non-crash job failure.
    failure_backoff_seconds: float = 1.0
    #: Attempts per job before it is failed permanently (crash takeovers
    #: do not count: an admitted job survives any number of node deaths).
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.tenant_queue_limit < 1 or self.global_queue_limit < 1:
            raise ValueError("queue limits must be >= 1")
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError(
                f"need 1 <= min_nodes <= max_nodes: "
                f"{self.min_nodes}, {self.max_nodes}"
            )
        if self.slots_per_node < 1:
            raise ValueError(f"slots_per_node must be >= 1: {self.slots_per_node}")
        if self.lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive: {self.lease_seconds}")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.autoscale_low_depth > self.autoscale_high_depth:
            raise ValueError("autoscale_low_depth must be <= autoscale_high_depth")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")


@dataclass
class JobRequest:
    """One tenant job submitted to the control plane."""

    tenant: str
    kind: str
    path: str = ""
    data: bytes = b""
    #: Restore target version (None: latest).
    version: int | None = None
    #: Scheduling cost (defaults to the payload size; min 1 so empty
    #: jobs still advance virtual time).
    cost: float = 0.0

    # --- runtime state, owned by the control plane -----------------------
    job_id: int = -1
    arrival: float = 0.0
    status: str = "created"  # created/rejected/queued/running/lost/completed/failed
    attempts: int = 0
    node_id: int | None = None
    started_at: float | None = None
    completed_at: float | None = None
    #: Version a dispatched backup will commit as — the lease-takeover
    #: idempotency check.
    expected_version: int | None = None
    #: Fair-queueing virtual tags.
    start_tag: float = 0.0
    finish_tag: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind: {self.kind!r}")
        if self.cost <= 0:
            self.cost = float(max(1, len(self.data)))

    @property
    def latency(self) -> float | None:
        """Arrival → completion, None while incomplete."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival


@dataclass(frozen=True)
class Rejection:
    """Explicit backpressure: why a job was not admitted, and when to retry."""

    job_id: int
    tenant: str
    kind: str
    time: float
    reason: str
    retry_after: float

    def __post_init__(self) -> None:
        if self.retry_after <= 0:
            raise ValueError(
                f"a rejection must carry a positive retry_after: {self.retry_after}"
            )


class CircuitBreaker:
    """Closed → open on consecutive failures → half-open probe → closed.

    Failures are *infrastructure* signals (retry-exhausted OSS calls,
    degraded backups), not tenant errors; a spike opens the breaker and
    admission sheds every new job with the remaining cooldown as its
    retry-after, giving the storage backend room to recover instead of
    feeding the outage.
    """

    def __init__(self, threshold: int, cooldown_seconds: float) -> None:
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self.state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: (time, new state) transition log.
        self.transitions: list[tuple[float, str]] = []

    def _transition(self, now: float, state: str) -> None:
        if state != self.state:
            self.state = state
            self.transitions.append((now, state))

    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        if self.state in ("half-open", "open"):
            self._transition(now, "closed")

    def record_failure(self, now: float) -> None:
        self._consecutive_failures += 1
        if self.state == "half-open" or (
            self.state == "closed"
            and self._consecutive_failures >= self.threshold
        ):
            self._opened_at = now
            self._transition(now, "open")

    def allows(self, now: float) -> bool:
        """Whether new work may be admitted at ``now``.

        An open breaker past its cooldown turns half-open: work flows
        again, and the next recorded outcome decides between closing
        and re-opening.
        """
        if self.state == "open":
            if now - self._opened_at >= self.cooldown_seconds:
                self._transition(now, "half-open")
                return True
            return False
        return True

    def retry_after(self, now: float) -> float:
        """Seconds until the breaker's next half-open probe."""
        return max(
            1e-3, self._opened_at + self.cooldown_seconds - now
        )


class FairShareScheduler:
    """Weighted start-time fair queueing over per-tenant FIFO queues.

    Each enqueued job gets a virtual start tag
    ``max(V, finish_of_previous_job_of_tenant)`` and finish tag
    ``start + cost / weight``; dispatch always picks the queue head with
    the smallest finish tag and advances ``V`` to its start tag.  Ties
    break on tenant name, so the schedule is fully deterministic.
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[JobRequest]] = {}
        self._virtual = 0.0
        self._last_finish: dict[str, float] = {}

    def enqueue(self, job: JobRequest, weight: float) -> None:
        job.start_tag = max(self._virtual, self._last_finish.get(job.tenant, 0.0))
        job.finish_tag = job.start_tag + job.cost / weight
        self._last_finish[job.tenant] = job.finish_tag
        self._queues.setdefault(job.tenant, deque()).append(job)

    def requeue_front(self, job: JobRequest) -> None:
        """Put a recovered job back at the head of its queue, tags kept."""
        self._queues.setdefault(job.tenant, deque()).appendleft(job)

    def depth(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def total_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pick(self, skip: set[str] | None = None) -> JobRequest | None:
        """Pop and return the next job by fair share, None when empty.

        Tenants in ``skip`` are passed over (the control plane suspends
        a tenant between a node death and its lease takeover, while the
        on-OSS truth is still being recovered).
        """
        best_tenant: str | None = None
        best_tag: float = 0.0
        for tenant in sorted(self._queues):
            if skip and tenant in skip:
                continue
            queue = self._queues[tenant]
            if not queue:
                continue
            tag = queue[0].finish_tag
            if best_tenant is None or tag < best_tag:
                best_tenant, best_tag = tenant, tag
        if best_tenant is None:
            return None
        job = self._queues[best_tenant].popleft()
        self._virtual = max(self._virtual, job.start_tag)
        return job


@dataclass
class Lease:
    """Ownership of one dispatched job by one node, until it expires."""

    job: JobRequest
    node_id: int
    expires_at: float


@dataclass
class ServiceNode:
    """One L-node of the fleet (slots tracked directly; the scheduler
    owns all queueing, so no :class:`SlotResource` indirection)."""

    node_id: int
    slots: int
    alive: bool = True
    running: list[JobRequest] = field(default_factory=list)

    @property
    def free_slots(self) -> int:
        return (self.slots - len(self.running)) if self.alive else 0


@dataclass
class ServiceReport:
    """Everything one control-plane run observed."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    rejections: list[Rejection] = field(default_factory=list)
    #: Lease takeovers: (time, job_id, "resumed" | "already-committed").
    takeovers: list[tuple[float, int, str]] = field(default_factory=list)
    node_deaths: list[tuple[float, int]] = field(default_factory=list)
    #: (time, "up" | "down", alive node count after the event).
    scale_events: list[tuple[float, str, int]] = field(default_factory=list)
    breaker_transitions: list[tuple[float, str]] = field(default_factory=list)
    maintenance_runs: int = 0
    #: tenant → latency samples per kind (queueing included).
    backup_latency: dict[str, LatencyStats] = field(default_factory=dict)
    restore_latency: dict[str, LatencyStats] = field(default_factory=dict)

    def latency_for(self, tenant: str, kind: str) -> LatencyStats:
        table = self.backup_latency if kind == "backup" else self.restore_latency
        stats = table.get(tenant)
        if stats is None:
            stats = table[tenant] = LatencyStats()
        return stats

    def slo_summary(self, policy: ServicePolicy) -> dict:
        """Per-tenant p50/p99/attainment, JSON-ready."""
        tenants = sorted(set(self.backup_latency) | set(self.restore_latency))
        summary = {}
        for tenant in tenants:
            backup = self.backup_latency.get(tenant, LatencyStats())
            restore = self.restore_latency.get(tenant, LatencyStats())
            summary[tenant] = {
                "backup": {
                    "count": backup.count,
                    "p50": backup.p50,
                    "p99": backup.p99,
                    "mean": backup.mean,
                    "attainment": backup.attainment(policy.slo_backup_seconds),
                },
                "restore": {
                    "count": restore.count,
                    "p50": restore.p50,
                    "p99": restore.p99,
                    "mean": restore.mean,
                    "attainment": restore.attainment(policy.slo_restore_seconds),
                },
            }
        return summary


class ServiceControlPlane:
    """Admission, fair-share dispatch, leases, breaker and autoscaling
    over a :class:`~repro.core.tenancy.BackupService`.

    ``decision_hook(decision_index, node_id, job)`` fires at every
    scheduler decision point — the instant a job is matched to a node,
    before any engine work — and is the fleet kill matrix's lever: the
    hook may call :meth:`kill_node` (death before the job writes
    anything) or arm a crash on the OSS fault policy (death mid-write).
    """

    def __init__(
        self,
        service: BackupService,
        policy: ServicePolicy | None = None,
        loop: EventLoop | None = None,
        initial_nodes: int | None = None,
        decision_hook: Callable[[int, int, JobRequest], None] | None = None,
    ) -> None:
        self.service = service
        self.policy = policy or ServicePolicy()
        self.loop = loop or EventLoop()
        self.decision_hook = decision_hook
        self.report = ServiceReport()
        self.scheduler = FairShareScheduler()
        self.breaker = CircuitBreaker(
            self.policy.breaker_failure_threshold,
            self.policy.breaker_cooldown_seconds,
        )
        count = initial_nodes if initial_nodes is not None else self.policy.min_nodes
        if not self.policy.min_nodes <= count <= self.policy.max_nodes:
            raise ValueError(
                f"initial_nodes outside [min_nodes, max_nodes]: {count}"
            )
        self.nodes: list[ServiceNode] = [
            ServiceNode(i, self.policy.slots_per_node) for i in range(count)
        ]
        self.leases: dict[int, Lease] = {}
        self._next_job_id = 0
        self._next_node_id = count
        self._pending_nodes = 0
        self._last_scale_at = -self.policy.autoscale_cooldown_seconds
        self._decision_index = -1
        #: tenants with a maintenance job queued or running.
        self._maintenance_active: set[str] = set()
        self._last_foreground_at: dict[str, float] = {}
        #: tenant → count of lost jobs awaiting lease takeover; while
        #: positive, the tenant's queued jobs are not dispatched (the
        #: cached deployment may hold the dead node's half-done state,
        #: and the takeover's re-attach is what restores the truth).
        self._suspended: dict[str, int] = {}

    # --- fleet introspection ----------------------------------------------
    def alive_nodes(self) -> list[ServiceNode]:
        return [node for node in self.nodes if node.alive]

    def fleet_slots(self) -> int:
        return sum(node.slots for node in self.alive_nodes())

    # --- submission & admission -------------------------------------------
    def submit_at(self, time: float, job: JobRequest) -> None:
        """Schedule ``job`` to arrive at service time ``time``."""
        if time < self.loop.now:
            raise ValueError(f"cannot submit in the past: {time} < {self.loop.now}")
        self.loop.schedule(time - self.loop.now, lambda: self.submit(job))

    def submit(self, job: JobRequest) -> None:
        """Admit or reject ``job`` at the current service time."""
        now = self.loop.now
        job.job_id = self._next_job_id
        self._next_job_id += 1
        job.arrival = now
        self.report.submitted += 1
        reason = self._admission_reason(job, now)
        if reason is not None:
            self._reject(job, now, *reason)
            return
        job.status = "queued"
        self.report.admitted += 1
        self._last_foreground_at[job.tenant] = now
        self.scheduler.enqueue(job, self.service.weight(job.tenant))
        self._autoscale()
        self._dispatch()

    def _admission_reason(
        self, job: JobRequest, now: float
    ) -> tuple[str, float] | None:
        """(reason, retry_after) when the job must be shed, else None."""
        if not self.breaker.allows(now):
            return "circuit-open", self.breaker.retry_after(now)
        total = self.scheduler.total_depth()
        if total >= self.policy.global_queue_limit:
            drain = self.policy.retry_after_base_seconds * (
                1 + total / max(1, self.fleet_slots())
            )
            return "global-queue-full", drain
        depth = self.scheduler.depth(job.tenant)
        if depth >= self.policy.tenant_queue_limit:
            drain = self.policy.retry_after_base_seconds * (1 + depth)
            return "tenant-queue-full", drain
        return None

    def _reject(
        self, job: JobRequest, now: float, reason: str, retry_after: float
    ) -> None:
        job.status = "rejected"
        self.report.rejections.append(
            Rejection(job.job_id, job.tenant, job.kind, now, reason, retry_after)
        )

    # --- dispatch ----------------------------------------------------------
    def _pick_node(self) -> ServiceNode | None:
        """Least-loaded alive node with a free slot (id breaks ties)."""
        best = None
        for node in self.nodes:
            if node.free_slots <= 0:
                continue
            if best is None or len(node.running) < len(best.running):
                best = node
        return best

    def _dispatch(self) -> None:
        while True:
            node = self._pick_node()
            if node is None:
                return
            suspended = {t for t, count in self._suspended.items() if count > 0}
            job = self.scheduler.pick(skip=suspended)
            if job is None:
                job = self._pick_maintenance(suspended)
                if job is None:
                    return
            self._decision_index += 1
            if self.decision_hook is not None:
                self.decision_hook(self._decision_index, node.node_id, job)
            if not node.alive or node.free_slots <= 0:
                # The hook killed the node at this decision point; the
                # job never started, so it simply goes back to the head
                # of the line for the next node.
                if job.kind == "maintenance":
                    self._maintenance_active.discard(job.tenant)
                else:
                    self.scheduler.requeue_front(job)
                # The job was already off the queue when the crash path
                # autoscaled, so re-check now that it is back on.
                self._autoscale()
                continue
            self._execute(node, job)

    def _grant_lease(self, job: JobRequest, node: ServiceNode) -> None:
        self.leases[job.job_id] = Lease(
            job, node.node_id, self.loop.now + self.policy.lease_seconds
        )

    def _execute(self, node: ServiceNode, job: JobRequest) -> None:
        now = self.loop.now
        job.status = "running"
        job.node_id = node.node_id
        job.started_at = now
        job.attempts += 1
        node.running.append(job)
        self._grant_lease(job, node)
        try:
            duration = self._run_engine_work(job, now)
        except SimulatedCrashError:
            self._node_crashed(node)
            return
        except (RetryExhaustedError, ReproError):
            self._job_failed(node, job)
            return
        self.breaker.record_success(now)

        def complete() -> None:
            self._finish(job, node)

        self.loop.schedule(duration, complete)

    def _run_engine_work(self, job: JobRequest, now: float) -> float:
        """Run the real engine work; returns its virtual duration."""
        if job.kind == "backup":
            store = self.service.store_for(job.tenant)
            live = store.versions(job.path)
            job.expected_version = (live[-1] + 1) if live else 0
            report = self.service.backup(
                job.tenant, job.path, job.data, timestamp=now, run_gnode=False
            )
            if report.degraded:
                # The job survived on degraded mode — data is safe, but
                # the storage backend is failing: feed the breaker.
                self.breaker.record_failure(now)
            return max(report.result.elapsed_seconds, 1e-9)
        if job.kind == "restore":
            result = self.service.restore(job.tenant, job.path, job.version)
            return max(result.elapsed_seconds, 1e-9)
        # Maintenance: the G-node pass over the versions foreground backups
        # left pending (idempotent; the pending marks are its record).
        store = self.service.store_for(job.tenant)
        before = store.oss.clock.now
        store.drain()
        self.report.maintenance_runs += 1
        return max(store.oss.clock.now - before, 1e-9)

    def _finish(self, job: JobRequest, node: ServiceNode) -> None:
        if job.status != "running":
            # The node died while this completion was in flight; the
            # lease takeover owns the job now.
            return
        now = self.loop.now
        job.status = "completed"
        job.completed_at = now
        self.leases.pop(job.job_id, None)
        if job in node.running:
            node.running.remove(job)
        if job.kind in ("backup", "restore"):
            # Maintenance completions are tallied in maintenance_runs;
            # completed/failed count client-submitted work only.
            self.report.completed += 1
            self.report.latency_for(job.tenant, job.kind).record(job.latency)
            self._schedule_maintenance_check(job.tenant)
        else:
            self._maintenance_active.discard(job.tenant)
        self._autoscale()
        self._dispatch()

    def _job_failed(self, node: ServiceNode, job: JobRequest) -> None:
        """Non-crash failure: breaker feedback plus bounded retries."""
        now = self.loop.now
        self.breaker.record_failure(now)
        self.leases.pop(job.job_id, None)
        if job in node.running:
            node.running.remove(job)
        if job.kind == "maintenance":
            # The versions stay pending in the catalog for the next window.
            self._maintenance_active.discard(job.tenant)
            job.status = "failed"
        elif job.attempts >= self.policy.max_attempts:
            job.status = "failed"
            job.completed_at = now
            self.report.failed += 1
        else:
            job.status = "queued"
            self.loop.schedule(
                self.policy.failure_backoff_seconds,
                lambda: (self.scheduler.requeue_front(job), self._dispatch()),
            )
        self._dispatch()

    # --- node death & lease takeover ---------------------------------------
    def kill_node(self, node_id: int) -> None:
        """Kill one node; its running jobs recover via lease expiry."""
        for node in self.nodes:
            if node.node_id == node_id and node.alive:
                self._node_crashed(node)
                return
        raise ValueError(f"no alive node {node_id}")

    def _node_crashed(self, node: ServiceNode) -> None:
        now = self.loop.now
        node.alive = False
        self.report.node_deaths.append((now, node.node_id))
        # The crash fault is terminal on the policy until cleared; the
        # OSS itself is healthy — only the node died — so clear it for
        # the survivors.
        faults = self.service.oss.faults
        if faults is not None:
            faults.clear_crash()
        for job in list(node.running):
            job.status = "lost"
            self._suspended[job.tenant] = self._suspended.get(job.tenant, 0) + 1
            lease = self.leases.get(job.job_id)
            expires = lease.expires_at if lease is not None else now
            self.loop.schedule(
                max(0.0, expires - now), lambda job=job: self._takeover(job)
            )
        node.running.clear()
        self._autoscale()
        self._dispatch()

    def _takeover(self, job: JobRequest) -> None:
        """Resolve one expired lease left by a dead node."""
        if job.status != "lost":
            return
        now = self.loop.now
        self._suspended[job.tenant] = max(0, self._suspended.get(job.tenant, 1) - 1)
        self.leases.pop(job.job_id, None)
        # Re-attach runs the RecoveryManager over the dead node's open
        # intents: half-done backups roll forward or are discarded, so
        # the catalog below is the recovered truth.
        store = self.service.reattach_tenant(job.tenant)
        if (
            job.kind == "backup"
            and job.expected_version is not None
            and job.expected_version in store.versions(job.path)
        ):
            # The commit landed before the crash; re-running would write
            # a duplicate version.  Complete the job as-is.
            job.status = "completed"
            job.completed_at = now
            self.report.completed += 1
            self.report.takeovers.append((now, job.job_id, "already-committed"))
            self.report.latency_for(job.tenant, job.kind).record(job.latency)
        elif job.kind == "maintenance":
            # Recovery settled the journaled passes; whatever the catalog
            # still holds pending goes to the check scheduled below.
            job.status = "completed"
            job.completed_at = now
            self.report.takeovers.append((now, job.job_id, "already-committed"))
            self._maintenance_active.discard(job.tenant)
        else:
            job.status = "queued"
            job.expected_version = None
            self.report.takeovers.append((now, job.job_id, "resumed"))
            self.scheduler.requeue_front(job)
        self._schedule_maintenance_check(job.tenant)
        self._autoscale()
        self._dispatch()

    # --- maintenance windows ------------------------------------------------
    def _schedule_maintenance_check(self, tenant: str) -> None:
        if not self.service.store_for(tenant).pending_versions():
            return
        self.loop.schedule(
            self.policy.maintenance_idle_seconds,
            lambda: self._maintenance_window(tenant),
        )

    def _maintenance_window(self, tenant: str) -> None:
        """Enqueue a maintenance job if the tenant has stayed idle."""
        now = self.loop.now
        if tenant in self._maintenance_active:
            return
        if not self.service.store_for(tenant).pending_versions():
            return
        idle = now - self._last_foreground_at.get(tenant, 0.0)
        if idle + 1e-9 < self.policy.maintenance_idle_seconds:
            return
        self._maintenance_active.add(tenant)
        self._dispatch()

    def _pick_maintenance(self, suspended: set[str]) -> JobRequest | None:
        """A maintenance job, only when no foreground work is queued."""
        if self.scheduler.total_depth() > 0:
            return None
        for tenant in sorted(self._maintenance_active):
            if tenant in suspended:
                continue
            if self.service.store_for(tenant).pending_versions():
                job = JobRequest(tenant=tenant, kind="maintenance")
                job.job_id = self._next_job_id
                self._next_job_id += 1
                job.arrival = self.loop.now
                return job
            self._maintenance_active.discard(tenant)
        return None

    # --- autoscaling --------------------------------------------------------
    def _autoscale(self) -> None:
        now = self.loop.now
        if not self.alive_nodes() and self._pending_nodes == 0 and (
            self.scheduler.total_depth() > 0
            or self.leases
            or self._maintenance_active
        ):
            # A dead fleet still owing tenants work is replaced
            # unconditionally — cooldown and depth thresholds exist to
            # damp thrash, and a fleet of zero cannot thrash.
            self._last_scale_at = now
            self._pending_nodes += 1
            self.loop.schedule(self.policy.scale_up_delay_seconds, self._add_node)
            return
        if now - self._last_scale_at < self.policy.autoscale_cooldown_seconds:
            return
        alive = self.alive_nodes()
        slots = max(1, self.fleet_slots())
        depth = self.scheduler.total_depth()
        if (
            depth > self.policy.autoscale_high_depth * slots
            and len(alive) + self._pending_nodes < self.policy.max_nodes
        ):
            self._last_scale_at = now
            self._pending_nodes += 1
            self.loop.schedule(self.policy.scale_up_delay_seconds, self._add_node)
        elif (
            depth < self.policy.autoscale_low_depth * slots
            and len(alive) > self.policy.min_nodes
        ):
            for node in reversed(alive):
                if not node.running:
                    self._last_scale_at = now
                    node.alive = False
                    self.nodes.remove(node)
                    self.report.scale_events.append(
                        (now, "down", len(self.alive_nodes()))
                    )
                    return

    def _add_node(self) -> None:
        self._pending_nodes -= 1
        node = ServiceNode(self._next_node_id, self.policy.slots_per_node)
        self._next_node_id += 1
        self.nodes.append(node)
        self.report.scale_events.append(
            (self.loop.now, "up", len(self.alive_nodes()))
        )
        self._dispatch()

    # --- running ------------------------------------------------------------
    def run(self, until: float | None = None) -> ServiceReport:
        """Drain the event schedule (optionally only up to ``until``)."""
        self.loop.run(until)
        self.report.breaker_transitions = list(self.breaker.transitions)
        return self.report
