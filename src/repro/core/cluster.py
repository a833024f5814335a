"""Event-driven cluster scheduling of backup/restore jobs.

Runs an explicit discrete-event schedule of jobs over L-nodes: each node
has a bounded number of job slots, and the jobs sharing a node split its
NIC bandwidth for their network phase.  This is the clock behind both
Fig 10 scaling curves: a measured backup job (:meth:`JobSpec.from_backup_result`)
or restore trace (:meth:`RestoreJobSpec.from_restore_result`) is replayed
``jobs`` times over the cluster, so slot waves, node spill and the NIC
ceiling come out of the schedule rather than out of a formula.  The same
schedules take mixed job sizes and staggered arrivals.

Since the sharded-index PR the simulator also models the **shared global
fingerprint index** as a contended resource: each ingest job finishes its
CPU/network phase and then pushes its unique fingerprints through the
index, one :class:`~repro.sim.events.SlotResource` per shard serving the
batched round trips.  Many concurrent jobs hammering one unbatched shard
serialise behind each other; sharding and batching shrink both the queue
and the number of round trips, which is the cluster-ingest half of the
sharding ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cost_model import CostModel
from repro.sim.events import ChannelPool, EventLoop, RestorePipelineProcess, SlotResource


@dataclass(frozen=True)
class JobSpec:
    """One job's resource demands (taken from a measured job result)."""

    logical_bytes: float
    cpu_seconds: float
    network_bytes: float
    #: Fingerprints the job pushes through the shared global index (its
    #: unique chunks); zero for jobs that never touch the index.
    index_lookups: int = 0

    @classmethod
    def from_backup_result(cls, result) -> "JobSpec":
        """Build a spec from a BackupResult-like object."""
        unique = getattr(result, "unique_fps", None)
        return cls(
            logical_bytes=result.logical_bytes,
            cpu_seconds=result.breakdown.cpu_seconds(),
            network_bytes=result.uploaded_bytes,
            index_lookups=0 if unique is None else len(unique),
        )


@dataclass(frozen=True)
class RestoreJobSpec:
    """One restore job's measured pipeline trace, replayable on a cluster.

    Carries everything :class:`~repro.sim.events.RestorePipelineProcess`
    needs: the planned container-read durations in issue order, which read
    each record blocks on, per-record CPU, and the synchronous demand
    seconds — so the same trace that timed the job standalone can be
    re-run with its prefetcher contending for a node's shared OSS
    channels.
    """

    logical_bytes: float
    read_seconds: tuple[float, ...]
    record_reads: tuple[int, ...]
    record_cpu: tuple[float, ...]
    demand_seconds: tuple[float, ...]
    setup_seconds: float = 0.0
    prefetch_threads: int = 1

    def __post_init__(self) -> None:
        if self.prefetch_threads < 0:
            raise ValueError(f"prefetch_threads cannot be negative: {self.prefetch_threads}")
        if len(self.record_reads) != len(self.record_cpu) or len(
            self.record_cpu
        ) != len(self.demand_seconds):
            raise ValueError("per-record traces must align")

    @classmethod
    def from_restore_result(cls, result) -> "RestoreJobSpec":
        """Build a spec from a measured :class:`RestoreResult`."""
        return cls(
            logical_bytes=result.logical_bytes,
            read_seconds=tuple(result.read_seconds),
            record_reads=tuple(result.record_reads),
            record_cpu=tuple(result.record_cpu),
            demand_seconds=tuple(result.demand_seconds),
            setup_seconds=result.setup_seconds,
            prefetch_threads=result.prefetch_threads,
        )

    def serialised(self) -> "RestoreJobSpec":
        """The same trace with every read folded into demand time.

        Models ``prefetch_threads == 0``: no prefetcher, the consumer
        issues each read synchronously when it reaches the record.
        """
        demand = list(self.demand_seconds)
        for index, read in enumerate(self.record_reads):
            if read >= 0:
                demand[index] += self.read_seconds[read]
        return RestoreJobSpec(
            logical_bytes=self.logical_bytes,
            read_seconds=(),
            record_reads=tuple([-1] * len(self.record_reads)),
            record_cpu=self.record_cpu,
            demand_seconds=tuple(demand),
            setup_seconds=self.setup_seconds,
            prefetch_threads=0,
        )


@dataclass(frozen=True)
class ShardedIndexSpec:
    """The shared sharded global index as a contended cluster resource.

    ``batch_size`` 1 models the seed's one-fingerprint-per-round-trip
    access; larger batches group fingerprints per request.  Each shard
    serves ``slots_per_shard`` requests concurrently (Rocks-OSS instances
    are independent stores, so shards never contend with each other).
    """

    shard_count: int = 1
    batch_size: int = 1
    slots_per_shard: int = 1

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1: {self.shard_count}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if self.slots_per_shard < 1:
            raise ValueError(f"slots_per_shard must be >= 1: {self.slots_per_shard}")

    def per_shard_keys(self, lookups: int) -> list[int]:
        """Uniform spread of a job's lookups over the shards.

        SHA-1 fingerprint prefixes are uniform, so an even split (with the
        remainder on the first shards) is the expected distribution.
        """
        base, extra = divmod(lookups, self.shard_count)
        return [base + (1 if i < extra else 0) for i in range(self.shard_count)]

    def request_keys(self, keys: int) -> list[int]:
        """Per-request key counts for one shard's share of a job."""
        if keys <= 0:
            return []
        full, rest = divmod(keys, self.batch_size)
        sizes = [self.batch_size] * full
        if rest:
            sizes.append(rest)
        return sizes

    def total_requests(self, lookups: int) -> int:
        """Round trips one job issues across all shards."""
        return sum(-(-keys // self.batch_size) for keys in self.per_shard_keys(lookups))


@dataclass
class ClusterRunReport:
    """Outcome of one simulated schedule."""

    makespan_seconds: float
    total_logical_bytes: float
    completion_times: list[float] = field(default_factory=list)
    #: Round trips served by the shared index (0 without an index model).
    index_rpcs: int = 0
    #: Consumer stalls across all restore jobs (restore schedules only).
    prefetch_stalls: int = 0
    #: Virtual seconds restore consumers spent blocked on reads.
    prefetch_stall_seconds: float = 0.0
    #: Busy seconds of each node's OSS channels (restore schedules only).
    node_channel_busy_seconds: list[list[float]] = field(default_factory=list)
    #: Node deaths simulated during the schedule (``crashes`` argument).
    crashes_simulated: int = 0
    #: Virtual seconds of partial work thrown away by crashed jobs (the
    #: uncommitted writes recovery garbage-collects).
    wasted_seconds: float = 0.0
    #: Virtual seconds replacement nodes spent in attach-time recovery.
    recovery_seconds_total: float = 0.0

    @property
    def aggregate_throughput_mb_s(self) -> float:
        """Cluster-wide throughput over the makespan."""
        if self.makespan_seconds == 0:
            return 0.0
        return self.total_logical_bytes / self.makespan_seconds / (1 << 20)


class ClusterSimulator:
    """Schedules jobs over L-nodes with slot, NIC and index contention.

    Model per job: a CPU phase and a network phase that fully overlap
    (max rule, as in the pipelined cost model), where the network phase
    slows down proportionally to the number of jobs concurrently active
    on the same node (fair NIC sharing, approximated by charging each
    job its bandwidth share at dispatch time).  With an
    :class:`ShardedIndexSpec`, the job then drains its fingerprints
    through the shared index — per-shard chains of batched round trips,
    queued on each shard's slots — before releasing its node slot.
    """

    def __init__(
        self,
        lnode_count: int,
        cost_model: CostModel | None = None,
        slots_per_node: int | None = None,
        index_spec: ShardedIndexSpec | None = None,
    ) -> None:
        if lnode_count < 1:
            raise ValueError("need at least one L-node")
        self.model = cost_model or CostModel()
        self.lnode_count = lnode_count
        self.slots_per_node = slots_per_node or self.model.node_backup_slots
        self.index_spec = index_spec

    def _rpc_seconds(self, keys: int) -> float:
        """Virtual duration of one batched index round trip."""
        return self.model.oss_request_latency + keys * self.model.cpu_index_query

    def run(
        self,
        jobs: list[JobSpec],
        crashes: dict[int, float] | None = None,
        recovery_seconds: float | None = None,
        arrivals: list[float] | None = None,
    ) -> ClusterRunReport:
        """Dispatch all jobs; returns the schedule outcome.

        ``arrivals`` gives each job's submission time (e.g. a seeded
        stream from :func:`repro.sim.arrivals.tenant_arrivals`); without
        it every job is dispatched at time zero.  Staggered arrivals are
        what make overload visible as *queueing*: jobs arriving faster
        than nodes drain them pile up on the slot queues instead of all
        contending from the start.

        ``crashes`` maps job index → fraction of the job's main phase at
        which its node dies.  The partial work is wasted (the commit
        never landed, so recovery discards it), a replacement node spends
        ``recovery_seconds`` in attach-time recovery (journal scan,
        intent resolution, orphan GC — defaulting to three OSS request
        round trips: list, read, truncate), and the job then re-runs in
        full.  This quantifies what the crash-consistency layer costs at
        cluster scale: a crash adds latency, never inconsistency.
        """
        if arrivals is not None:
            if len(arrivals) != len(jobs):
                raise ValueError(
                    f"need one arrival per job: {len(arrivals)} != {len(jobs)}"
                )
            if any(t < 0 for t in arrivals):
                raise ValueError("arrival times cannot be negative")
        crashes = dict(crashes or {})
        for index, fraction in crashes.items():
            if not 0 <= index < len(jobs):
                raise ValueError(f"crash index {index} outside job list")
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"crash fraction must be in (0, 1): {fraction}"
                )
        if recovery_seconds is None:
            recovery_seconds = 3 * self.model.oss_request_latency
        loop = EventLoop()
        nodes = [
            SlotResource(loop, self.slots_per_node) for _ in range(self.lnode_count)
        ]
        spec = self.index_spec
        shards = (
            [SlotResource(loop, spec.slots_per_shard) for _ in range(spec.shard_count)]
            if spec is not None
            else []
        )
        report = ClusterRunReport(0.0, sum(job.logical_bytes for job in jobs))

        def drain_shard(shard: SlotResource, batches: list[int], finished) -> None:
            remaining = list(batches)

            def issue_next() -> None:
                keys = remaining.pop(0)

                def granted() -> None:
                    def done() -> None:
                        report.index_rpcs += 1
                        shard.release()
                        if remaining:
                            issue_next()
                        else:
                            finished()

                    loop.schedule(self._rpc_seconds(keys), done)

                shard.acquire(granted)

            issue_next()

        def index_phase(job: JobSpec, finish) -> None:
            plan = spec.per_shard_keys(job.index_lookups)
            chains = [
                (shards[i], spec.request_keys(keys))
                for i, keys in enumerate(plan)
                if keys
            ]
            if not chains:
                finish()
                return
            state = {"remaining": len(chains)}

            def chain_finished() -> None:
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    finish()

            for shard, batches in chains:
                drain_shard(shard, batches, chain_finished)

        def dispatch(
            job: JobSpec, node: SlotResource, crash_fraction: float | None = None
        ) -> None:
            def start() -> None:
                # NIC share: jobs concurrently active on this node split
                # its bandwidth; a job's share is fixed at start time
                # (a standard approximation that keeps the kernel simple
                # and errs pessimistically under heavy contention).
                concurrent = max(1, node.busy)
                bandwidth = self.model.node_nic_bandwidth / concurrent
                network_seconds = job.network_bytes / bandwidth
                duration = max(job.cpu_seconds, network_seconds)

                if crash_fraction is not None:
                    wasted = duration * crash_fraction

                    def crashed() -> None:
                        report.crashes_simulated += 1
                        report.wasted_seconds += wasted
                        report.recovery_seconds_total += recovery_seconds

                        def recovered() -> None:
                            # The replacement node retries the whole job:
                            # nothing committed, so nothing is resumable.
                            node.release()
                            dispatch(job, node)

                        loop.schedule(recovery_seconds, recovered)

                    loop.schedule(wasted, crashed)
                    return

                def finish() -> None:
                    report.completion_times.append(loop.now)
                    node.release()

                def main_done() -> None:
                    if spec is None or job.index_lookups <= 0:
                        finish()
                    else:
                        index_phase(job, finish)

                loop.schedule(duration, main_done)

            node.acquire(start)

        # Round-robin placement, as the facade's scheduler does.
        for index, job in enumerate(jobs):
            delay = arrivals[index] if arrivals is not None else 0.0
            loop.schedule(
                delay,
                lambda job=job, index=index: dispatch(
                    job, nodes[index % len(nodes)], crashes.get(index)
                ),
            )

        report.makespan_seconds = loop.run()
        return report

    def backup_throughput(self, job: JobSpec, jobs: int) -> float:
        """Aggregate MB/s for ``jobs`` identical concurrent jobs."""
        report = self.run([job] * jobs)
        return report.aggregate_throughput_mb_s

    # --- restore schedules --------------------------------------------------
    def run_restores(
        self,
        jobs: list[RestoreJobSpec],
        restore_slots: int | None = None,
        channels_per_node: int | None = None,
    ) -> ClusterRunReport:
        """Dispatch concurrent restore jobs with OSS-channel contention.

        Each node offers ``restore_slots`` concurrent restore jobs
        (``node_restore_slots``: "each L-node can execute up to eight
        restore jobs at the same time") and one shared
        :class:`~repro.sim.events.ChannelPool` of ``channels_per_node``
        OSS channels (``node_oss_channels``, the NIC-saturation point).
        A job holding a slot pays its serial setup, then replays its
        measured pipeline trace with its prefetcher competing for the
        node's channels — the Fig 10(b)-style restore scaling.  Jobs with
        ``prefetch_threads == 0`` run their reads synchronously (folded
        into demand time).
        """
        slots = restore_slots or self.model.node_restore_slots
        channels = channels_per_node or self.model.node_oss_channels
        loop = EventLoop()
        nodes = [SlotResource(loop, slots) for _ in range(self.lnode_count)]
        pools = [ChannelPool(loop, channels) for _ in range(self.lnode_count)]
        report = ClusterRunReport(0.0, sum(job.logical_bytes for job in jobs))

        def dispatch(job: RestoreJobSpec, node: SlotResource, pool: ChannelPool) -> None:
            if job.prefetch_threads == 0:
                job = job.serialised()

            def start() -> None:
                def run_pipeline() -> None:
                    def finish(process: RestorePipelineProcess) -> None:
                        report.completion_times.append(loop.now)
                        report.prefetch_stalls += process.stats.stall_count
                        report.prefetch_stall_seconds += process.stats.stall_seconds
                        node.release()

                    process = RestorePipelineProcess(
                        loop,
                        pool,
                        job.read_seconds,
                        job.record_reads,
                        job.record_cpu,
                        demand_seconds=job.demand_seconds,
                        max_parallel=max(1, job.prefetch_threads),
                        on_done=lambda: finish(process),
                    )
                    process.start()

                loop.schedule(job.setup_seconds, run_pipeline)

            node.acquire(start)

        for index, job in enumerate(jobs):
            node = index % len(nodes)
            dispatch(job, nodes[node], pools[node])

        report.makespan_seconds = loop.run()
        report.node_channel_busy_seconds = [list(pool.busy_seconds) for pool in pools]
        return report

    def restore_throughput(self, job: RestoreJobSpec, jobs: int) -> float:
        """Aggregate restore MB/s for ``jobs`` identical concurrent jobs."""
        report = self.run_restores([job] * jobs)
        return report.aggregate_throughput_mb_s
