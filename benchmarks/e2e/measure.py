"""One workload run: set-up, timed rounds, estimators, verification.

Everything here drives the public API only (``SlimStore.backup/restore/
recover``, ``BrowseSession.read``, ``space_report``, ``oss.stats``) from one
closed-loop client.

Estimators (why: README.md, "Estimators").  A noisy neighbour on this kind
of host slows a run for seconds at a time and only ever slows it, so every
wall-clock number is a *minimum over repeats of the same call*, and the
repeats of one call are spread over the whole run: a run is several rounds
of [ingest every version into a fresh store, then restore the newest and the
oldest version, replay the browse sequence and attach, all on that store].
A call's time is its fastest repeat over all rounds; a phase is the sum of
its calls.  A disturbance has to cover every round to move a number.

Counts and virtual-clock numbers must be identical in every round; a
mismatch is counted as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import BrowseSession, SlimStore
from repro.chunking import make_chunker
from repro.sim.metrics import LatencyStats

from hostprobe import HostProbe
from tracing import PhaseProfile, Tracer
from workloads import MIB, Dataset, Workload, build_dataset

clock = time.perf_counter
READ_BYTES = 4096
BROWSE_SEED = 414
SIM_CATEGORIES = ("chunking", "fingerprinting", "index_query", "other", "upload", "download")
OSS_COUNTS = ("put_requests", "get_requests", "bytes_written", "bytes_read")
#: Seconds after process start from which every loop stops at what it has
#: (at least one sample): the driver kills a run at 180 s, and this host has
#: minutes during which everything runs several times slower.
LATE_AFTER_S = 110.0


@dataclass(frozen=True)
class Effort:
    """How much measuring one run does (counts are per round)."""

    setup_cycles: int
    rounds: int
    restore_passes: int
    restore_seconds: float
    #: Share of the workload's browse sequence that is replayed.
    browse_share: float
    attach_calls: int
    attach_seconds: float
    #: ``clock()`` value after which loops stop early.
    deadline: float = math.inf

    @classmethod
    def for_seconds(cls, seconds: float, rounds: int, process_start: float) -> "Effort":
        # Ingest is fixed work (about half of a 30 s run).  Over the whole
        # run each restore phase gets >= 6 passes and >= seconds/10, attach
        # >= 12 calls and >= seconds/30, shared out evenly between the rounds.
        return cls(
            setup_cycles=3,
            rounds=rounds,
            restore_passes=max(1, round(6 / rounds)),
            restore_seconds=seconds / 10 / rounds,
            browse_share=1.0,
            attach_calls=math.ceil(12 / rounds),
            attach_seconds=seconds / 30 / rounds,
            deadline=process_start + LATE_AFTER_S,
        )

    @classmethod
    def smoke(cls) -> "Effort":
        return cls(
            setup_cycles=1,
            rounds=2,
            restore_passes=1,
            restore_seconds=0.0,
            browse_share=0.1,
            attach_calls=2,
            attach_seconds=0.0,
        )

    def more(self, done: int, minimum: int, started: float = 0.0, seconds: float = 0.0) -> bool:
        """Whether a loop that has ``done`` samples takes another one."""
        if done and clock() > self.deadline:
            return False
        return done < minimum or clock() - started < seconds


#: One pass of everything: the warm-up cycle and the traced round.
ONCE = Effort(
    setup_cycles=1,
    rounds=1,
    restore_passes=1,
    restore_seconds=0.0,
    browse_share=0.0,
    attach_calls=1,
    attach_seconds=0.0,
)


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)


@dataclass
class IngestRun:
    store: SlimStore
    #: Wall seconds of every ``SlimStore.backup`` call, in stream order.
    call_s: list[float]
    #: (dataset version, path) -> per-path version the backup was given.
    versions: dict[tuple[int, str], int]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    virtual_s: float = 0.0
    sim: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    gnode: Counter = field(default_factory=Counter)
    oss: dict = field(default_factory=dict)
    #: ``space_report()`` and global-index facts once every version landed.
    space: object = None
    index: dict = field(default_factory=dict)

    def exact_signature(self) -> tuple:
        """Everything that must not differ between rounds of one seed."""
        return (
            self.space.total_bytes,
            tuple(sorted(self.oss.items())),
            self.virtual_s,
            tuple(sorted(self.counters.items())),
            tuple(sorted(self.index.items())),
        )


def ingest(dataset: Dataset, config, ops: Ops) -> IngestRun:
    """Back up every version into a fresh store, timing each call."""
    gc.collect()
    store = SlimStore(config)
    run = IngestRun(store, [], {})
    before = store.oss.stats.snapshot()
    cpu0, wall0 = time.process_time(), clock()
    for version, files in enumerate(dataset.versions):
        for path, data in files:
            start = clock()
            report = store.backup(path, data)
            run.call_s.append(clock() - start)
            result = report.result
            ops.check(result.logical_bytes == len(data), f"backup {path}@{version}")
            run.versions[(version, path)] = report.version
            run.virtual_s += result.elapsed_seconds
            for name in SIM_CATEGORIES:
                run.sim[name] += getattr(result.breakdown, name)
            run.counters.update(result.counters.counts)
            if report.reverse_dedup is not None:
                for name in ("duplicates_removed", "bytes_reclaimed", "containers_rewritten"):
                    run.gnode[name] += getattr(report.reverse_dedup, name)
            if report.compaction is not None:
                run.gnode["bytes_reclaimed"] += report.compaction.bytes_reclaimed
                run.gnode["containers_rewritten"] += len(report.compaction.sparse_containers)
    run.wall_s, run.cpu_s = clock() - wall0, time.process_time() - cpu0
    run.oss = vars(store.oss.stats.diff(before))
    run.space = store.space_report()
    index = store.storage.global_index
    run.index = {
        "sstables": sum(shard["sstables"] for shard in index.shard_stats()),
        "keys_put": index.counters.get("index_assigns"),
        "keys_probed": index.counters.get("index_lookups")
        + index.counters.get("index_batch_lookups"),
    }
    return run


class RestoreEstimate:
    """Restores of every file of one dataset version, over all rounds."""

    def __init__(self, dataset: Dataset, version: int) -> None:
        self.dataset, self.version = dataset, version
        self.files = dataset.versions[version]
        self.logical_bytes = dataset.version_bytes(version)
        self.best = [math.inf] * len(self.files)
        self.pass_totals_s: list[float] = []
        #: Virtual seconds, counters and OSS traffic of one pass.
        self.virtual_s = 0.0
        self.counters: Counter = Counter()
        self.oss: dict = {}

    @property
    def estimate_s(self) -> float:
        """Per-file minimum over every pass, summed."""
        return sum(self.best)

    def one_pass(self, run: IngestRun, ops: Ops) -> None:
        before = run.store.oss.stats.snapshot()
        virtual_s, counters, total = 0.0, Counter(), 0.0
        for index, (path, _) in enumerate(self.files):
            start = clock()
            result = run.store.restore(path, run.versions[(self.version, path)])
            elapsed = clock() - start
            self.best[index] = min(self.best[index], elapsed)
            total += elapsed
            ops.check(
                hashlib.sha256(result.data).digest()
                == self.dataset.sha256[(self.version, path)],
                f"restore {path}@{self.version}",
            )
            virtual_s += result.elapsed_seconds
            counters.update(result.counters.counts)
        traffic = run.store.oss.stats.diff(before)
        oss = {name: getattr(traffic, name) for name in OSS_COUNTS}
        if not self.pass_totals_s:
            self.virtual_s, self.counters, self.oss = virtual_s, counters, oss
        else:
            # Virtual seconds are differences of a running float clock, so
            # they repeat to rounding, not to the bit.
            same = (
                (counters, oss) == (self.counters, self.oss)
                and math.isclose(virtual_s, self.virtual_s, rel_tol=1e-9)
            )
            ops.check(same, f"restore of version {self.version} differs between passes")
        self.pass_totals_s.append(total)

    def passes(self, run: IngestRun, effort: Effort, ops: Ops) -> None:
        started, done = clock(), 0
        while effort.more(done, effort.restore_passes, started, effort.restore_seconds):
            self.one_pass(run, ops)
            done += 1


def browse_sequence(dataset: Dataset, count: int) -> list[tuple[int, int, int]]:
    """``count`` reads uniform over (version, file, offset).

    The sequence is part of the dataset's structure, so it has its own fixed
    seed: ``--seed`` changes the bytes read, not where they are read.
    """
    rng = np.random.default_rng(BROWSE_SEED)
    reads = []
    for _ in range(count):
        version = int(rng.integers(len(dataset.versions)))
        index = int(rng.integers(len(dataset.versions[version])))
        size = len(dataset.versions[version][index][1])
        reads.append((version, index, int(rng.integers(max(1, size - READ_BYTES + 1)))))
    return reads


def replay(session, run: IngestRun, dataset: Dataset, reads, ops: Ops) -> list[float]:
    times = []
    for version, index, offset in reads:
        path, data = dataset.versions[version][index]
        start = clock()
        got = session.read(path, offset, READ_BYTES, version=run.versions[(version, path)])
        times.append(clock() - start)
        ops.check(got == data[offset : offset + READ_BYTES], f"browse {path}@{version}+{offset}")
    return times


class BrowseEstimate:
    """One cold and one warm replay of the read sequence per round."""

    def __init__(self, dataset: Dataset, count: int) -> None:
        self.dataset = dataset
        self.reads = browse_sequence(dataset, count)
        self.cold_runs: list[list[float]] = []
        self.warm_runs: list[list[float]] = []
        #: OSS bytes read, hit ratio and evictions of one cold session.
        self.cold_facts: tuple | None = None

    def session(self, run: IngestRun, ops: Ops) -> None:
        gc.collect()
        before = run.store.oss.stats.snapshot()
        session = BrowseSession(run.store)
        self.cold_runs.append(replay(session, run, self.dataset, self.reads, ops))
        facts = (
            run.store.oss.stats.diff(before).bytes_read,
            session.stats.hit_ratio,
            session.stats.evictions,
        )
        if self.cold_facts is None:
            self.cold_facts = facts
        else:
            ops.check(facts == self.cold_facts, "browse session differs between rounds")
        self.warm_runs.append(replay(session, run, self.dataset, self.reads, ops))

    @property
    def cold_s(self) -> list[float]:
        """Per-read minimum over the cold sessions."""
        return [min(column) for column in zip(*self.cold_runs)]

    @property
    def warm_s(self) -> list[float]:
        return [min(column) for column in zip(*self.warm_runs)]


def attach(run: IngestRun, config, effort: Effort, ops: Ops) -> list[float]:
    """Time ``SlimStore(config, oss=...).recover()`` on the round's repository.

    Last in a round: a store built on a shared endpoint re-points the
    endpoint's IO pool at its own executor, and closing it detaches the pool.
    """
    paths = len(run.store.catalog.paths())
    times: list[float] = []
    started = clock()
    while effort.more(len(times), effort.attach_calls, started, effort.attach_seconds):
        start = clock()
        attached = SlimStore(config, oss=run.store.oss)
        found = attached.recover()
        times.append(clock() - start)
        ops.check(found and len(attached.catalog.paths()) == paths, "attach")
        attached.close()
    return times


def warm_up(workload: Workload, config, seed: int, ops: Ops) -> None:
    """One small round on a throw-away store, so lazy imports, numpy tables
    and worker pools are loaded before anything is timed."""
    dataset = build_dataset(workload.make_generator(smoke=True), seed)
    run = ingest(dataset, config, ops)
    RestoreEstimate(dataset, len(dataset.versions) - 1).one_pass(run, ops)
    BrowseEstimate(dataset, 64).session(run, ops)
    attach(run, config, ONCE, ops)
    run.store.close()


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    process_start: float,
    trace_path=None,
) -> dict:
    """Run one workload; returns metrics, raw repeats and op accounting."""
    effort = Effort.smoke() if smoke else Effort.for_seconds(seconds, workload.rounds, process_start)
    ops = Ops()
    imports_s = clock() - process_start

    # --- set-up, several times; the median cycle is reported ---------------
    cycles, generate = [], []
    dataset = None
    for _ in range(effort.setup_cycles):
        del dataset  # one dataset in memory at a time
        start = clock()
        dataset = build_dataset(workload.make_generator(smoke), seed)
        generate.append(clock() - start)
        config = workload.store_config()
        warm_up(workload, config, seed, ops)
        cycles.append(clock() - start)
    setup_s = imports_s + statistics.median(cycles)

    # --- rounds: ingest, then the read side on that round's store -----------
    newest = len(dataset.versions) - 1
    latest = RestoreEstimate(dataset, newest)
    oldest = RestoreEstimate(dataset, 0)
    browse = BrowseEstimate(dataset, int(workload.browse_reads * effort.browse_share))
    attach_s: list[float] = []
    call_columns: list[list[float]] = []
    cpu_per_wall: list[float] = []
    first = None  # the first round, which every later round must repeat
    untraced = effort.rounds - (1 if trace else 0)
    probe = HostProbe()
    while effort.more(len(call_columns), untraced):
        probe.sample()
        run = ingest(dataset, config, ops)
        probe.sample()
        call_columns.append(run.call_s)
        cpu_per_wall.append(run.cpu_s / run.wall_s)
        if first is None:
            first = run
        else:
            ops.check(
                run.exact_signature() == first.exact_signature(),
                "exact metrics differ between rounds",
            )
        latest.passes(run, effort, ops)
        oldest.passes(run, effort, ops)
        probe.sample()
        browse.session(run, ops)
        attach_s += attach(run, config, effort, ops)
        run.store.close()
        run.store = None  # the round's repository is garbage from here
    probe.sample()

    run, space = first, first.space
    first_calls = len(dataset.versions[0])
    calls = [min(column) for column in zip(*call_columns)]
    full_s = sum(calls[:first_calls])
    incr_calls = calls[first_calls:]
    incr_s = sum(incr_calls)
    logical = dataset.logical_bytes
    full_bytes = dataset.version_bytes(0)
    cold_s, warm_s = browse.cold_s, browse.warm_s
    oss_requests = sum(
        run.oss[name]
        for name in ("put_requests", "get_requests", "delete_requests", "list_requests")
    )
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "backup_full_mib_s": (full_bytes / MIB / full_s, "MiB/s"),
        "backup_incr_mib_s": ((logical - full_bytes) / MIB / incr_s, "MiB/s"),
        "backup_call_p50_ms": (statistics.median(incr_calls) * 1e3, "ms"),
        "restore_latest_mib_s": (latest.logical_bytes / MIB / latest.estimate_s, "MiB/s"),
        "restore_oldest_mib_s": (oldest.logical_bytes / MIB / oldest.estimate_s, "MiB/s"),
        "browse_reads_per_s": (len(cold_s) / sum(cold_s), "reads/s"),
        "attach_s": (min(attach_s), "s"),
        # Read before the traced round, whose spans are not a user's memory.
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "stored_bytes_per_logical_byte": (space.total_bytes / logical, "ratio"),
        "backup_oss_bytes_per_byte": (
            (run.oss["bytes_written"] + run.oss["bytes_read"]) / logical,
            "ratio",
        ),
        "backup_oss_requests_per_mib": (oss_requests / (logical / MIB), "req/MiB"),
        "restore_oldest_oss_bytes_per_byte": (
            oldest.oss["bytes_read"] / oldest.logical_bytes,
            "ratio",
        ),
        "virtual_backup_mib_s": (logical / MIB / run.virtual_s, "MiB/s"),
        "virtual_restore_latest_mib_s": (
            latest.logical_bytes / MIB / latest.virtual_s,
            "MiB/s",
        ),
    }
    round_backup_s = [sum(column) for column in call_columns]
    raw = {
        "effort": {k: v for k, v in vars(effort).items() if k != "deadline"},
        "setup_cycles_s": cycles,
        "imports_s": imports_s,
        "round_backup_full_s": [sum(column[:first_calls]) for column in call_columns],
        "round_backup_incr_s": [sum(column[first_calls:]) for column in call_columns],
        "backup_calls": len(calls),
        "backup_incr_calls": len(incr_calls),
        "restore_latest_pass_s": latest.pass_totals_s,
        "restore_oldest_pass_s": oldest.pass_totals_s,
        "browse_cold_session_s": [sum(times) for times in browse.cold_runs],
        "browse_reads": len(cold_s),
        "attach_calls_s": attach_s,
        "estimated_phase_s": {
            "backup_full": full_s,
            "backup_incr": incr_s,
            "restore_latest": latest.estimate_s,
            "restore_oldest": oldest.estimate_s,
            "browse": sum(cold_s),
        },
        "logical_bytes": logical,
        "host_clock_kernel_s": probe.clock_s,
    }

    per_layer = {}
    if trace:
        restore_counters = latest.counters + oldest.counters
        restored = latest.logical_bytes + oldest.logical_bytes
        oss_bytes_read, hit_ratio, evictions = browse.cold_facts
        per_layer = {
            "workloads.generate_s": (statistics.median(generate), "s"),
            "workloads.logical_mib": (logical / MIB, "MiB"),
            "workloads.cross_version_dup": (dataset.cross_version_dup, "ratio"),
            "chunking.chunks": (run.counters["chunks"], "count"),
            "chunking.avg_chunk_bytes": (logical / run.counters["chunks"], "B"),
            # The least disturbed round: a neighbour adds wall time, not CPU time.
            "exec.backup_cpu_per_wall": (max(cpu_per_wall), "ratio"),
            "dedup.skip_success": (run.counters["skip_success"], "count"),
            "dedup.skip_fail": (run.counters["skip_fail"], "count"),
            "dedup.superchunk_hits": (run.counters["superchunk_hits"], "count"),
            "dedup.dup_bytes_share": (run.counters["dup_bytes"] / logical, "ratio"),
            "dedup.segments_prefetched": (run.counters["segments_prefetched"], "count"),
            "similar_index.bytes": (space.similar_index_bytes, "B"),
            "recipe.bytes": (space.recipe_bytes, "B"),
            "container.written": (run.counters["containers_written"], "count"),
            "container.read": (restore_counters["containers_read"], "count"),
            "global_index.keys_put": (run.index["keys_put"], "count"),
            "global_index.keys_probed": (run.index["keys_probed"], "count"),
            "kvstore.sstables": (run.index["sstables"], "count"),
            "system.backup_call_p95_ms": (LatencyStats(incr_calls).percentile(95) * 1e3, "ms"),
            "system.backup_call_max_ms": (max(incr_calls) * 1e3, "ms"),
            "gnode.duplicates_removed": (run.gnode["duplicates_removed"], "count"),
            "gnode.bytes_reclaimed": (run.gnode["bytes_reclaimed"], "B"),
            "gnode.containers_rewritten": (run.gnode["containers_rewritten"], "count"),
            "restore.containers_read": (restore_counters["containers_read"], "count"),
            "restore.read_amplification": (
                restore_counters["container_bytes_read"] / restored,
                "ratio",
            ),
            "restore.prefetch_stalls": (restore_counters["prefetch_stalls"], "count"),
            "restore.ranged_bytes_saved": (restore_counters["ranged_bytes_saved"], "B"),
            "browse.read_p50_ms": (statistics.median(cold_s) * 1e3, "ms"),
            "browse.read_p95_ms": (LatencyStats(cold_s).percentile(95) * 1e3, "ms"),
            "browse.warm_reads_per_s": (len(warm_s) / sum(warm_s), "reads/s"),
            "browse.oss_bytes_per_read": (oss_bytes_read / len(cold_s), "B"),
            "blockcache.hit_ratio": (hit_ratio, "ratio"),
            "blockcache.evictions": (evictions, "count"),
        }
        for name in OSS_COUNTS:
            unit = "count" if name.endswith("requests") else "B"
            per_layer[f"oss.backup_{name}"] = (run.oss[name], unit)
            per_layer[f"oss.restore_{name}"] = (latest.oss[name] + oldest.oss[name], unit)
        for name in SIM_CATEGORIES:
            per_layer[f"sim.backup_{name}_s"] = (run.sim[name], "s")
        per_layer.update(probe.metrics())
        traced, raw["traced_phase_s"] = traced_round(
            dataset, config, first.exact_signature(), min(round_backup_s), ops, trace_path
        )
        per_layer.update(traced)

    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "raw": raw,
        "attempted": ops.attempted,
        "failed": ops.failed,
    }


def traced_round(
    dataset: Dataset, config, signature, untraced_backup_s: float, ops: Ops, trace_path
) -> tuple[dict, dict]:
    """One more round with span recorders installed.

    Returns the ``*_s`` layer metrics and the harness's own clock for each
    traced phase (the sum of the layer self times must match it).
    """
    tracer = Tracer()
    tracer.install(type(make_chunker(config.chunker, config.chunker_params())))
    try:
        tracer.phase = "backup"
        run = ingest(dataset, config, ops)
        ops.check(run.exact_signature() == signature, "traced round differs from untraced")
        tracer.phase = "restore"
        latest = RestoreEstimate(dataset, len(dataset.versions) - 1)
        oldest = RestoreEstimate(dataset, 0)
        latest.one_pass(run, ops)
        oldest.one_pass(run, ops)
        tracer.phase = "browse"
        replay(BrowseSession(run.store), run, dataset, browse_sequence(dataset, 500), ops)
        tracer.phase = "attach"
        attach(run, config, ONCE, ops)
        run.store.close()
    finally:
        tracer.uninstall()
    if trace_path is not None:
        tracer.dump(trace_path)
    # (An attach also builds a SlimStore, which is no span: not compared.)
    phase_s = {
        "backup": sum(run.call_s),
        "restore": latest.pass_totals_s[0] + oldest.pass_totals_s[0],
    }

    backup = PhaseProfile(tracer.spans, "backup")
    restore = PhaseProfile(tracer.spans, "restore")
    recovery = PhaseProfile(tracer.spans, "attach")
    puts = ("ObjectStorageService.put_object",)
    gets = (
        "ObjectStorageService.get_object",
        "ObjectStorageService.get_range",
        "ObjectStorageService.get_ranges",
    )
    scan_s = backup.self_of("Chunker.boundaries")
    seconds = {
        "chunking.scan_self_s": scan_s,
        "exec.chunk_fp_self_s": backup.self_of("ParallelExecutor.chunk_and_fingerprint"),
        "exec.off_thread_span_s": backup.off_thread_s,
        "dedup.classify_self_s": backup.self_of("LNode.backup"),
        "similar_index.self_s": backup.self_of_class("SimilarFileIndex."),
        "recipe.self_s": backup.self_of_class("RecipeStore.")
        + backup.self_of_class("RecipeHandle."),
        "container.write_self_s": backup.self_of("ContainerStore.write"),
        "container.read_self_s": restore.self_of(
            "ContainerStore.read_data", "ContainerStore.read_meta", "ContainerStore.read_spans"
        ),
        "global_index.self_s": backup.self_of_class("GlobalIndex."),
        # The catalog's own share of a backup call: serialising it and the
        # PUT of the serialised object.
        "catalog.persist_self_s": backup.self_of("VersionCatalog.to_json")
        + backup.oss_self(puts, "catalog"),
        "journal.self_s": backup.self_of_class("IntentJournal.")
        + backup.oss_self(puts + ("ObjectStorageService.delete_object",), "journal"),
        "gnode.reverse_dedup_s": backup.total_s["GNode.reverse_dedup"],
        "gnode.compact_s": backup.total_s["GNode.compact_sparse"],
        "restore.engine_self_s": restore.self_of("LNode.restore"),
        "restore_plan.plan_s": restore.total_s["RestorePlanner.plan"],
        "recovery.global_index_s": recovery.total_s["GlobalIndex.recover"],
        "recovery.containers_s": recovery.total_s["ContainerStore.recover"],
        "recovery.similar_index_s": recovery.total_s["SimilarFileIndex.load"],
        "oss.backup_put_self_s": backup.oss_self(puts),
        "oss.backup_get_self_s": backup.oss_self(gets),
        "oss.restore_put_self_s": restore.oss_self(puts),
        "oss.restore_get_self_s": restore.oss_self(gets),
        "system.backup_self_s": backup.self_of("SlimStore.backup"),
        "system.restore_self_s": restore.self_of("SlimStore.restore"),
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    scanned = backup.size_sum["Chunker.boundaries"]
    metrics["chunking.scan_mib_s"] = (scanned / MIB / scan_s if scan_s else 0.0, "MiB/s")
    metrics["catalog.bytes_written"] = (
        backup.tagged_size[("ObjectStorageService.put_object", "catalog")],
        "B",
    )
    metrics["journal.puts"] = (
        backup.calls["IntentJournal.begin"] + backup.calls["IntentJournal.update"],
        "count",
    )
    metrics["trace.overhead_ratio"] = (phase_s["backup"] / untraced_backup_s, "ratio")
    return metrics, phase_s
