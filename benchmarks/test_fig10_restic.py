"""Fig 10: SLIMSTORE vs restic on the R-Data workload.

Paper findings:
(a) SLIMSTORE backup throughput scales linearly with concurrent jobs,
    spilling onto more L-nodes past one node's slots, reaching 9102 MB/s
    at 72 jobs; restic's shared, locked repository index caps it at
    ~170 MB/s no matter how many jobs run.  One SLIMSTORE job also beats
    one restic job by ~25%.
(b) restores scale the same way: 3676 MB/s at 6 L-nodes x 8 jobs vs
    restic's 102 MB/s ceiling.
(c) SLIMSTORE's adaptive chunk sizes save ~20% of space vs restic's large
    fixed-average chunks; global reverse dedup adds a few percent more.

Scale note: chunk sizes shrink with the workload (SLIMSTORE 8 KB merging
up to 128 KB, restic 64 KB) to preserve the production chunk:file ratio.
"""

from __future__ import annotations

from repro import ObjectStorageService, SlimStore, SlimStoreConfig
from repro.baselines import ResticRepository
from repro.bench.reporting import format_series, format_table
from repro.bench.scaling import restic_aggregate_throughput
from repro.core.cluster import ClusterSimulator, JobSpec, RestoreJobSpec
from repro.sim.cost_model import CostModel
from repro.workloads import RDataConfig, RDataGenerator

JOB_COUNTS = [1, 2, 4, 8, 13, 24, 48, 72]
RESTORE_JOBS = [1, 2, 4, 8, 16, 32, 48]
LNODES = 6


def _slim_config() -> SlimStoreConfig:
    return SlimStoreConfig(
        chunk_avg_size=8192,
        min_superchunk_bytes=32 * 1024,
        max_superchunk_bytes=64 * 1024,
        merge_threshold=3,
        reverse_dedup=True,
        sparse_compaction=True,
        # Offline space optimisation runs continuously in this experiment,
        # so stale containers are rewritten eagerly.
        container_rewrite_threshold=0.10,
    )


def run_rdata_comparison():
    generator = RDataGenerator(
        RDataConfig(file_count=32, version_count=6, size_log_mean=12.2,
                    max_file_bytes=1 << 20, seed=1953)
    )
    versions = generator.versions()

    slim = SlimStore(_slim_config())
    slim_noreverse = SlimStore(_slim_config().with_overrides(reverse_dedup=False))
    restic = ResticRepository(
        ObjectStorageService(CostModel()), chunk_avg=128 * 1024, pack_bytes=1 << 20
    )

    slim_jobs, restic_jobs = [], []
    restic_snapshots = {}
    for dataset_version in versions:
        for item in dataset_version.files:
            slim_jobs.append(slim.backup(item.path, item.data).result)
            slim_noreverse.backup(item.path, item.data, run_gnode=True)
            result = restic.backup(item.path, item.data)
            restic_jobs.append(result)
            restic_snapshots[item.path] = result.snapshot_id

    # Typical jobs: the largest file of the last version.  The paper's
    # R-Data files average ~200 MB, so representative jobs are the large
    # ones; small files' fixed per-job costs would not amortise at this
    # reduced scale.
    last_count = len(versions[-1].files)
    slim_last = slim_jobs[-last_count:]
    restic_last = restic_jobs[-last_count:]
    slim_job = max(slim_last, key=lambda r: r.logical_bytes)
    restic_job = max(restic_last, key=lambda r: r.logical_bytes)

    # One typical restore job per system (paper: 2 prefetch threads).
    target_path = slim_job.path
    slim_restore = slim.restore(target_path, prefetch_threads=2, verify=False)
    restic_restore = restic.restore(restic_snapshots[target_path])
    assert slim_restore.data == restic_restore.data

    return (
        slim, slim_noreverse, restic,
        slim_job, restic_job, slim_restore, restic_restore,
    )


def test_fig10_slimstore_vs_restic(benchmark, record):
    (slim, slim_noreverse, restic, slim_job, restic_job,
     slim_restore, restic_restore) = benchmark.pedantic(
        run_rdata_comparison, rounds=1, iterations=1
    )
    # SLIMSTORE's curves replay the measured job on the event-driven
    # cluster: slot waves, node spill and the NIC ceiling come out of the
    # schedule.
    cluster = ClusterSimulator(LNODES)

    # --- (a) backup scaling ------------------------------------------------
    backup_spec = JobSpec.from_backup_result(slim_job)
    slim_backup_curve = [
        cluster.backup_throughput(backup_spec, jobs) for jobs in JOB_COUNTS
    ]
    restic_backup_curve = [
        restic_aggregate_throughput(
            restic_job.logical_bytes,
            restic_job.breakdown.elapsed_pipelined(),
            restic_job.serial_seconds,
            jobs,
        )
        for jobs in JOB_COUNTS
    ]
    record(
        "fig10a_backup_scaling",
        format_series(
            "Fig 10(a): aggregate backup throughput (MB/s) vs concurrent jobs",
            "jobs", JOB_COUNTS,
            {"SLIMSTORE": slim_backup_curve, "restic": restic_backup_curve},
        ),
    )

    # --- (b) restore scaling -------------------------------------------------
    restore_spec = RestoreJobSpec.from_restore_result(slim_restore)
    slim_restore_curve = [
        cluster.restore_throughput(restore_spec, jobs) for jobs in RESTORE_JOBS
    ]
    # Concurrent restic restores share one OSSFS repository mount, whose
    # read path sustains only a handful of parallel channels — the
    # structural reason the paper measured a ~102 MB/s restic restore
    # ceiling regardless of job count.
    mount_channels = 4
    restic_restore_curve = [
        restic_aggregate_throughput(
            len(restic_restore.data),
            restic_restore.breakdown.cpu_seconds() + restic_restore.breakdown.download,
            restic_restore.serial_seconds
            + restic_restore.breakdown.index_query
            + restic_restore.breakdown.download / mount_channels,
            jobs,
        )
        for jobs in RESTORE_JOBS
    ]
    record(
        "fig10b_restore_scaling",
        format_series(
            "Fig 10(b): aggregate restore throughput (MB/s) vs concurrent jobs",
            "jobs", RESTORE_JOBS,
            {"SLIMSTORE": slim_restore_curve, "restic": restic_restore_curve},
        ),
    )

    # --- (c) occupied space ----------------------------------------------------
    slim_space = slim.space_report().container_bytes
    slim_noreverse_space = slim_noreverse.space_report().container_bytes
    restic_space = restic.stored_bytes()
    gdedupe_saving = 1 - slim_space / slim_noreverse_space
    record(
        "fig10c_space",
        format_table(
            "Fig 10(c): occupied space on R-Data",
            ["system", "stored MB", "vs restic"],
            [
                ["restic", f"{restic_space / (1 << 20):.1f}", "1.00x"],
                ["SLIMSTORE (no G-dedupe)",
                 f"{slim_noreverse_space / (1 << 20):.1f}",
                 f"{slim_noreverse_space / restic_space:.2f}x"],
                ["SLIMSTORE", f"{slim_space / (1 << 20):.1f}",
                 f"{slim_space / restic_space:.2f}x"],
            ],
        ),
    )

    # --- paper-shape assertions ------------------------------------------------
    # One SLIMSTORE job outruns one restic job (paper: +25%).
    assert slim_backup_curve[0] > restic_backup_curve[0]
    # SLIMSTORE scales ~linearly to 72 jobs across 6 L-nodes.
    assert slim_backup_curve[-1] > 40 * slim_backup_curve[0]
    # restic flat-lines: more jobs never buy more than a few x one job
    # (paper: ~1.3x; the locked fraction is somewhat smaller at this
    # scale because the repository index is proportionally tiny).
    assert max(restic_backup_curve) < 4.5 * restic_backup_curve[0]
    # The scalability gap is an order of magnitude or more (paper: 9102 vs 170).
    assert slim_backup_curve[-1] > 10 * max(restic_backup_curve)
    # Restore: linear SLIMSTORE scaling vs a restic ceiling (3676 vs 102).
    assert slim_restore_curve[-1] > 20 * slim_restore_curve[0] / RESTORE_JOBS[0]
    assert slim_restore_curve[-1] > 10 * max(restic_restore_curve)
    # Space: SLIMSTORE stores less than restic (paper: ~20% less)...
    assert slim_space < 0.95 * restic_space
    # ...with reverse dedup contributing extra savings (paper: 4.6%; the
    # share is larger here because G-dedupe also reclaims the superchunk
    # constituents' old copies, a bigger fraction of a 6-version run).
    assert 0.0 < gdedupe_saving < 0.50, gdedupe_saving
