#!/usr/bin/env python3
"""Enterprise backup scenario: R-Data, cluster scaling, restic comparison.

Backs up a many-file enterprise workload (the paper's R-Data shape) through
both SLIMSTORE and the restic model, then projects cluster-scale throughput
for concurrent jobs over multiple L-nodes — the paper's Fig 10 story:
stateless L-nodes scale linearly while restic serialises on its shared
repository index.

Run:  python examples/enterprise_backup.py
"""

from __future__ import annotations

from repro import ObjectStorageService, SlimStore, SlimStoreConfig
from repro.baselines import ResticRepository
from repro.bench.scaling import restic_aggregate_throughput
from repro.core.cluster import ClusterSimulator, JobSpec
from repro.sim.cost_model import CostModel
from repro.workloads import RDataConfig, RDataGenerator


def main() -> None:
    generator = RDataGenerator(
        RDataConfig(file_count=24, version_count=5, max_file_bytes=1 << 20,
                    size_log_mean=12.2, seed=1953)
    )
    versions = generator.versions()

    slim = SlimStore(
        SlimStoreConfig(
            chunk_avg_size=8192,
            min_superchunk_bytes=32 * 1024,
            max_superchunk_bytes=64 * 1024,
            merge_threshold=3,
        )
    )
    restic = ResticRepository(
        ObjectStorageService(CostModel()), chunk_avg=128 * 1024, pack_bytes=1 << 20
    )

    print(f"Backing up {len(versions[0].files)} files x {len(versions)} versions "
          "through SLIMSTORE and restic...\n")
    slim_jobs, restic_jobs = [], []
    for dataset_version in versions:
        for item in dataset_version.files:
            slim_jobs.append(slim.backup(item.path, item.data).result)
            restic_jobs.append(restic.backup(item.path, item.data))

    slim_job = max(slim_jobs[-len(versions[-1].files):], key=lambda r: r.logical_bytes)
    restic_job = max(restic_jobs[-len(versions[-1].files):], key=lambda r: r.logical_bytes)
    print(f"Typical job ({slim_job.logical_bytes >> 10} KiB file):")
    print(f"  SLIMSTORE: {slim_job.throughput_mb_s:.0f} MB/s")
    print(f"  restic:    {restic_job.throughput_mb_s:.0f} MB/s "
          f"({restic_job.serial_seconds * 1e3:.1f} ms under the repo lock)")

    print("\nProjected aggregate backup throughput (6 L-nodes):")
    print(f"{'jobs':>5}  {'SLIMSTORE MB/s':>14}  {'restic MB/s':>11}")
    cluster = ClusterSimulator(6)
    slim_spec = JobSpec.from_backup_result(slim_job)
    for jobs in (1, 4, 13, 24, 48, 72):
        slim_aggregate = cluster.backup_throughput(slim_spec, jobs)
        restic_aggregate = restic_aggregate_throughput(
            restic_job.logical_bytes,
            restic_job.breakdown.elapsed_pipelined(),
            restic_job.serial_seconds,
            jobs,
        )
        print(f"{jobs:>5}  {slim_aggregate:>14.0f}  {restic_aggregate:>11.0f}")

    slim_space = slim.space_report().container_bytes
    restic_space = restic.stored_bytes()
    print(
        f"\nOccupied space: SLIMSTORE {slim_space / (1 << 20):.1f} MB vs "
        f"restic {restic_space / (1 << 20):.1f} MB "
        f"({slim_space / restic_space:.0%} of restic)"
    )

    # Spot-check correctness on the latest state of every file.
    for item in versions[-1].files:
        assert slim.restore(item.path).data == item.data
    print("\nAll latest-version restores verified byte-exact.")


if __name__ == "__main__":
    main()
