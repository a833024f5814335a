"""Ablation: global-index sharding x batched lookups (Section VI-A).

Two halves, one grid (1/4/16 shards x batch on/off):

* **G-dedup index time** — the real system runs a multi-version S-DB
  workload; the reverse-dedup pass resolves every candidate fingerprint
  against the global index through the sharded ``get_many`` path, either
  one fingerprint per round trip (``index_batch_size=1``, batch "off") or
  256, and the virtual seconds it charges for index traffic are summed.
* **Cluster ingest makespan** — the event-driven cluster simulator runs
  eight concurrent ingest jobs whose unique fingerprints drain through
  the shared index, one slot per shard, batch size 256 when batching is
  on.  The job's lookup count is taken from a measured backup result.

One shard, unbatched is the baseline both halves must beat.

The "gdedup index ms" column counts real Rocks-OSS probes, and each absent
key the per-shard Bloom prefilter happens to pass is one of them — so the
column moves by a few percent, in either direction per cell, whenever the
filters' position function changes (which keys are the false positives,
not how many on average).  Duplicates removed, makespan and rpcs do not
depend on it.
"""

from __future__ import annotations

from repro import SlimStore, SlimStoreConfig
from repro.bench.reporting import format_table
from repro.core.cluster import ClusterSimulator, JobSpec, ShardedIndexSpec
from repro.sim.cost_model import CostModel
from repro.workloads import SDBConfig, SDBGenerator

GRID = [(1, False), (1, True), (4, False), (4, True), (16, False), (16, True)]
JOBS = 8
BATCH_SIZE = 256


def run_ablation():
    model = CostModel()
    outcomes = {}
    for shards, batched in GRID:
        batch_size = BATCH_SIZE if batched else 1
        generator = SDBGenerator(
            SDBConfig(table_count=1, initial_table_bytes=1 << 20,
                      version_count=6, seed=77)
        )
        config = SlimStoreConfig(
            index_shard_count=shards,
            index_batch_size=batch_size,
            sparse_compaction=False,
        )
        store = SlimStore(config)
        gdedup_index_seconds = 0.0
        duplicates = 0
        lookups_per_job = 0
        for dataset_version in generator.versions():
            for item in dataset_version.files:
                # Durable-index regime: memtables flushed, so every G-dedup
                # lookup is real Rocks-OSS traffic (a big index would not
                # fit in RAM anyway — the case sharding exists for).
                store.storage.global_index.flush()
                report = store.backup(item.path, item.data)
                if not lookups_per_job:
                    lookups_per_job = len(report.result.unique_fps)
                reverse = report.reverse_dedup
                gdedup_index_seconds += (
                    reverse.breakdown.download + reverse.breakdown.index_query
                )
                duplicates += reverse.duplicates_removed

        cluster = ClusterSimulator(
            4, model, slots_per_node=2,
            index_spec=ShardedIndexSpec(shard_count=shards, batch_size=batch_size),
        )
        job = JobSpec(
            logical_bytes=float(1 << 20), cpu_seconds=0.0, network_bytes=0,
            index_lookups=lookups_per_job,
        )
        run = cluster.run([job] * JOBS)
        outcomes[(shards, batched)] = {
            "gdedup_index_ms": gdedup_index_seconds * 1e3,
            "duplicates": duplicates,
            "makespan_ms": run.makespan_seconds * 1e3,
            "index_rpcs": run.index_rpcs,
        }
    return outcomes


def test_ablation_index_sharding(benchmark, record):
    outcomes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for (shards, batched), o in outcomes.items():
        rows.append([
            shards,
            "on" if batched else "off",
            f"{o['gdedup_index_ms']:.2f}",
            o["duplicates"],
            f"{o['makespan_ms']:.2f}",
            o["index_rpcs"],
        ])
    record(
        "ablation_index_sharding",
        format_table(
            "Global-index sharding x batched lookups "
            "(virtual ms, 8-job cluster ingest)",
            ["shards", "batch", "gdedup index ms", "dups removed",
             "ingest makespan ms", "index rpcs"],
            rows,
        ),
    )

    baseline = outcomes[(1, False)]
    best = outcomes[(16, True)]
    # Reverse dedup finds the same duplicates whatever the index layout.
    assert len({o["duplicates"] for o in outcomes.values()}) == 1
    # Batched sharded lookups beat the seed's unbatched single shard on
    # both virtual G-dedup index time and cluster ingest makespan.
    assert best["gdedup_index_ms"] < baseline["gdedup_index_ms"]
    assert best["makespan_ms"] < baseline["makespan_ms"] / 4
    for shards in (4, 16):
        assert (
            outcomes[(shards, True)]["makespan_ms"]
            < outcomes[(shards, False)]["makespan_ms"]
        )
