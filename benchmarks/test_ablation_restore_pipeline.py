"""Ablation: ranged container reads x LAW prefetch threads.

The event-driven restore pipeline separates two effects: how many bytes
cross the wire (whole-container vs ranged reads) and how well the reads
overlap the splice CPU (prefetch threads).  This ablation runs the full
matrix on an aged multi-version store — reverse deduplication and sparse
container compaction have relocated the old version's chunks — and
reports throughput and read amplification per cell.

Doubles as the CI benchmark smoke: every cell's event-simulated elapsed
must stay at or above the idealised overlap bound (``cpu + download`` at
zero threads, ``max(cpu, download/threads)`` with prefetching on).
"""

from __future__ import annotations

from repro import SlimStore, SlimStoreConfig
from repro.bench.reporting import format_table
from repro.workloads import SDBConfig, SDBGenerator

THREADS = [0, 1, 4, 8]
OLD_VERSION = 0


def run_restore_matrix():
    generator = SDBGenerator(
        SDBConfig(table_count=1, initial_table_bytes=1 << 20, version_count=8,
                  seed=77)
    )
    # Paper-default cache sizes; small containers so the aged version's
    # chunks scatter across enough containers for ranged reads to matter.
    store = SlimStore(SlimStoreConfig(container_bytes=128 * 1024))
    path = None
    for dataset_version in generator.versions():
        for item in dataset_version.files:
            store.backup(item.path, item.data)
            path = item.path
    results = {}
    for ranged in (False, True):
        for threads in THREADS:
            results[(ranged, threads)] = store.restore(
                path, OLD_VERSION, prefetch_threads=threads, verify=False,
                ranged=ranged,
            )
    return results


def test_ablation_restore_pipeline(benchmark, record):
    results = benchmark.pedantic(run_restore_matrix, rounds=1, iterations=1)

    rows = []
    for (ranged, threads), result in sorted(results.items()):
        rows.append([
            "ranged" if ranged else "whole",
            threads,
            f"{result.throughput_mb_s:.1f}",
            f"{result.read_amplification:.2f}",
            result.counters.get("container_bytes_read"),
            result.counters.get("ranged_bytes_saved"),
            result.counters.get("prefetch_stalls"),
        ])
    record(
        "ablation_restore_pipeline",
        format_table(
            "Ablation: ranged reads x prefetch threads (aged version restore)",
            ["reads", "threads", "MB/s", "amp", "bytes read", "bytes saved",
             "stalls"],
            rows,
        ),
    )

    reference = results[(False, 0)]
    for (ranged, threads), result in results.items():
        # Byte-identical output across the whole matrix.
        assert result.data == reference.data, (ranged, threads)
        # The event schedule never undercuts the idealised overlap.
        cpu, download = result.breakdown.cpu_seconds(), result.breakdown.download
        bound = cpu + download if threads == 0 else max(cpu, download / threads)
        assert result.elapsed_seconds >= 0.999 * bound
        if ranged:
            # Plan-time resolution restores the read-once property even
            # on the aged version, at paper-default cache sizes.
            assert result.counters.get("repeated_container_reads") == 0
        else:
            # Whole-container mode discovers moved chunks lazily: every
            # repeated read is a redirect re-fetch, nothing else.
            assert result.counters.get("repeated_container_reads") <= (
                result.counters.get("global_index_redirects")
            )
    assert reference.counters.get("global_index_redirects") > 0

    for threads in THREADS:
        whole = results[(False, threads)]
        ranged = results[(True, threads)]
        # Ranged reads strictly reduce wire bytes on the aged version.
        assert (
            ranged.counters.get("container_bytes_read")
            < whole.counters.get("container_bytes_read")
        )
        assert ranged.counters.get("ranged_bytes_saved") > 0
        assert ranged.read_amplification < whole.read_amplification
    # Prefetching overlaps download with CPU: more threads, faster.
    for ranged in (False, True):
        assert (
            results[(ranged, 8)].throughput_mb_s
            > results[(ranged, 0)].throughput_mb_s
        )
