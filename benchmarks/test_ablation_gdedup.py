"""Ablation: the G-node's reverse-dedup accelerations (Section VI-A).

The paper equips global reverse deduplication with two accelerations:
"a global bloom filter is used to quickly filter out unique chunks" and
"caching the meta of the old container can also reduce the access number
of Rocks-OSS".  The pass always runs with both, so this ablation reads
what each saved from the counters of one run: the scanned chunks the
Bloom prefilter settled without an index lookup, and the old-container
meta reads the cache served instead of Rocks-OSS.
"""

from __future__ import annotations

from repro import SlimStore, SlimStoreConfig
from repro.bench.reporting import format_table
from repro.workloads import SDBConfig, SDBGenerator


def run_ablation() -> dict[str, int]:
    generator = SDBGenerator(
        SDBConfig(table_count=1, initial_table_bytes=1 << 20,
                  version_count=6, seed=77)
    )
    store = SlimStore(SlimStoreConfig(sparse_compaction=False))
    totals = dict.fromkeys(
        ["scanned", "bloom_settled", "meta_hits", "meta_misses", "duplicates"], 0
    )
    for dataset_version in generator.versions():
        for item in dataset_version.files:
            reverse = store.backup(item.path, item.data).reverse_dedup
            totals["scanned"] += reverse.chunks_scanned
            totals["bloom_settled"] += reverse.counters.get("bloom_fast_inserts")
            totals["meta_hits"] += reverse.counters.get("meta_cache_hits")
            totals["meta_misses"] += reverse.counters.get("meta_cache_misses")
            totals["duplicates"] += reverse.duplicates_removed
    totals["looked_up"] = totals["scanned"] - totals["bloom_settled"]
    return totals


def test_ablation_reverse_dedup_accelerations(benchmark, record):
    totals = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    record(
        "ablation_gdedup",
        format_table(
            "Ablation: what the reverse-dedup Bloom prefilter and meta cache save",
            ["chunks scanned", "settled by Bloom", "sent to index",
             "meta reads cached", "meta reads from OSS", "dups removed"],
            [[totals["scanned"], totals["bloom_settled"], totals["looked_up"],
              totals["meta_hits"], totals["meta_misses"], totals["duplicates"]]],
        ),
    )

    # The Bloom prefilter settles most scanned chunks (the new, unique
    # ones) without a Rocks-OSS lookup.
    assert totals["bloom_settled"] > totals["looked_up"], totals
    # The meta cache serves most old-container meta reads: duplicates
    # cluster in few old containers.
    assert totals["meta_hits"] > totals["meta_misses"], totals
    # Every removed duplicate was found by a lookup and marked in a meta
    # that the pass read or had cached.
    meta_reads = totals["meta_hits"] + totals["meta_misses"]
    assert 0 < totals["duplicates"] <= min(totals["looked_up"], meta_reads), totals
