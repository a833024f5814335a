"""Fig 5: performance of history-aware skip chunking.

Paper findings:
(a) skip chunking improves dedup throughput ~2x for Rabin CDC and ~1.5x
    for FastCDC; throughput grows with chunk size and plateaus past 32 KB;
(b) skip chunking costs no deduplication ratio; the ratio itself degrades
    as chunks grow, sharply past 16 KB;
(c) the higher a file's duplication ratio, the bigger the skip win;
(d) with skip chunking the CPU share of CDC collapses (paper: ~2%).

The throughputs above are virtual-clock numbers (the cost model charges a
skipped byte ``cpu_skip_per_byte`` instead of a scan).  The "scanned /
logical" columns are the same claim on the host: the exact
``bytes_scanned`` counter — bytes the lazy boundary cursor actually handed
to the scan kernel — over the logical bytes of versions 1+.  No wall-clock
assertion here; ``benchmarks/e2e`` owns those.
"""

from __future__ import annotations

from repro import SlimStore, SlimStoreConfig
from repro.bench.harness import run_slimstore_series
from repro.bench.reporting import format_series, format_table
from repro.workloads import SDBConfig, SDBGenerator

CHUNK_SIZES = [4096, 8192, 16384, 32768, 65536]
DUP_RATIOS = [0.65, 0.75, 0.85, 0.95]


def _series(chunker: str, skip: bool, chunk_size: int, versions):
    config = SlimStoreConfig(
        chunker=chunker,
        chunk_avg_size=chunk_size,
        skip_chunking=skip,
        chunk_merging=False,
        reverse_dedup=False,
        sparse_compaction=False,
    )
    return run_slimstore_series(SlimStore(config), versions, run_gnode=False)


def scanned_share(series) -> float:
    """Bytes handed to the scan kernel per logical byte, version 0 excluded
    (it has no history to skip by)."""
    later = series.versions[1:]
    return sum(v.counters.get("bytes_scanned") for v in later) / sum(
        v.logical_bytes for v in later
    )


def run_chunk_size_sweep():
    generator = SDBGenerator(
        SDBConfig(table_count=1, initial_table_bytes=1 << 20, version_count=4,
                  duplication_ratio_min=0.84, duplication_ratio_max=0.84, seed=5)
    )
    versions = generator.versions()
    sweep = {}
    for chunker in ("rabin", "fastcdc"):
        for skip in (False, True):
            label = f"{chunker}{'+skip' if skip else ''}"
            sweep[label] = [
                _series(chunker, skip, size, versions) for size in CHUNK_SIZES
            ]
    return sweep


def run_dup_ratio_sweep():
    by_ratio = {}
    for ratio in DUP_RATIOS:
        generator = SDBGenerator(
            SDBConfig(table_count=1, initial_table_bytes=1 << 20, version_count=4,
                      duplication_ratio_min=ratio, duplication_ratio_max=ratio, seed=9)
        )
        versions = generator.versions()
        by_ratio[ratio] = {
            skip: _series("fastcdc", skip, 4096, versions) for skip in (False, True)
        }
    return by_ratio


def test_fig5_skip_chunking(benchmark, record):
    sweep, by_ratio = benchmark.pedantic(
        lambda: (run_chunk_size_sweep(), run_dup_ratio_sweep()), rounds=1, iterations=1
    )

    # (a) throughput and (b) dedup ratio vs chunk size.
    throughput = {
        label: [series_list[i].mean_throughput() for i in range(len(CHUNK_SIZES))]
        for label, series_list in sweep.items()
    }
    ratios = {
        label: [
            100 * sum(s.dedup_ratios()[1:]) / (len(s.versions) - 1)
            for s in series_list
        ]
        for label, series_list in sweep.items()
    }
    scanned = {
        label: [scanned_share(series) for series in series_list]
        for label, series_list in sweep.items()
    }
    record(
        "fig5a_throughput_vs_chunk_size",
        format_series("Fig 5(a): dedup throughput (MB/s) vs chunk size",
                      "chunk", [f"{s//1024}KB" for s in CHUNK_SIZES], throughput)
        + "\n\n"
        + format_series("Fig 5(a), host: scanned / logical bytes vs chunk size",
                        "chunk", [f"{s//1024}KB" for s in CHUNK_SIZES], scanned,
                        value_format="{:.3f}"),
    )
    record(
        "fig5b_ratio_vs_chunk_size",
        format_series("Fig 5(b): dedup ratio (%) vs chunk size",
                      "chunk", [f"{s//1024}KB" for s in CHUNK_SIZES], ratios),
    )

    # (c) throughput vs file duplication ratio.
    rows = []
    for ratio, pair in by_ratio.items():
        no_skip = pair[False].mean_throughput()
        with_skip = pair[True].mean_throughput()
        rows.append([f"{ratio:.2f}", f"{no_skip:.1f}", f"{with_skip:.1f}",
                     f"{with_skip / no_skip:.2f}x",
                     f"{scanned_share(pair[False]):.3f}",
                     f"{scanned_share(pair[True]):.3f}"])
    record(
        "fig5c_throughput_vs_dup_ratio",
        format_table("Fig 5(c): skip-chunking speedup vs duplication ratio",
                     ["dup ratio", "fastcdc MB/s", "+skip MB/s", "speedup",
                      "scanned / logical", "+skip scanned / logical"], rows),
    )

    # (d) CPU breakdown with skip chunking.
    skip_series = by_ratio[0.95][True]
    shares = skip_series.versions[-1].breakdown.cpu_shares()
    record(
        "fig5d_breakdown_with_skip",
        format_table("Fig 5(d): CPU breakdown with skip chunking (dup 0.95)",
                     ["chunking", "fingerprinting", "index", "other", "scanned / logical"],
                     [[f"{shares[k]:.1%}" for k in
                       ("chunking", "fingerprinting", "index_query", "other")]
                      + [f"{scanned_share(skip_series):.3f}"]]),
    )

    # --- paper-shape assertions -----------------------------------------
    at_4k = {label: values[0] for label, values in throughput.items()}
    rabin_speedup = at_4k["rabin+skip"] / at_4k["rabin"]
    fastcdc_speedup = at_4k["fastcdc+skip"] / at_4k["fastcdc"]
    assert 1.5 <= rabin_speedup <= 3.5, rabin_speedup          # paper: ~2x
    assert 1.2 <= fastcdc_speedup <= 2.5, fastcdc_speedup      # paper: ~1.5x
    assert rabin_speedup > fastcdc_speedup

    # (b) skip chunking never damages the dedup ratio (it may help a
    # little at sparse-candidate chunk sizes by following old boundaries).
    for chunker in ("rabin", "fastcdc"):
        for i in range(len(CHUNK_SIZES)):
            assert ratios[f"{chunker}+skip"][i] >= ratios[chunker][i] - 1.5
    # Ratio degrades as chunk size grows.
    assert ratios["fastcdc"][0] > ratios["fastcdc"][-1]

    # (a) CPU-side throughput grows with chunk size (per-chunk overheads
    # amortise) and the measured curve stabilises past 32 KB.  At this
    # scaled-down file size the *measured* curve is additionally capped by
    # re-uploads of the ratio lost to huge chunks, which the paper's
    # GB-sized tables do not suffer as sharply.
    def cpu_tput(series_list, index):
        stats = series_list[index].versions[-1]
        return stats.logical_bytes / stats.breakdown.cpu_seconds()

    assert cpu_tput(sweep["fastcdc"], len(CHUNK_SIZES) - 1) > cpu_tput(sweep["fastcdc"], 0)
    assert cpu_tput(sweep["rabin"], len(CHUNK_SIZES) - 1) > cpu_tput(sweep["rabin"], 0)
    # Diminishing returns: the 32->64 KB step gains much less CPU-side
    # throughput than the 4->32 KB span (the paper's "stable after 32 KB").
    low_span = cpu_tput(sweep["fastcdc"], 3) - cpu_tput(sweep["fastcdc"], 0)
    top_step = cpu_tput(sweep["fastcdc"], 4) - cpu_tput(sweep["fastcdc"], 3)
    assert top_step < low_span

    # (c) speedup grows with the duplication ratio.
    speedups = [
        by_ratio[r][True].mean_throughput() / by_ratio[r][False].mean_throughput()
        for r in DUP_RATIOS
    ]
    assert speedups[-1] > speedups[0]

    # (d) the CDC share of CPU collapses (paper: ~2%).
    assert shares["chunking"] < 0.12, shares

    # The same on the host, from the exact counter: without skip chunking
    # every version is scanned about once whatever the chunker; with it a
    # fraction is, for Rabin and FastCDC at every chunk size (a), and the
    # fraction falls as the duplication ratio rises (c).
    for chunker in ("rabin", "fastcdc"):
        for i in range(len(CHUNK_SIZES)):
            assert 0.7 < scanned[chunker][i] <= 1.05
            assert scanned[f"{chunker}+skip"][i] < 0.8 * scanned[chunker][i]
    skip_shares = [scanned_share(by_ratio[r][True]) for r in DUP_RATIOS]
    assert skip_shares == sorted(skip_shares, reverse=True), skip_shares
    assert skip_shares[-1] < 0.6 * skip_shares[0]
    for ratio in DUP_RATIOS:
        assert scanned_share(by_ratio[ratio][False]) > 0.7
