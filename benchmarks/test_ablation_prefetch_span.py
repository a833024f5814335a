"""Ablation: the segment-recipe prefetch span.

DESIGN.md calls out that consecutive segment recipes are fetched in spans
(one ranged GET covers several segments) to keep recipe prefetching off
the dedup critical path.  This ablation sweeps the span and measures
prefetch requests and download time per backup.

Only a recipe above ``WHOLE_RECIPE_BYTES`` is read span by span; the 1 MiB
table's recipe is read whole, so the sweep sets the cap to 0 and reads it
the way a large recipe is read.
"""

from __future__ import annotations

from repro import SlimStore, SlimStoreConfig
from repro.bench.harness import run_slimstore_series
from repro.bench.reporting import format_table
from repro.workloads import SDBConfig, SDBGenerator

SPANS = [1, 2, 4, 8]


def run_span_sweep():
    outcomes = {}
    for span in SPANS:
        generator = SDBGenerator(
            SDBConfig(table_count=1, initial_table_bytes=1 << 20,
                      version_count=5, seed=55)
        )
        config = SlimStoreConfig(
            prefetch_segment_span=span,
            chunk_merging=False,
            reverse_dedup=False,
            sparse_compaction=False,
        )
        outcomes[span] = run_slimstore_series(
            SlimStore(config), generator.versions(), run_gnode=False
        )
    return outcomes


def test_ablation_prefetch_span(benchmark, record, monkeypatch):
    monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", 0)
    outcomes = benchmark.pedantic(run_span_sweep, rounds=1, iterations=1)

    rows = []
    stats = {}
    for span, series in outcomes.items():
        steady = series.versions[1:]
        fetches = sum(s.counters.get("segments_prefetched") for s in steady)
        download_ms = sum(s.breakdown.download for s in steady) * 1e3
        throughput = series.mean_throughput()
        ratio = sum(s.dedup_ratio for s in steady) / len(steady)
        stats[span] = (fetches, download_ms, throughput, ratio)
        rows.append([span, fetches, f"{download_ms:.1f}", f"{throughput:.1f}",
                     f"{ratio:.1%}"])
    record(
        "ablation_prefetch_span",
        format_table(
            "Ablation: segment-recipe prefetch span",
            ["span", "segments fetched", "download ms", "MB/s", "dedup"],
            rows,
        ),
    )

    # Wider spans trade a few extra fetched segments for fewer round
    # trips; dedup quality must not depend on the span.
    assert stats[4][2] >= stats[1][2] * 0.95
    for span in SPANS[1:]:
        assert abs(stats[span][3] - stats[1][3]) < 0.03
    # Span 1 issues the most prefetch requests per segment fetched; the
    # download time per fetched segment shrinks with the span.
    per_segment_1 = stats[1][1] / max(1, stats[1][0])
    per_segment_8 = stats[8][1] / max(1, stats[8][0])
    assert per_segment_8 < per_segment_1
