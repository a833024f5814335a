"""Experiment harness regenerating the paper's tables and figures.

Each benchmark under ``benchmarks/`` drives these helpers: dataset runners
that push a workload through a system and collect per-version statistics,
restic's locked-index scaling bound for Fig 10 (SLIMSTORE's curves come
from :class:`repro.core.cluster.ClusterSimulator`), and plain-text
renderers that print the same rows and series the paper reports.
"""

from repro.bench.harness import BackupSeries, VersionStats, run_slimstore_series
from repro.bench.reporting import format_series, format_table
from repro.bench.scaling import restic_aggregate_throughput

__all__ = [
    "VersionStats",
    "BackupSeries",
    "run_slimstore_series",
    "format_table",
    "format_series",
    "restic_aggregate_throughput",
]
