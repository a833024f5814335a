"""Closed-form parallelism arithmetic.

The bounds the event-driven schedules in :mod:`repro.sim.events` are
checked against: a prefetched restore (Table II), and batched, sharded
index round trips.
"""

from __future__ import annotations

from collections.abc import Iterable


def prefetched_restore_time(
    cpu_seconds: float, download_seconds: float, threads: int
) -> float:
    """Closed-form restore duration under LAW prefetching (Table II).

    With ``threads`` parallel OSS channels the download fully overlaps the
    restore CPU, so the slower side wins; with 0 threads every read blocks
    the pipeline and the stages serialise.  The event-driven pipeline in
    :func:`repro.sim.events.simulate_restore_pipeline` replaces this
    formula for reported numbers; this stays as the cross-check the two
    models are validated against (startup and tail effects make the event
    schedule approach this bound from above as the read count grows).
    """
    if cpu_seconds < 0 or download_seconds < 0:
        raise ValueError("durations must be non-negative")
    if threads < 0:
        raise ValueError(f"threads cannot be negative: {threads}")
    if threads == 0:
        return cpu_seconds + download_seconds
    return max(cpu_seconds, download_seconds / threads)


def batched_round_trips(keys: int, batch_size: int) -> int:
    """Index round trips needed to answer ``keys`` lookups in batches.

    Batch size 1 degenerates to one Rocks-OSS round trip per key, the
    access pattern the sharded-index ablation measures against.
    """
    if keys < 0 or batch_size < 1:
        raise ValueError(f"invalid keys={keys} batch_size={batch_size}")
    return -(-keys // batch_size)


def sharded_drain_time(
    per_shard_requests: Iterable[int], request_seconds: float
) -> float:
    """Seconds to drain per-shard request queues with one server per shard.

    Shards are independent stores, so their queues drain concurrently and
    the slowest shard sets the pace — the parallel-batch drain of the
    G-node's reverse-dedup pass.
    """
    requests = list(per_shard_requests)
    if any(r < 0 for r in requests):
        raise ValueError("per-shard request counts must be non-negative")
    if request_seconds < 0:
        raise ValueError("request duration must be non-negative")
    if not requests:
        return 0.0
    return max(requests) * request_seconds
