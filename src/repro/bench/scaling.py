"""restic's cluster-scaling bound for Fig 10.

SLIMSTORE's Fig 10 curves come from the event-driven
:class:`repro.core.cluster.ClusterSimulator`: its jobs are independent of
each other (stateless L-nodes, no shared index), so they scale until node
job slots or the node NIC saturate, and additional L-nodes extend the
line.  restic has no event twin: a restic job must hold the repository
lock for its index work, so the aggregate caps at
``job_bytes / serial_seconds`` no matter how many jobs run (Amdahl over the
locked section).
"""

from __future__ import annotations

_MB = float(1 << 20)


def restic_aggregate_throughput(
    job_logical_bytes: float,
    job_elapsed_seconds: float,
    job_serial_seconds: float,
    jobs: int,
) -> float:
    """Aggregate restic throughput (MB/s) for ``jobs`` concurrent jobs.

    Every job's locked index section serialises behind every other job's,
    so the system-wide duration is ``max(parallel part, jobs x serial)`` —
    throughput flat-lines at ``job_bytes / serial_seconds``.
    """
    if jobs < 1 or job_elapsed_seconds <= 0:
        return 0.0
    serial_total = jobs * job_serial_seconds
    elapsed = max(job_elapsed_seconds, serial_total)
    return jobs * job_logical_bytes / elapsed / _MB
