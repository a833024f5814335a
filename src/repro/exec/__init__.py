"""Wall-clock parallel execution engine.

Everything else in the reproduction runs single-threaded under virtual
time; this package adds *measured* speed: a :class:`ParallelExecutor`
fanning the chunkers' scan kernel and chunk fingerprinting across a thread
pool (:mod:`repro.exec.engine`).  Both fan-outs are pure functions of the
payload; the workers never touch the OSS endpoint.

All of it is behind ``SlimStoreConfig.workers`` — ``workers=0`` builds no
executor at all, and every worker count is bucket-for-bucket
byte-identical to it (see docs/PARALLELISM.md).
"""

from repro.exec.engine import ParallelExecutor

__all__ = ["ParallelExecutor"]
