"""Published comparators re-implemented from scratch.

The paper evaluates SLIMSTORE against SiLO and Sparse Indexing (online
deduplication, Fig 7), HAR + OPT cache and ALACC (restore, Fig 8), and the
open-source restic system (Fig 10); DDFS is the exact-dedup yardstick of
the exact-vs-fast ablation.  Each lives here as a full implementation over
the same OSS substrate and cost model.  DDFS, SiLO and Sparse Indexing
share one scaffold (:mod:`repro.baselines.base`) and differ only in their
lookup strategy; restic reuses its result type, chunk stream and OSS
meter.  So every comparison is apples-to-apples.
"""

from repro.baselines.base import BaselineBackupResult
from repro.baselines.caches import (
    ALACCRestorer,
    BaselineRestoreResult,
    FAARestorer,
    LRUContainerRestorer,
    OPTCacheRestorer,
)
from repro.baselines.ddfs import DDFSSystem
from repro.baselines.har import HARDriver
from repro.baselines.silo import SiLOSystem
from repro.baselines.sparse_indexing import SparseIndexingSystem
from repro.baselines.restic import ResticRepository

__all__ = [
    "BaselineBackupResult",
    "BaselineRestoreResult",
    "LRUContainerRestorer",
    "OPTCacheRestorer",
    "FAARestorer",
    "ALACCRestorer",
    "DDFSSystem",
    "HARDriver",
    "SiLOSystem",
    "SparseIndexingSystem",
    "ResticRepository",
]
