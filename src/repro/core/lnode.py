"""The stateless online processing node (Section III-B).

"L-node does not save any state, all the information required in backup
and restore is loaded during the job execution."  Accordingly, an
:class:`LNode` constructs a fresh engine per job — everything durable lives
in the shared storage layer, which is what lets the cluster scale L-nodes
elastically (Fig 10).

Statelessness is also the crash-recovery contract: an L-node that dies
mid-job leaves nothing behind except its uncommitted OSS writes, which
the facade's intent journal brackets and attach-time recovery discards
(see ``docs/CRASH_RECOVERY.md``).  A replacement node needs no handoff —
it attaches to the same storage layer and carries on, exactly what the
crash matrix (``tests/integration/test_crash_matrix.py``) replays at
every write index.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.config import SlimStoreConfig
from repro.core.dedup import BackupEngine, BackupResult
from repro.core.restore import RestoreEngine, RestoreResult
from repro.core.storage import StorageLayer
from repro.sim.cost_model import CostModel


class LNode:
    """One elastic compute node serving online backup and restore jobs."""

    def __init__(
        self,
        node_id: int,
        config: SlimStoreConfig,
        storage: StorageLayer,
        cost_model: CostModel | None = None,
        executor=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.storage = storage
        self.cost_model = cost_model or CostModel()
        #: Shared wall-clock executor (None below ``workers=1``); engines
        #: are per-job, but worker pools are warm, so they live here.
        self.executor = executor
        self.jobs_executed = 0

    def backup(
        self,
        path: str,
        data: bytes,
        rewrite_containers: set[int] | None = None,
        version: int | None = None,
        on_first_write: Callable[[], None] | None = None,
    ) -> BackupResult:
        """Run one backup job (a fresh engine per job: no node state)."""
        engine = BackupEngine(self.config, self.storage, self.cost_model, self.executor)
        self.jobs_executed += 1
        return engine.backup(
            path,
            data,
            rewrite_containers=rewrite_containers,
            version=version,
            on_first_write=on_first_write,
        )

    def restore(
        self,
        path: str,
        version: int,
        prefetch_threads: int | None = None,
        verify: bool | None = None,
        ranged: bool = True,
    ) -> RestoreResult:
        """Run one restore job."""
        engine = RestoreEngine(self.config, self.storage, self.cost_model)
        self.jobs_executed += 1
        return engine.restore(path, version, prefetch_threads, verify, ranged)
