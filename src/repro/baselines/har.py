"""HAR: History-Aware Rewriting (Fu et al., ATC'14).

HAR measures each container's utilisation from the whole-backup view and
records containers below the threshold as *sparse*; during the **next**
backup, duplicate chunks that resolve into those sparse containers are
rewritten instead of deduplicated, repairing physical locality one version
late.  That one-version lag — versus SLIMSTORE's SCC, whose compaction
benefits the current version immediately — is what Fig 8(c)/(d) measures.

The driver runs SLIMSTORE's own backup engine with SCC and reverse dedup
disabled, injecting the rewrite set through the engine's
``rewrite_containers`` hook, so chunking and dedup behaviour stay
identical across the compared systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SlimStoreConfig
from repro.core.dedup import BackupEngine, BackupResult
from repro.core.restore import RestoreEngine
from repro.core.storage import StorageLayer
from repro.errors import RestoreError
from repro.sim.cost_model import CostModel


@dataclass
class HARState:
    """Per-file rewriting state carried between versions."""

    sparse_containers: set[int] = field(default_factory=set)


class HARDriver:
    """Backs up files with HAR's next-version sparse-container rewriting."""

    def __init__(
        self,
        config: SlimStoreConfig,
        storage: StorageLayer,
        cost_model: CostModel | None = None,
        utilization_threshold: float | None = None,
    ) -> None:
        # HAR is an alternative to SCC/reverse dedup; force them off so the
        # comparison isolates the rewriting strategies.
        self.config = config.with_overrides(
            sparse_compaction=False, reverse_dedup=False
        )
        self.storage = storage
        self.cost_model = cost_model or CostModel()
        self.utilization_threshold = (
            config.sparse_utilization_threshold
            if utilization_threshold is None
            else utilization_threshold
        )
        self._states: dict[str, HARState] = {}
        #: path → per version, the version owning its recipe (an alias
        #: commit shares its origin's).
        self._recipes: dict[str, list[int]] = {}

    def backup(self, path: str, data: bytes) -> BackupResult:
        """One backup with rewriting driven by the previous version's
        sparse-container set."""
        state = self._states.setdefault(path, HARState())
        recipes = self._recipes.setdefault(path, [])
        engine = BackupEngine(self.config, self.storage, self.cost_model)
        result = engine.backup(
            path, data, rewrite_containers=state.sparse_containers, version=len(recipes)
        )
        if result.alias_of is None:
            self.storage.similar_index.register(path, result.version, result.representatives)
        recipes.append(result.version if result.alias_of is None else result.alias_of)
        state.sparse_containers = self._detect_sparse(result)
        return result

    def restore(self, path: str, version: int | None = None) -> bytes:
        """Restore one version through the shared storage layer."""
        recipes = self._recipes.get(path)
        if not recipes:
            raise RestoreError(f"no backups recorded for {path!r}")
        if version is None:
            version = len(recipes) - 1
        engine = RestoreEngine(self.config, self.storage, self.cost_model)
        return engine.restore(path, recipes[version]).data

    def _detect_sparse(self, result: BackupResult) -> set[int]:
        """Utilisation bookkeeping: the paper's HAR mark phase."""
        sparse: set[int] = set()
        reused = result.recipe.reused_containers(result.new_container_ids)
        for cid, ref_chunks in reused.items():
            if not self.storage.containers.exists(cid):
                continue
            meta = self.storage.containers.read_meta(cid)
            live = meta.live_chunks()
            if live and ref_chunks / live < self.utilization_threshold:
                sparse.add(cid)
        return sparse
