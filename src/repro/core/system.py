"""The SLIMSTORE facade: storage layer + L-node + G-node + version catalog.

:class:`SlimStore` is the public API of the reproduction.  One instance
models one user's deployment: an OSS endpoint holding the storage layer,
a stateless L-node serving online jobs, and a G-node running the
offline space optimisation of every committed version — inline after its
backup, or deferred until :meth:`SlimStore.drain`.

Version collection follows Section VI-B: the *mark* phase happens during
deduplication (containers referenced by version N but not by N+1 are
associated with version N as garbage candidates), so deleting a version
only *sweeps* its pre-computed garbage list.  A global per-container
reference count guards containers shared across files through similarity
deduplication.

The catalog is persisted as a checkpoint (``catalog/state.json``) plus one
small record per commit under ``catalog/log/`` (a
:class:`~repro.oss.deltalog.DeltaLog`): every :class:`VersionCatalog`
mutator notes its own op, :meth:`SlimStore._persist_catalog` publishes the
noted ops as one record — the single atomic PUT that makes a version
visible — and attach replays the records through the same mutators.
The similar-file index and the snapshots (full-volume runs) are views the
catalog persists and keeps current.

A repository's first record leads with a ``["format", FORMAT]`` op and
every checkpoint carries ``"format": FORMAT``: attach reads the catalog
first and refuses, with :class:`~repro.errors.RepositoryFormatError`, a
repository whose catalog holds a checkpoint or records but not this stamp.

A version the backup job proved byte-identical to the path's latest one is
an *alias*: its commit is that one catalog record, naming the *origin* — the
newest version of the path that owns a recipe.  Readers resolve a version
to its recipe through :meth:`VersionCatalog.recipe_version`, and a recipe is
deleted only when the last live version resolving to it is.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from repro.core.config import SlimStoreConfig
from repro.core.dedup import BackupResult
from repro.core.gnode import CompactionReport, GNode, ReverseDedupReport
from repro.core.lnode import LNode
from repro.core.restore import RestoreResult
from repro.core.similar_index import SimilarFileIndex, pack, unpack
from repro.core.snapshot import SnapshotStore
from repro.core.storage import StorageLayer
from repro.errors import (
    RepositoryFormatError,
    RetryExhaustedError,
    TransientOSSError,
    VersionNotFoundError,
)
from repro.oss.deltalog import DeltaLog
from repro.oss.object_store import ObjectStorageService
from repro.oss.retry import RetryBudget, RetryPolicy
from repro.sim.cost_model import CostModel

#: The repository format this code writes and the only one attach reads.
FORMAT = 1


@dataclass
class BackupReport:
    """One backup job plus the G-node work it triggered."""

    result: BackupResult
    reverse_dedup: ReverseDedupReport | None = None
    compaction: CompactionReport | None = None
    #: True when this version was persisted without complete dedup
    #: verification and its G-node pass did not settle it: the version is
    #: left pending and a later :meth:`SlimStore.drain` finishes the pass.
    degraded: bool = False
    #: Durability re-tiering pass this backup triggered (None when the
    #: tier is disabled or the pass was skipped).
    retier: "object | None" = None

    @property
    def path(self) -> str:
        """Backed-up file path."""
        return self.result.path

    @property
    def version(self) -> int:
        """Version number assigned to this backup."""
        return self.result.version

    @property
    def throughput_mb_s(self) -> float:
        """Online dedup throughput (G-node work is offline, excluded)."""
        return self.result.throughput_mb_s

    @property
    def dedup_ratio(self) -> float:
        """Online deduplication ratio of this version."""
        return self.result.dedup_ratio


#: Restore reports are the engine results, re-exported for API symmetry.
RestoreReport = RestoreResult


@dataclass
class SpaceReport:
    """Bytes stored on OSS, split by component."""

    container_bytes: int
    recipe_bytes: int
    global_index_bytes: int
    #: The similar-file view's share of the catalog checkpoint.
    similar_index_bytes: int
    #: Replicas, parity shards and the delta log of the durability tier.
    durability_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All backup-attributable bytes on OSS."""
        return (
            self.container_bytes
            + self.recipe_bytes
            + self.global_index_bytes
            + self.similar_index_bytes
            + self.durability_bytes
        )


class VersionCatalog:
    """Live versions, per-version container references, garbage lists.

    Every mutator that changes state appends ``[name, *args]`` to
    :attr:`pending`; whoever persists the catalog publishes (and clears)
    that list, and :meth:`replay` re-applies such ops.
    """

    #: Mutators a persisted op may name.
    _OPS = (
        "format",
        "register",
        "alias",
        "update_references",
        "add_garbage",
        "clear_degraded",
        "drop_version",
        "join_snapshot",
        "drop_snapshot",
    )
    #: The pending flag's clear keeps the name it was first persisted under.
    _RENAMED = {"clear_degraded": "clear_pending"}

    def __init__(self, similar: SimilarFileIndex | None = None) -> None:
        #: The similar-file index: a view this catalog's ops keep current.
        self.similar = SimilarFileIndex() if similar is None else similar
        #: Full-volume runs: snapshot id → {path: version}, another view.
        self.snapshots = SnapshotStore()
        self._versions: dict[str, list[int]] = {}
        self._refs: dict[tuple[str, int], set[int]] = {}
        self._garbage: dict[tuple[str, int], set[int]] = {}
        self._refcount: Counter[int] = Counter()
        #: Committed versions whose G-node pass has not completed → the new
        #: containers the pass scans.
        self._pending: dict[tuple[str, int], list[int]] = {}
        #: (path, alias version) → origin: the version owning its recipe.
        self._aliases: dict[tuple[str, int], int] = {}
        #: Ops applied since the last publish (JSON-ready lists).
        self.pending: list[list] = []
        #: Whether the repository's first record (or a checkpoint) holds
        #: the stamp; until then the next record leads with it.
        self.stamped = False
        #: Log sequence number a loaded checkpoint is folded through.
        self.log_next = 0

    # --- persistence ------------------------------------------------------
    def to_json(self, log_next: int = 0) -> str:
        """Serialise the catalog (the checkpoint of its delta log, folded
        through record ``log_next``)."""
        return json.dumps(
            {
                "format": FORMAT,
                "log_next": log_next,
                "versions": self._versions,
                "refs": [
                    [path, version, sorted(cids)]
                    for (path, version), cids in sorted(self._refs.items())
                ],
                "garbage": [
                    [path, version, sorted(cids)]
                    for (path, version), cids in sorted(self._garbage.items())
                ],
                "degraded": [[*key, cids] for key, cids in sorted(self._pending.items())],
                "aliases": [
                    [path, version, origin]
                    for (path, version), origin in sorted(self._aliases.items())
                ],
                "similar": self._view_json(),
                "snapshots": self.snapshots.to_json(),
            }
        )

    def _view_json(self) -> list[list]:
        """The view's owners: [path, version, packed representatives]."""
        owners = sorted(self.similar.owners().items())
        return [[path, version, pack(fps)] for (path, version), fps in owners]

    def view_bytes(self) -> int:
        """Bytes of the view in the catalog checkpoint (no request)."""
        return len(json.dumps(self._view_json()))

    @staticmethod
    def check_format(found: object) -> None:
        """Refuse a repository whose catalog carries ``found``, not :data:`FORMAT`."""
        if found != FORMAT:
            raise RepositoryFormatError(found, FORMAT)

    @classmethod
    def from_json(cls, payload: str, similar: SimilarFileIndex | None = None) -> "VersionCatalog":
        """Rebuild a catalog (reference counts are re-derived) and its views;
        a checkpoint without the current stamp is refused."""
        raw = json.loads(payload)
        cls.check_format(raw.get("format"))
        catalog = cls(similar)
        catalog.stamped = True
        catalog._versions = {path: list(v) for path, v in raw["versions"].items()}
        for path, version, cids in raw["refs"]:
            catalog._refs[(path, version)] = set(cids)
            for cid in cids:
                catalog._refcount[cid] += 1
        for path, version, cids in raw["garbage"]:
            catalog._garbage[(path, version)] = set(cids)
        for path, version, cids in raw["degraded"]:
            catalog._pending[(path, version)] = cids
        for path, version, origin in raw["aliases"]:
            catalog._aliases[(path, version)] = origin
        catalog.log_next = raw["log_next"]
        catalog.similar.load({(p, v): unpack(reps) for p, v, reps in raw["similar"]})
        catalog.snapshots.load(raw["snapshots"])
        return catalog

    def settle_view(self) -> None:
        """After an attach's replay: a path's latest is its newest live
        version's recipe (every owner already is a live recipe: only
        committed ops reach the view, and a recipe's drop forgets it)."""
        aliases = self._aliases
        self.similar.load(
            self.similar.owners(),
            # Each path's live versions are kept in ascending order.
            {path: aliases.get((path, v[-1]), v[-1]) for path, v in self._versions.items() if v},
        )

    def replay(self, ops: list[list]) -> None:
        """Re-apply persisted ops through the mutators that noted them."""
        for name, *args in ops:
            if name not in self._OPS:
                raise ValueError(f"unknown catalog op: {name!r}")
            getattr(self, self._RENAMED.get(name, name))(*args)
        self.pending.clear()

    def format(self, stamp: int) -> None:
        """The stamp leading a repository's first record (attach checks
        its value before the replay)."""
        self.stamped = True

    # --- pending G-node work ----------------------------------------------
    def clear_pending(self, path: str, version: int) -> None:
        """Clear the pending flag after a complete G-node pass."""
        if (path, version) in self._pending:
            del self._pending[(path, version)]
            self.pending.append(["clear_degraded", path, version])

    def pending_versions(self) -> list[tuple[str, int]]:
        """All versions awaiting their G-node pass, sorted."""
        return sorted(self._pending)

    def pending_containers(self, path: str, version: int) -> list[int]:
        """The new containers a pending version's pass scans."""
        return self._pending[(path, version)]

    def register(
        self, path: str, version: int, referenced: set[int],
        pending: list[int], representatives: str = "",
    ) -> None:
        """Mark phase: record references and diff against the predecessor.
        The version is pending its G-node pass over ``pending`` (its new
        containers), and ``representatives``
        (:func:`~repro.core.similar_index.pack`ed) enter the view."""
        referenced = set(referenced)
        op = ["register", path, version, sorted(referenced), pending]
        self._pending[(path, version)] = pending
        self.pending.append(op + [representatives] if representatives else op)
        self.similar.register(path, version, unpack(representatives))
        self._versions.setdefault(path, []).append(version)
        self._refs[(path, version)] = referenced
        for cid in referenced:
            self._refcount[cid] += 1
        previous = (path, version - 1)
        if previous in self._refs:
            dropped = self._refs[previous] - referenced
            if dropped:
                self._garbage.setdefault(previous, set()).update(dropped)

    def alias(self, path: str, version: int, origin: int) -> None:
        """Commit ``version`` as byte-identical to the path's latest live
        version, sharing the recipe of ``origin``: it copies the
        predecessor's references, so refcounts and the next version's
        mark-phase diff are what a full commit of the same bytes gives."""
        self.pending.append(["alias", path, version, origin])
        self._versions[path].append(version)
        referenced = set(self._refs[(path, version - 1)])
        self._refs[(path, version)] = referenced
        for cid in referenced:
            self._refcount[cid] += 1
        self._aliases[(path, version)] = origin

    def recipe_version(self, path: str, version: int) -> int:
        """The version whose recipe holds live ``version`` of ``path``:
        itself, or an alias's origin."""
        if (path, version) not in self._refs:
            raise VersionNotFoundError(path, version)
        return self._aliases.get((path, version), version)

    def recipe_in_use(self, path: str, recipe: int) -> bool:
        """True while some live version of ``path`` resolves to ``recipe``."""
        return any(
            self._aliases.get((path, version), version) == recipe
            for version in self._versions.get(path, ())
        )

    def update_references(self, path: str, version: int, referenced: set[int]) -> None:
        """Re-point a committed version's references after maintenance.

        Sparse-container compaction runs *after* the version committed
        (crash-consistent ordering), so the reference set recorded at
        commit time can name containers the compactor has since emptied.
        This adjusts the per-container refcounts by set difference and
        re-runs the predecessor's mark-phase diff: any predecessor
        container no longer referenced by the new set joins the
        predecessor's garbage list (a superset of the commit-time diff,
        since compaction output containers are fresh ids that never
        appear in the predecessor's references).
        """
        key = (path, version)
        if key not in self._refs:
            raise VersionNotFoundError(path, version)
        new = set(referenced)
        if new == self._refs[key]:
            return
        self.pending.append(["update_references", path, version, sorted(new)])
        # Aliases committed before the maintenance share the version's
        # recipe, so their references follow it.
        for live in self.versions(path):
            if self._aliases.get((path, live), live) != version:
                continue
            old = self._refs[(path, live)]
            for cid in old - new:
                self._refcount[cid] -= 1
            for cid in new - old:
                self._refcount[cid] += 1
            self._refs[(path, live)] = set(new)
            previous = (path, live - 1)
            dropped = self._refs.get(previous, set()) - new
            if dropped:
                self._garbage.setdefault(previous, set()).update(dropped)

    def references(self, path: str, version: int) -> set[int]:
        """Containers referenced by one committed version (a copy)."""
        key = (path, version)
        if key not in self._refs:
            raise VersionNotFoundError(path, version)
        return set(self._refs[key])

    def live_container_ids(self) -> set[int]:
        """Every container referenced by at least one committed version."""
        return {cid for cid, count in self._refcount.items() if count > 0}

    def refcount(self, container_id: int) -> int:
        """Live versions referencing one container (its "heat")."""
        return max(0, self._refcount.get(container_id, 0))

    def refcounts(self) -> dict[int, int]:
        """Per-container live reference counts (positive entries only)."""
        return {cid: count for cid, count in self._refcount.items() if count > 0}

    def add_garbage(self, path: str, version: int, container_ids: list[int]) -> None:
        """Associate extra garbage candidates (e.g. compacted sparse
        containers) with a version."""
        if container_ids:
            self.pending.append(["add_garbage", path, version, sorted(container_ids)])
            self._garbage.setdefault((path, version), set()).update(container_ids)

    def versions(self, path: str) -> list[int]:
        """Live versions of ``path``, ascending."""
        return sorted(self._versions.get(path, []))

    def paths(self) -> list[str]:
        """Every path with at least one live version, sorted."""
        return sorted(path for path, live in self._versions.items() if live)

    def drop_version(self, path: str, version: int) -> list[int]:
        """Sweep phase: release references, return collectable containers."""
        ((_, _, collectable, recipe),) = self.drop_plan([(path, version)])
        key = (path, version)
        self.pending.append(["drop_version", path, version])
        self._versions[path].remove(version)
        self._pending.pop(key, None)
        self._aliases.pop(key, None)
        self._garbage.pop(key, None)
        if recipe is not None:
            # The recipe goes with its last live version, its view entries too.
            self.similar.forget_version(path, recipe)
        for cid in self._refs.pop(key):
            self._refcount[cid] -= 1
        return collectable

    def drop_plan(self, keys: list[tuple[str, int]]) -> list[list]:
        """What dropping ``keys`` together releases, without dropping them:
        per version ``[path, version, collectable containers (each listed
        once), its recipe, or None while a version kept resolves to it]``."""
        released = Counter(cid for key in keys for cid in self.references(*key))
        plan, claimed = [], set()
        for key in keys:
            candidates = (self._garbage.get(key, set()) | self._refs[key]) - claimed
            collectable = sorted(c for c in candidates if self._refcount[c] <= released[c])
            claimed.update(collectable)
            path, version = key
            others = [(path, v) for v in self._versions[path] if (path, v) not in keys]
            recipe, kept = self.recipe_version(*key), {self.recipe_version(*k) for k in others}
            plan.append([path, version, collectable, None if recipe in kept else recipe])
        return plan

    # --- snapshots ------------------------------------------------------------
    def join_snapshot(self, path: str, version: int, snapshot_id: str) -> None:
        """Record committed ``version`` of ``path`` as a member of a run."""
        self.pending.append(["join_snapshot", path, version, snapshot_id])
        self.snapshots.join(snapshot_id, path, version)

    def drop_snapshot(self, snapshot_id: str) -> None:
        """Forget a run (its members' versions are dropped on their own)."""
        self.pending.append(["drop_snapshot", snapshot_id])
        self.snapshots.drop(snapshot_id)


class SlimStore:
    """A complete SLIMSTORE deployment (public API)."""

    def __init__(
        self,
        config: SlimStoreConfig | None = None,
        oss: ObjectStorageService | None = None,
        cost_model: CostModel | None = None,
        bucket: str = "slimstore",
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
    ) -> None:
        self.config = config or SlimStoreConfig()
        self.cost_model = cost_model or CostModel()
        self.oss = oss or ObjectStorageService(self.cost_model)
        self.bucket = bucket
        self.storage = StorageLayer.create(
            self.oss,
            bucket=bucket,
            index_bucket=f"{bucket}-index",
            retry_policy=retry_policy,
            retry_budget=retry_budget,
            index_shard_count=self.config.index_shard_count,
            tombstone_grace_epochs=self.config.tombstone_grace_epochs,
            durability_policy=self.config.durability,
            fingerprint_algo=self.config.fingerprint_algo,
        )
        #: Scan + fingerprint fan-out (None when ``workers=0``): one shared
        #: instance so the worker pool stays warm across jobs.  It never
        #: touches the OSS endpoint — restore and the G-node do not use it.
        self.executor = None
        if self.config.workers > 0:
            from repro.exec import ParallelExecutor

            self.executor = ParallelExecutor(self.config.workers)
        #: One L-node serves every job: it is stateless (a fresh engine per
        #: job over the shared storage layer), so which node of a pool ran
        #: a job would change nothing.  Concurrent jobs over an L-node pool
        #: are :class:`~repro.core.cluster.ClusterSimulator`'s model.  A
        #: version enters the similar index with its commit record.
        self.lnode = LNode(0, self.config, self.storage, self.cost_model, self.executor)
        self.gnode = GNode(self.config, self.storage, self.cost_model)
        self.catalog = VersionCatalog(self.storage.similar_index)
        # The catalog rides the storage layer's (possibly retrying) endpoint.
        #: Checkpoint ``catalog/state.json`` plus one record per commit.
        self.catalog_log = DeltaLog(
            self.storage.oss, bucket, self.CATALOG_KEY, self.CATALOG_LOG_PREFIX
        )
        #: Report of the last attach-time recovery pass (None until
        #: :meth:`recover` runs against a dirty repository).
        self.last_recovery = None
        #: Compaction fix-ups whose record did not land, each with its
        #: intent: (ops, journal seq); the next pass or delete publishes them.
        self._unpublished_fixups: list[tuple[list[list], int]] = []

    CATALOG_KEY = "catalog/state.json"
    CATALOG_LOG_PREFIX = "catalog/log/"

    @property
    def snapshots(self) -> SnapshotStore:
        """The full-volume runs: a view the catalog keeps (no request)."""
        return self.catalog.snapshots

    def close(self) -> None:
        """Publish the catalog's unpublished ops (an inline pass's clear),
        stop the worker pool and release cached file descriptors; idempotent."""
        self._persist_catalog()
        if self.executor is not None:
            self.executor.close()
        for name in self.oss.bucket_names():
            backend_close = getattr(self.oss._backend(name), "close", None)
            if backend_close is not None:
                backend_close()

    # --- durable repositories --------------------------------------------------
    def recover(self, run_recovery: bool = True) -> bool:
        """Attach to an existing repository on this OSS endpoint.

        Rebuilds every stateful component from storage: first the version
        catalog with its similar-file and snapshot views (its checkpoint,
        then the commit records logged since, replayed in order), then the
        intent journal, the container id space, the durability tier and the
        global index (with its Bloom filter).  Returns True if a catalog
        was found (i.e. the repository had prior backups).

        A catalog holding a checkpoint or records without the current
        format stamp raises :class:`~repro.errors.RepositoryFormatError`
        before any other component reads anything, and nothing is written;
        an empty bucket is a new repository.

        When the journal holds open intents, the container store reports
        torn ``.data``/``.meta`` pairs, a two-phase reap was interrupted,
        or the durability tier holds objects its log does not name, a
        previous process died mid-job.  Unless
        ``run_recovery`` is False (``repro fsck`` inspects first), a
        :class:`~repro.core.recovery.RecoveryManager` pass rolls every
        interrupted job forward or discards it, collects orphans, and
        truncates the journal; its report lands in ``last_recovery``.
        The same switch gates the attach-time fold of every log (catalog,
        index WALs, durability tier; it writes), so an inspection attach
        stays read-only.
        """
        similar = self.storage.similar_index
        payload = self.catalog_log.read_checkpoint()
        catalog = (
            VersionCatalog(similar)
            if payload is None
            else VersionCatalog.from_json(payload.decode(), similar)
        )
        records = [json.loads(record) for record in self.catalog_log.read_tail(catalog.log_next)]
        if payload is None and records:
            # Unfolded: the stamp is record 0's first op.
            head = records[0][0] if records[0] else []
            catalog.check_format(head[1] if len(head) == 2 and head[0] == "format" else None)
        for record in records:
            catalog.replay(record)
        catalog.settle_view()
        self.catalog = catalog
        found = payload is not None or bool(records)
        intents = self.storage.journal.recover()
        self.storage.containers.recover()
        durability = self.storage.durability
        if durability is not None:
            durability.recover()
        self.storage.global_index.recover()
        self.last_recovery = None
        containers = self.storage.containers
        dirty = bool(
            intents
            or containers.torn_pairs
            or containers.partial_reaps
            or (durability is not None and durability.orphan_keys())
        )
        if run_recovery and dirty:
            from repro.core.recovery import RecoveryManager

            self.last_recovery = RecoveryManager(self).run(intents)
        elif run_recovery:
            self.fold_metadata()
        return found

    def _persist_catalog(self, ops: list[list] = ()) -> None:
        """Publish the ops noted since the last call plus ``ops`` as one
        commit record, then apply ``ops``: a record that does not land
        leaves the catalog what OSS holds.  A repository's first record
        leads with the format stamp.  Fold when due."""
        catalog = self.catalog
        stamp = [] if catalog.stamped else [["format", FORMAT]]
        record = catalog.pending + list(ops)
        if record:
            self.catalog_log.append(json.dumps(stamp + record).encode())
            catalog.pending.clear()
            catalog.replay(stamp + list(ops))
        self.catalog_log.fold_if_due(self._catalog_checkpoint)

    def _catalog_checkpoint(self, log_next: int) -> bytes:
        return self.catalog.to_json(log_next).encode()

    def fold_metadata(self) -> None:
        """Fold whichever log holds records (tail or debris) — the catalog's,
        each global-index shard's WAL, the durability tier's — so the next
        attach has nothing to replay; a no-op on folded logs."""
        self.catalog_log.fold_if_logged(self._catalog_checkpoint)
        self.storage.global_index.fold_wal()
        if self.storage.durability is not None:
            self.storage.durability.fold_if_logged()

    # --- public operations ------------------------------------------------------
    def backup(
        self,
        path: str,
        data: bytes,
        run_gnode: bool = True,
        rewrite_containers: set[int] | None = None,
    ) -> BackupReport:
        """Deduplicate and persist ``data`` as the next version of ``path``.

        The commit record marks the version pending.  With ``run_gnode``
        the G-node pass runs right after the commit, as :meth:`drain` over
        this one version handed the metas the job wrote (the config switches
        select its steps); its clear rides the next catalog record.  Without
        it a later :meth:`drain` runs the pass — the service's maintenance job.

        A G-node pass that cannot reach OSS (even after retries) never
        fails the backup: the version stays pending, the report says
        ``degraded``, and a later :meth:`drain` finishes the pass — as after
        a crash between the commit and the clear.

        Commit ordering (crash consistency): container data and metas,
        the recipe and its index are all written by the L-node job *before*
        the catalog's commit record (carrying the similar-index
        representatives) is published — that one small PUT under
        ``catalog/log/`` is the single atomic write that makes the version
        visible.  A ``backup`` intent (carrying the version and the
        container-id watermark taken on entry) brackets the uncommitted
        window so recovery can discard a half-written version and GC its
        orphaned containers (a job that fails alive leaves it open too); the
        job opens it just before its first write, so a version it proves
        identical to its predecessor — an alias, which writes nothing before
        the commit record — opens none.  The G-node pass runs only after the
        commit, and never for an alias (it stored nothing).
        """
        return self._backup(path, data, run_gnode, rewrite_containers)

    def _backup(
        self, path: str, data: bytes, run_gnode: bool = True,
        rewrite_containers: set[int] | None = None, snapshot_id: str | None = None,
    ) -> BackupReport:
        """:meth:`backup`, whose commit record also makes the version a
        member of run ``snapshot_id`` (when set)."""
        journal = self.storage.journal
        watermark = self.storage.containers.peek_next_id()
        live = self.catalog.versions(path)
        version = live[-1] + 1 if live else 0
        seq: int | None = None

        def open_intent() -> None:
            nonlocal seq
            seq = journal.begin("backup", path=path, version=version, watermark=watermark)

        result = self.lnode.backup(
            path, data, rewrite_containers, version=version, on_first_write=open_intent
        )
        if result.alias_of is not None:
            ops = [["alias", path, version, result.alias_of]]
        else:
            # The op :meth:`VersionCatalog.register` notes for this commit.
            refs = sorted(result.recipe.referenced_containers())
            reps = pack(result.representatives)
            op = ["register", path, version, refs, result.new_container_ids]
            ops = [op + [reps] if reps else op]
        if snapshot_id is not None:
            ops.append(["join_snapshot", path, version, snapshot_id])
        # COMMIT: one atomic commit-record PUT publishes the version.  Any
        # failure before it leaves the intent open as the recovery record.
        self._persist_catalog(ops)
        if seq is not None:
            journal.close(seq)

        if not run_gnode:
            return BackupReport(result, degraded=result.degraded)
        # An alias stored nothing: its drain only re-tiers (it adds heat).
        key = (path, version)
        job = {} if result.alias_of is not None else {
            key: (result.new_container_ids, result.recipe)
        }
        reverse, compacted, failed, retier = self._drain(job, result.new_metas)
        return BackupReport(result, reverse, compacted.get(key), key in failed, retier)

    def restore(
        self,
        path: str,
        version: int | None = None,
        prefetch_threads: int | None = None,
        verify: bool | None = None,
        ranged: bool = True,
    ) -> RestoreResult:
        """Restore a backup version (latest when ``version`` is None)."""
        if version is None:
            live = self.catalog.versions(path)
            if not live:
                raise VersionNotFoundError(path)
            version = live[-1]
        recipe = self.catalog.recipe_version(path, version)
        result = self.lnode.restore(path, recipe, prefetch_threads, verify, ranged)
        result.version = version  # an alias restores its origin's recipe
        return result

    def versions(self, path: str) -> list[int]:
        """Live backup versions of ``path``."""
        return self.catalog.versions(path)

    # --- snapshots (full-volume backup runs) ------------------------------------
    def backup_snapshot(
        self, files: dict[str, bytes], run_gnode: bool = True
    ) -> tuple[str, list[BackupReport]]:
        """Back up one full-volume run: every file as its next version,
        grouped under a snapshot id.

        Each member joins the run in its own commit record, so a member
        belongs to the run exactly when it is committed; a run that dies
        before its first commit leaves no trace.
        """
        if not files:
            raise ValueError("a snapshot needs at least one file")
        snapshot_id = self.snapshots.allocate_id()
        reports = [
            self._backup(path, files[path], run_gnode, snapshot_id=snapshot_id)
            for path in sorted(files)
        ]
        return snapshot_id, reports

    def restore_snapshot(
        self, snapshot_id: str, prefetch_threads: int | None = None
    ) -> dict[str, bytes]:
        """Restore every file of a snapshot; returns path → bytes."""
        snapshot = self.snapshots.get(snapshot_id)
        return {
            path: self.restore(path, version, prefetch_threads).data
            for path, version in sorted(snapshot.members.items())
        }

    def delete_snapshot(self, snapshot_id: str) -> int:
        """Collect one snapshot (must be the oldest, FIFO retention);
        returns bytes reclaimed.

        Each member version is collected when it is the oldest live
        version of its path; members shared with newer snapshots are left
        alone.  The members and the snapshot go in one catalog record
        (see :meth:`_delete`).
        """
        ids = self.snapshots.list_ids()
        if not ids or snapshot_id != ids[0]:
            raise VersionNotFoundError(f"snapshot:{snapshot_id}")
        retained = {m for other in ids[1:] for m in self.snapshots.get(other).members.items()}
        members = sorted(self.snapshots.get(snapshot_id).members.items())
        return self._delete([m for m in members if m not in retained], snapshot_id)

    def delete_version(self, path: str, version: int) -> int:
        """Collect one version; returns bytes reclaimed.

        Only the oldest live version of a path may be deleted (FIFO
        retention), which keeps the mark-and-sweep garbage lists valid.

        The version's recipe (its own, or an alias's origin's) is deleted
        only with the last live version resolving to it, and with it the
        recipe's similar-index entries, so no header probe can detect a
        base that no longer exists.
        """
        live = self.catalog.versions(path)
        if not live or version != live[0]:
            raise VersionNotFoundError(path, version)
        return self._delete([(path, version)])

    def _delete(self, members: list[tuple[str, int]], snapshot_id: str | None = None) -> int:
        """Drop those of ``members`` that are their path's oldest live
        version, and snapshot ``snapshot_id`` (when set); returns bytes
        reclaimed.  Commit ordering: a ``delete_version`` intent journals
        the :meth:`VersionCatalog.drop_plan`, one catalog record dropping it
        all is the commit point, and only then are containers (entombed
        under a grace) and recipes removed, idempotently for recovery.  A
        compaction fix-up whose record did not land goes out first, so the
        plan sees the references the recipes hold."""
        if self._unpublished_fixups:
            self._publish_fixups(self._unpublished_fixups)
        keys = [(p, v) for p, v in members if self.catalog.versions(p)[:1] == [v]]
        plan = self.catalog.drop_plan(keys)
        ops = [["drop_version", path, version] for path, version in keys]
        if snapshot_id is not None:
            ops.append(["drop_snapshot", snapshot_id])
        journal = self.storage.journal
        seq = journal.begin("delete_version", versions=plan)
        # COMMIT: the record drops the versions from the published catalog.
        self._persist_catalog(ops)
        containers = self.storage.containers
        reclaimed = 0
        for path, _version, collectable, recipe in plan:
            for cid in collectable:
                if containers.exists(cid):
                    reclaimed += containers.container_size(cid)
                    containers.delete(cid)
            if recipe is not None:
                self.storage.recipes.delete_recipe(path, recipe)
        journal.close(seq)
        return reclaimed

    # --- maintenance -----------------------------------------------------------
    def scrub(self, repair: bool = False):
        """Verify repository integrity (containers + every live recipe,
        each once however many aliases share it).

        Returns a :class:`~repro.core.scrub.ScrubReport`.  With ``repair``
        the scrubber additionally heals corrupt chunks from a healthy copy
        reachable through the global-index redirect path and rewrites the
        damaged container, quarantining only truly unrecoverable chunks.
        """
        from repro.core.scrub import RepositoryScrubber

        catalog = self.catalog
        recipes = {
            path: sorted({catalog.recipe_version(path, v) for v in catalog.versions(path)})
            for path in catalog.paths()
        }
        return RepositoryScrubber(self.storage).scrub(recipes, repair=repair)

    def drain(self) -> ReverseDedupReport | None:
        """Run the G-node pass over every pending version; returns its
        reverse-dedup report, None if none was pending.

        A version is pending from its commit record until a pass completes
        and its clear is published; the catalog holds the flag, so the work
        survives a process death.  Compaction serves the latest
        version's restores (Section V-B), so as inline, only each path's
        newest recipe is compacted.  A recipe that cannot be read raises
        before anything is written, leaving every version pending.
        """
        wanted = self.catalog.pending_versions()
        if not wanted:
            return None
        catalog = self.catalog
        newest = {
            (p, catalog.recipe_version(p, catalog.versions(p)[-1])) for p, _ in wanted
        }
        work = {
            (path, version): (
                catalog.pending_containers(path, version),
                self.storage.recipes.get_recipe(path, version)
                if self.config.sparse_compaction and (path, version) in newest
                else None,
            )
            for path, version in wanted
        }
        report = self._drain(work)[0]
        self._persist_catalog()
        return report

    def _drain(self, work: dict, metas: dict | None = None) -> tuple:
        """The pass over ``work`` — (path, version) → (new container ids,
        recipe, or None to skip compaction) — for :meth:`drain` and an
        inline :meth:`backup` (handing its job's ``metas``) alike.

        Reverse dedup scans the union of the new containers in ascending id
        order (the newest copy of a chunk survives), then each version
        handed a recipe is compacted.  Every version whose pass answered
        each lookup is cleared.  A compaction's fix-up and the clears go out
        as one catalog record, applied only once it landed; the compaction
        intents close only then (until then the catalog names the old
        layout).  Clears alone ride the next record: a crash before it only
        re-drains.  A step that cannot reach OSS, the fix-up record
        included, leaves its versions pending; a fix-up that did not land
        rides the next pass's record (or goes out before the next delete),
        and its intent closes with it.

        Returns (reverse-dedup report, compaction report per version, the
        versions left pending, retier report).
        """
        failed: set[tuple[str, int]] = set()
        reverse_report: ReverseDedupReport | None = None
        if work and self.config.reverse_dedup:
            scan = sorted({cid for cids, _recipe in work.values() for cid in cids})
            try:
                reverse_report = self.gnode.reverse_dedup(scan, metas)
            except (TransientOSSError, RetryExhaustedError):
                failed.update(work)
            else:
                if reverse_report.counters.get("gdedup_lookup_failures"):
                    failed.update(work)
        catalog = self.catalog
        compactions: dict[tuple[str, int], CompactionReport] = {}
        fixups = list(self._unpublished_fixups)
        for (path, version), (cids, recipe) in work.items():
            if recipe is None or not self.config.sparse_compaction:
                continue
            try:
                report = self.gnode.compact_sparse(path, version, recipe, cids)
            except (TransientOSSError, RetryExhaustedError):
                failed.add((path, version))
                continue
            compactions[(path, version)] = report
            if report.sparse_containers:
                refs = sorted(recipe.referenced_containers())
                ops = [["add_garbage", path, version, sorted(report.sparse_containers)]]
                if refs != sorted(catalog.references(path, version)):
                    ops.insert(0, ["update_references", path, version, refs])
                fixups.append((ops, report.journal_seq))
        clears = [key for key in work if key not in failed]
        if not fixups:
            for key in clears:
                catalog.clear_pending(*key)
        else:
            try:
                self._publish_fixups(fixups, clears)
            except (TransientOSSError, RetryExhaustedError):
                failed.update(work)
        retier_report = None
        if self.storage.durability is not None:
            try:
                retier_report = self.gnode.retier(self.catalog.refcounts())
            except (TransientOSSError, RetryExhaustedError):
                pass
        return reverse_report, compactions, failed, retier_report

    def _publish_fixups(self, fixups: list, clears: list = ()) -> None:
        """Publish compaction fix-ups and the clears of ``clears`` as one
        record, then close the fix-ups' intents.  Published before it is
        applied: a record that does not land leaves the versions pending,
        the intents open and the fix-ups kept for the next try."""
        ops = [op for fixup, _seq in fixups for op in fixup]
        try:
            self._persist_catalog(ops + [["clear_degraded", *key] for key in clears])
        except (TransientOSSError, RetryExhaustedError):
            self._unpublished_fixups = fixups
            raise
        self._unpublished_fixups = []
        for _ops, seq in fixups:
            self.storage.journal.close(seq)

    def pending_versions(self) -> list[tuple[str, int]]:
        """Versions still awaiting their G-node pass (see :meth:`drain`)."""
        return self.catalog.pending_versions()

    # --- accounting ---------------------------------------------------------------
    def space_report(self) -> SpaceReport:
        """Current OSS space usage by component (free, no virtual time)."""
        return SpaceReport(
            container_bytes=self.storage.containers.stored_bytes(),
            recipe_bytes=self.storage.recipes.stored_bytes(),
            global_index_bytes=self.storage.global_index.stored_bytes(),
            similar_index_bytes=self.catalog.view_bytes(),
            durability_bytes=(
                self.storage.durability.stored_bytes()
                if self.storage.durability is not None
                else 0
            ),
        )
