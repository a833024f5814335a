"""Attach-time crash recovery: roll forward or discard interrupted jobs.

A SLIMSTORE node can die at any OSS write — mid-backup, mid-compaction,
mid-reap.  Because every multi-write job journals its intent first (see
:mod:`repro.core.journal`) and publishes through a single atomic commit
write, the repository is always in one of two states per job: *committed*
(the commit object landed; any missing follow-up writes are replayable)
or *invisible* (the commit never landed; the job's writes are garbage).
:class:`RecoveryManager` classifies every surviving intent into one of
those two buckets and then makes the storage physically match the
logical state: it re-runs idempotent maintenance, deletes orphaned
containers above the journaled watermarks, collects torn
``.data``/``.meta`` pairs, finishes interrupted tombstone reaps,
reconciles global-index entries left pointing at dead containers, and
finally truncates the journal.

``repro fsck`` uses :meth:`RecoveryManager.inspect` for a read-only
report of the same evidence, and ``--repair`` runs :meth:`run`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.browse import STAGE_PREFIX, stage_key_seq
from repro.core.gnode import CompactionReport
from repro.core.journal import Intent
from repro.errors import VersionNotFoundError

if TYPE_CHECKING:
    from repro.core.system import SlimStore


@dataclass
class RecoveryReport:
    """What one attach-time recovery pass found and fixed."""

    #: (seq, kind) of every intent that was open when recovery started.
    open_intents: list[tuple[int, str]] = field(default_factory=list)
    #: Intents whose commit point had landed; side effects were replayed.
    rolled_forward: list[tuple[int, str]] = field(default_factory=list)
    #: Intents whose commit never landed; side effects were removed.
    discarded: list[tuple[int, str]] = field(default_factory=list)
    #: Orphaned containers (at/above a crashed job's watermark,
    #: unreferenced by any committed version) physically deleted.
    orphans_collected: list[int] = field(default_factory=list)
    orphan_bytes: int = 0
    #: Torn-pair remnants deleted (the surviving half was unreferenced).
    torn_collected: list[int] = field(default_factory=list)
    #: Torn pairs still referenced by a committed version: data loss the
    #: journal cannot explain — reported, never deleted.
    torn_damaged: list[int] = field(default_factory=list)
    #: Interrupted two-phase reaps completed.
    reaps_finished: list[int] = field(default_factory=list)
    #: Global-index entries re-pointed or removed.
    index_entries_fixed: int = 0
    #: Durability-tier objects (replicas, parity, log records) the
    #: tier's log does not name — swept so no replica bytes leak.
    replica_orphans_collected: list[str] = field(default_factory=list)
    #: Write-back staging objects (``browsecache/``) removed — both the
    #: staging of resolved ``cache_flush`` intents and stale debris no
    #: surviving intent explains.
    cache_staging_reaped: list[str] = field(default_factory=list)
    #: Journal entries dropped by the final truncate.
    journal_truncated: int = 0
    #: Per interrupted backup intent: ``(path, version, outcome)`` where
    #: outcome is ``"committed"`` (the catalog put landed before the
    #: crash, ``version`` is the committed version) or ``"discarded"``
    #: (``version`` is the in-flight version whose debris was removed).
    #: Lease takeover uses this to decide whether a dead node's job must
    #: re-run or merely be marked complete.
    backup_resolutions: list[tuple[str, int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when recovery had nothing to do (modulo damage reports)."""
        return not (
            self.open_intents
            or self.orphans_collected
            or self.torn_collected
            or self.torn_damaged
            or self.reaps_finished
            or self.index_entries_fixed
            or self.replica_orphans_collected
            or self.cache_staging_reaped
        )


@dataclass
class FsckReport:
    """Read-only repository health check (``repro fsck``)."""

    open_intents: list[Intent] = field(default_factory=list)
    #: cid → surviving half ("data"/"meta") of quarantined torn pairs.
    torn_pairs: dict[int, str] = field(default_factory=dict)
    #: Tombstoned containers whose reap was interrupted mid-delete.
    partial_reaps: list[int] = field(default_factory=list)
    #: Containers inside their deletion grace window (informational).
    tombstoned: list[int] = field(default_factory=list)
    #: Live containers at/above an open intent's watermark that no
    #: committed version references (would be GC'd by ``--repair``).
    orphan_candidates: list[int] = field(default_factory=list)
    #: Global-index entries pointing at dead containers.  Informational:
    #: normal version collection leaves these behind on purpose (the
    #: index has no per-container fingerprint list) and ``deep_clean``
    #: prunes them, so they do not make the repository unclean.
    dangling_index_entries: int = 0
    #: Live containers the durability tier has no record for.
    #: Informational: the next backup's retier pass tiers them.
    durability_untiered: list[int] = field(default_factory=list)
    #: (cid, recorded class, policy class) where the recorded durability
    #: class lags the live refcount.  Informational: retier fixes it.
    durability_class_mismatches: list[tuple[int, str, str]] = field(
        default_factory=list
    )
    #: Replica copies or parity shards whose payload hash disagrees with
    #: the committed record — real divergence; ``--repair`` re-tiers.
    durability_divergent: list[tuple[int | None, str]] = field(default_factory=list)
    #: Durability objects the tier's log does not name: a tier step died
    #: before its append; ``--repair`` (or a writing attach) sweeps them.
    durability_orphans: list[str] = field(default_factory=list)
    #: Write-back staging objects (``browsecache/``) no open
    #: ``cache_flush`` intent accounts for: dirty-cache debris from a
    #: crashed browse session; ``--repair`` reaps them.
    cache_debris: list[str] = field(default_factory=list)
    #: Open ``cache_flush`` intents (a browse session died mid-flush);
    #: counted inside ``open_intents`` as well, broken out so ``fsck``
    #: can say what kind of job was interrupted.
    stale_cache_intents: list[int] = field(default_factory=list)
    #: Catalog log records numbered below their checkpoint's
    #: ``log_next``: an interrupted fold's leftovers, already
    #: covered by the checkpoint; the next attach (or ``--repair``) folds
    #: them away.
    log_debris: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the repository needs no repair."""
        return not (
            self.open_intents
            or self.torn_pairs
            or self.partial_reaps
            or self.orphan_candidates
            or self.durability_divergent
            or self.durability_orphans
            or self.cache_debris
            or self.log_debris
        )


class RecoveryManager:
    """Runs the per-intent-kind recovery state machine over one store."""

    def __init__(self, store: "SlimStore") -> None:
        self.store = store
        self.storage = store.storage
        self.containers = store.storage.containers
        self.journal = store.storage.journal
        self._meta_cache: dict[int, object] = {}
        #: Intent kind → its handler: one per kind of :data:`INTENT_KINDS`.
        self.handlers = {
            "rewrite": self._handle_rewrite,
            "compaction": self._handle_compaction,
            "backup": self._handle_backup,
            "delete_version": self._handle_delete_version,
            "cache_flush": self._handle_cache_flush,
        }

    # --- read-only inspection (fsck) ---------------------------------------
    def inspect(self) -> FsckReport:
        """Report the repository's crash-consistency evidence, fix nothing."""
        intents = self.journal.open_intents()
        report = FsckReport(
            open_intents=intents,
            torn_pairs=dict(self.containers.torn_pairs),
            partial_reaps=sorted(self.containers.partial_reaps),
            tombstoned=self.containers.tombstoned_ids(),
            orphan_candidates=self._orphan_candidates(intents),
        )
        index = self.storage.global_index
        for _fp, cid in index.iter_items():
            if not self.containers.exists(cid) and not self.containers.is_tombstoned(cid):
                report.dangling_index_entries += 1
        durability = self.storage.durability
        if durability is not None:
            audit = durability.audit(self.store.catalog.refcounts())
            report.durability_untiered = audit.untiered
            report.durability_class_mismatches = audit.class_mismatches
            report.durability_divergent = audit.divergent_copies
            report.durability_orphans = durability.orphan_keys()
        report.stale_cache_intents = [
            intent.seq for intent in intents if intent.kind == "cache_flush"
        ]
        open_flushes = set(report.stale_cache_intents)
        for key in sorted(
            self.storage.oss.peek_keys(self.containers._bucket, STAGE_PREFIX)
        ):
            seq = stage_key_seq(key)
            if seq is None or seq not in open_flushes:
                report.cache_debris.append(key)
        report.log_debris = self.store.catalog_log.debris_keys()
        return report

    # --- repair ------------------------------------------------------------
    def run(self, intents: list[Intent] | None = None) -> RecoveryReport:
        """Resolve every open intent, GC the debris, truncate the journal."""
        if intents is None:
            intents = self.journal.open_intents()
        report = RecoveryReport(
            open_intents=[(intent.seq, intent.kind) for intent in intents]
        )
        # Rewrite intents repair a possibly-torn container *in place*
        # (new data object, old metadata) and every other handler —
        # rolling a compaction forward or walking it back — reads
        # containers assuming data and metadata agree.  So rewrites are
        # resolved first regardless of sequence order.  ``cache_flush``
        # intents resolve *last*: a flush runs a nested ``backup`` job,
        # and its roll-forward/discard decision must observe the final
        # catalog state after that nested intent (and everything else)
        # has been resolved.  The remaining intents replay in the order
        # the crashed process opened them.
        for intent in sorted(
            intents, key=lambda i: (i.kind != "rewrite", i.kind == "cache_flush", i.seq)
        ):
            handler = self.handlers.get(intent.kind)
            if handler is None:
                # An unknown kind (the journal is outside input): leave
                # visible state alone, count it as discarded so the
                # truncate is explained.
                report.discarded.append((intent.seq, intent.kind))
                continue
            handler(intent, report)
        self._collect_orphans(intents, report)
        self._collect_torn(report)
        for cid in sorted(self.containers.partial_reaps):
            self.containers.finish_reap(cid)
            report.reaps_finished.append(cid)
        self._reconcile_index(report)
        if self.storage.durability is not None:
            # After every intent resolved and the watermark GC ran, any
            # durability object the tier's log does not name is debris
            # left by a tier step that died before its append.
            report.replica_orphans_collected = self.storage.durability.collect_orphans()
        # Any write-back staging object still present is debris: every
        # resolved ``cache_flush`` intent reaps its own prefix, so what
        # survives belongs to no intent at all (e.g. a journal entry lost
        # some other way).  Staged blocks are never referenced by visible
        # state, so — like never-visible orphan containers — they take
        # the direct purge path rather than a tombstone grace.
        for key in sorted(
            self.storage.oss.peek_keys(self.containers._bucket, STAGE_PREFIX)
        ):
            self.storage.oss.delete_object(self.containers._bucket, key)
            report.cache_staging_reaped.append(key)
        # Publish what the handlers noted (a compaction's references)
        # while their intents still exist.
        self.store._persist_catalog()
        report.journal_truncated = self.journal.truncate()
        # Leave every log folded (catalog, index WALs): no
        # tail for the next attach to replay, no interrupted-fold debris.
        self.store.fold_metadata()
        return report

    # --- per-kind handlers ---------------------------------------------------
    def _handle_rewrite(self, intent: Intent, report: RecoveryReport) -> None:
        """In-place rewrite: the journaled SHA decides forward/backward."""
        payload = intent.payload
        cid = int(payload["container_id"])
        done = self.containers.complete_rewrite(
            cid,
            bytes.fromhex(payload["meta"]),
            str(payload["data_sha"]),
        )
        if done:
            durability = self.storage.durability
            if durability is not None and self.containers.exists(cid):
                # The rewrite hook runs inside the rewrite's intent
                # window, so a crash there may leave replicas/parity
                # carrying the pre-rewrite payload; re-running it is
                # idempotent once they already match.
                durability.on_payload_changed(cid, self.containers.read_data(cid))
            report.rolled_forward.append((intent.seq, intent.kind))
        else:
            report.discarded.append((intent.seq, intent.kind))

    def _handle_compaction(self, intent: Intent, report: RecoveryReport) -> None:
        """Compaction: committed iff the recipe references a new container."""
        payload = intent.payload
        moves_raw = payload.get("moves") or {}
        if not moves_raw:
            # Crash during phase 1: nothing shared was touched (old
            # containers intact, index untouched, recipe untouched).  The
            # half-built new containers fall to the watermark orphan GC.
            report.discarded.append((intent.seq, intent.kind))
            return
        path = str(payload["path"])
        version = int(payload["version"])
        sparse = [int(cid) for cid in payload.get("sparse", [])]
        new_cids = [int(cid) for cid in payload.get("new_cids", [])]
        moves = {bytes.fromhex(fp): int(cid) for fp, cid in moves_raw.items()}
        try:
            recipe = self.storage.recipes.get_recipe(
                path, self.store.catalog.recipe_version(path, version)
            )
            refs = recipe.referenced_containers()
        except VersionNotFoundError:
            refs = set()
        if refs & set(new_cids):
            self._roll_compaction_forward(path, version, sparse, moves, refs)
            report.rolled_forward.append((intent.seq, intent.kind))
        else:
            report.index_entries_fixed += self._walk_index_back(sparse, moves)
            for cid in new_cids:
                if self.containers.exists(cid):
                    report.orphan_bytes += self.containers.container_size(cid)
                    self.containers.purge(cid)
                    report.orphans_collected.append(cid)
            report.discarded.append((intent.seq, intent.kind))

    def _roll_compaction_forward(
        self,
        path: str,
        version: int,
        sparse: list[int],
        moves: dict[bytes, int],
        refs: set[int],
    ) -> None:
        """Replay the post-commit cleanup from the journaled moves.

        The journal records *which* fingerprints moved but not which
        sparse container each came from, so the replay offers every moved
        fingerprint to every sparse container's metadata —
        ``mark_deleted`` is a no-op where the fingerprint is absent, and
        deleting a stray duplicate copy is safe because the global index
        already points at the durable new home.
        """
        planned = {cid: list(moves) for cid in sparse}
        self.store.gnode._compaction_cleanup(sparse, planned, {}, CompactionReport())
        self.store.catalog.update_references(path, version, refs)
        self.store.catalog.add_garbage(path, version, sparse)

    def _walk_index_back(self, sparse: list[int], moves: dict[bytes, int]) -> int:
        """Re-point index entries from dead new containers to old copies.

        For a discarded compaction the old copies are still live (cleanup
        never ran), so each moved fingerprint walks back to the sparse
        container that still holds it; a copy that some earlier pass had
        marked deleted is revived in place (the bytes never left the
        payload).  A fingerprint with no surviving copy loses its entry.
        """
        index = self.storage.global_index
        fixed = 0
        for fp, new_cid in sorted(moves.items()):
            if index.lookup(fp) != new_cid:
                continue
            home = None
            for cid in sparse:
                if not self.containers.exists(cid):
                    continue
                meta = self._meta(cid)
                entry = meta.find(fp)
                if entry is not None and not entry.deleted:
                    home = cid
                    break
            if home is None:
                for cid in sparse:
                    if not self.containers.exists(cid):
                        continue
                    meta = self._meta(cid)
                    if meta.revive(fp):
                        self.containers.update_meta(meta)
                        home = cid
                        break
            if home is not None:
                index.assign(fp, home)
            else:
                index.remove(fp)
            fixed += 1
        return fixed

    def _handle_backup(self, intent: Intent, report: RecoveryReport) -> None:
        """Backup: committed iff the catalog (the commit object) lists the
        intent's ``version``.  Its recipe goes unless a live version resolves
        to it: a job that failed alive leaves its intent open, and the same
        process may since have committed that version (a retry, perhaps an
        alias whose recipe then is debris) and dropped it.  The similar-file
        view holds no uncommitted state."""
        path = str(intent.payload["path"])
        version = int(intent.payload["version"])
        catalog = self.store.catalog
        committed = catalog.versions(path)
        if not catalog.recipe_in_use(path, version):
            self.storage.recipes.delete_recipe(path, version)
        if version not in committed:
            report.discarded.append((intent.seq, intent.kind))
            report.backup_resolutions.append((path, version, "discarded"))
        else:
            # The catalog put landed and only the intent close is
            # missing: the version is fully committed.
            report.rolled_forward.append((intent.seq, intent.kind))
            report.backup_resolutions.append((path, committed[-1], "committed"))
        # Orphaned containers fall to the watermark GC.

    def _handle_cache_flush(self, intent: Intent, report: RecoveryReport) -> None:
        """Write-back flush: committed iff its version landed; else the
        staged blocks decide.

        Runs after every other intent — in particular after the flush's
        own nested ``backup`` intent discarded any half-written version —
        so the catalog check observes the final state:

        * the expected version is committed → only the staging cleanup
          was lost; reap it and roll forward;
        * ``staged=True`` and the staged blocks reassemble to the
          journaled SHA-256 → the session had acknowledged the flush's
          durability point; re-run the ingest from the staged bytes
          (roll the upload forward), then reap the staging;
        * anything else → the flush never reached its durability point;
          discard (reap whatever staging landed).  Either way the
          intent's staging prefix ends empty.
        """
        payload = intent.payload
        path = str(payload["path"])
        expected = int(payload["version"])
        bucket = self.containers._bucket
        prefix = f"{STAGE_PREFIX}{intent.seq:012d}/"
        keys = sorted(self.storage.oss.peek_keys(bucket, prefix))
        outcome = "discarded"
        if expected in self.store.catalog.versions(path):
            outcome = "rolled_forward"
        elif payload.get("staged"):
            data = self._rebuild_staged_file(payload, keys)
            if data is not None:
                self.store.backup(path, data)
                outcome = "rolled_forward"
        for key in keys:
            self.storage.oss.delete_object(bucket, key)
            report.cache_staging_reaped.append(key)
        if outcome == "rolled_forward":
            report.rolled_forward.append((intent.seq, intent.kind))
        else:
            report.discarded.append((intent.seq, intent.kind))

    def _rebuild_staged_file(self, payload: dict, keys: list[str]) -> bytes | None:
        """Reassemble a flushed file from its staged blocks, or None.

        Base content (when the base version still exists) is overlaid
        with every staged dirty block; the journaled SHA-256 is the
        arbiter — a torn staging upload or a vanished base version fails
        the check and the flush is discarded instead of publishing a
        corrupted version.
        """
        indices = {int(i) for i in payload.get("blocks", [])}
        block_bytes = int(payload["block_bytes"])
        size = int(payload["size"])
        staged: dict[int, bytes] = {}
        for key in keys:
            try:
                index = int(key.rsplit("/", 1)[1])
            except ValueError:
                continue
            staged[index] = self.storage.oss.get_object(self.containers._bucket, key)
        if indices != set(staged):
            return None
        data = bytearray(size)
        base_version = payload.get("base_version")
        path = str(payload["path"])
        if base_version is not None and int(base_version) in self.store.catalog.versions(
            path
        ):
            base = self.store.restore(path, int(base_version)).data
            cut = min(len(base), size)
            data[:cut] = base[:cut]
        for index, blob in sorted(staged.items()):
            lo = index * block_bytes
            if lo >= size:
                return None
            cut = min(size - lo, len(blob))
            data[lo : lo + cut] = blob[:cut]
        if hashlib.sha256(data).hexdigest() != str(payload.get("sha")):
            return None
        return bytes(data)

    def _handle_delete_version(self, intent: Intent, report: RecoveryReport) -> None:
        """Version delete: committed iff the catalog lists none of the
        intent's ``versions`` (one record dropped them all).

        Each entry's containers and recipe (None while another live version
        resolved to it) are the decision made at the commit; the replay
        spares what the catalog uses now (a delete that failed alive leaves
        its intent open, and a later backup may use them again).
        """
        entries = intent.payload["versions"]
        catalog = self.store.catalog
        if any(int(version) in catalog.versions(str(path)) for path, version, *_ in entries):
            # The commit record never landed; the loaded catalog still
            # carries every version fully intact.
            report.discarded.append((intent.seq, intent.kind))
            return
        live = catalog.live_container_ids()
        for path, _version, collectable, recipe in entries:
            for cid in collectable:
                if int(cid) not in live and self.containers.exists(int(cid)):
                    self.containers.delete(int(cid))
            if recipe is not None and not catalog.recipe_in_use(str(path), int(recipe)):
                self.storage.recipes.delete_recipe(str(path), int(recipe))
        report.rolled_forward.append((intent.seq, intent.kind))

    # --- debris collection -----------------------------------------------------
    def _orphan_candidates(self, intents: list[Intent]) -> list[int]:
        """Live containers above a crashed job's watermark, unreferenced."""
        watermarks = [
            int(intent.payload["watermark"])
            for intent in intents
            if intent.kind in ("backup", "compaction")
        ]
        if not watermarks:
            return []
        floor = min(watermarks)
        referenced = self.store.catalog.live_container_ids()
        return [
            cid
            for cid in self.containers.container_ids()
            if cid >= floor and cid not in referenced
        ]

    def _collect_orphans(self, intents: list[Intent], report: RecoveryReport) -> None:
        for cid in self._orphan_candidates(intents):
            report.orphan_bytes += self.containers.container_size(cid)
            self.containers.purge(cid)
            report.orphans_collected.append(cid)

    def _collect_torn(self, report: RecoveryReport) -> None:
        """Collect torn-pair remnants; report (never delete) damage.

        A ``.data``-only pair is an interrupted container write — the
        meta never landed, so no committed recipe can name it — unless
        the catalog references it, which means the meta object was lost
        some other way: that is damage, not debris.  A ``.meta``-only
        pair is an interrupted hard delete (data goes first); it is
        debris unless it still carries live entries *and* a committed
        version references it.
        """
        referenced = self.store.catalog.live_container_ids()
        for cid, half in sorted(self.containers.torn_pairs.items()):
            if cid in referenced:
                if half == "meta":
                    meta = self.containers.read_meta(cid)
                    if not meta.live_lookup_entries():
                        self.containers.purge(cid)
                        report.torn_collected.append(cid)
                        continue
                report.torn_damaged.append(cid)
                continue
            self.containers.purge(cid)
            report.torn_collected.append(cid)

    def _reconcile_index(self, report: RecoveryReport) -> None:
        """Drop index entries left pointing at containers recovery removed."""
        index = self.storage.global_index
        for fp, cid in list(index.iter_items()):
            if self.containers.exists(cid) or self.containers.is_tombstoned(cid):
                continue
            index.remove(fp)
            report.index_entries_fixed += 1

    def _meta(self, cid: int):
        meta = self._meta_cache.get(cid)
        if meta is None:
            meta = self.containers.read_meta(cid)
            self._meta_cache[cid] = meta
        return meta
