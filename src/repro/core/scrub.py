"""Repository scrubbing: an fsck for the backup store.

Production backup systems verify at rest what they promised at backup
time.  The scrubber performs two passes:

* **container pass** — re-hash every live chunk payload (aliases included,
  since restores resolve through them) and compare against its metadata
  fingerprint, catching bit rot and torn writes;
* **recipe pass** — walk every live version's recipe and prove each chunk
  record resolvable: present in its recorded container, or reachable
  through a global-index redirect (the path old versions take after
  reverse deduplication or compaction moved their chunks).

Both passes are read-only by default.  With ``repair=True`` a third pass
heals each corrupt chunk from a healthy copy of the same fingerprint —
found through the global-index redirect path first, then by scanning the
remaining containers (deduplicated copies marked deleted but not yet
rewritten still carry valid bytes) — and rewrites the damaged container's
data object in place.  Chunks with no healthy copy anywhere are
*quarantined*: marked deleted in the container metadata so neither dedup
nor restore will ever serve the rotten bytes again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.storage import StorageLayer
from repro.errors import ObjectNotFoundError
from repro.fingerprint.hashing import fingerprint


@dataclass
class ScrubReport:
    """Findings of one scrub run."""

    containers_checked: int = 0
    chunks_verified: int = 0
    corrupt_chunks: list[tuple[int, bytes]] = field(default_factory=list)
    recipes_checked: int = 0
    records_verified: int = 0
    redirected_records: int = 0
    unresolvable_records: list[tuple[str, int, bytes]] = field(default_factory=list)
    #: Repair-pass outcome (zero/empty on read-only scrubs).
    chunks_repaired: int = 0
    containers_rewritten: int = 0
    quarantined_chunks: list[tuple[int, bytes]] = field(default_factory=list)
    #: Containers where only one of ``.data``/``.meta`` survives.  These
    #: are invisible to the container pass (quarantined ids serve no
    #: reads), so they are reported from the container store's
    #: attach-time evidence; after crash recovery has collected the
    #: explainable ones, anything left here is a referenced torn pair —
    #: real data loss.
    torn_containers: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no corruption or dangling references were found."""
        return (
            not self.corrupt_chunks
            and not self.unresolvable_records
            and not self.torn_containers
        )

    @property
    def fully_repaired(self) -> bool:
        """True when every corrupt chunk found was healed (none quarantined)."""
        return (
            len(self.corrupt_chunks) == self.chunks_repaired
            and not self.quarantined_chunks
        )


class RepositoryScrubber:
    """Integrity verification (and optional repair) over the storage layer."""

    def __init__(self, storage: StorageLayer) -> None:
        self.storage = storage
        self._fingerprint = getattr(storage, "fingerprinter", fingerprint)

    def scrub(
        self,
        versions: dict[str, list[int]] | None = None,
        repair: bool = False,
    ) -> ScrubReport:
        """Run both passes; ``versions`` maps path → the versions owning
        its live recipes (from the catalog: an alias resolves to its
        origin) for the recipe pass (skipped when None).

        With ``repair``, corrupt chunks found by the container pass are
        healed from a healthy copy where one exists and quarantined where
        none does; the recipe pass then runs against the repaired state.
        """
        report = ScrubReport()
        report.torn_containers = sorted(self.storage.containers.torn_pairs)
        self._scrub_containers(report)
        if repair and report.corrupt_chunks:
            self._repair_containers(report)
        if versions:
            self._scrub_recipes(versions, report)
        return report

    # ------------------------------------------------------------------
    def _scrub_containers(self, report: ScrubReport) -> None:
        containers = self.storage.containers
        for cid in containers.container_ids():
            meta = containers.read_meta(cid)
            payload = containers.read_data(cid)
            report.containers_checked += 1
            for entry in meta.live_lookup_entries():
                chunk = payload[entry.offset : entry.offset + entry.size]
                report.chunks_verified += 1
                if self._fingerprint(chunk) != entry.fp:
                    report.corrupt_chunks.append((cid, entry.fp))

    def _scrub_recipes(
        self, versions: dict[str, list[int]], report: ScrubReport
    ) -> None:
        containers = self.storage.containers
        meta_cache: dict[int, object] = {}

        def resolvable(cid: int, fp: bytes) -> bool:
            if not containers.exists(cid):
                return False
            meta = meta_cache.get(cid)
            if meta is None:
                meta = containers.read_meta(cid)
                meta_cache[cid] = meta
            entry = meta.find(fp)
            return entry is not None and not entry.deleted

        for path, live in sorted(versions.items()):
            for version in live:
                recipe = self.storage.recipes.get_recipe(path, version)
                report.recipes_checked += 1
                for record in recipe.all_records():
                    report.records_verified += 1
                    if resolvable(record.container_id, record.fp):
                        continue
                    owner = self.storage.global_index.lookup(record.fp)
                    if owner is not None and resolvable(owner, record.fp):
                        report.redirected_records += 1
                        continue
                    report.unresolvable_records.append(
                        (path, version, record.fp)
                    )

    # ------------------------------------------------------------------
    # Repair pass
    # ------------------------------------------------------------------
    def _repair_containers(self, report: ScrubReport) -> None:
        """Heal every corrupt chunk that has a healthy copy somewhere."""
        containers = self.storage.containers
        by_container: dict[int, list[bytes]] = {}
        for cid, fp in report.corrupt_chunks:
            by_container.setdefault(cid, []).append(fp)

        payload_cache: dict[int, bytes] = {}
        meta_cache: dict[int, object] = {}
        for cid, fps in sorted(by_container.items()):
            meta = containers.read_meta(cid)
            payload = bytearray(containers.read_data(cid))
            payload_dirty = False
            meta_dirty = False
            for fp in fps:
                entry = meta.find(fp)
                if entry is None:
                    continue
                healthy = self._find_healthy_copy(
                    fp, entry.size, cid, payload_cache, meta_cache
                )
                if healthy is not None:
                    payload[entry.offset : entry.offset + entry.size] = healthy
                    report.chunks_repaired += 1
                    payload_dirty = True
                else:
                    # Truly unrecoverable: quarantine so neither dedup nor
                    # restore ever serves the rotten bytes.
                    if meta.mark_deleted(fp):
                        meta_dirty = True
                    report.quarantined_chunks.append((cid, fp))
            # Quarantine marks land first, so the metadata the payload's
            # in-place overwrite journals is the stored one.
            if meta_dirty:
                containers.update_meta(meta)
                meta_cache.pop(cid, None)
            if payload_dirty:
                containers.replace_data(cid, bytes(payload), meta)
                payload_cache.pop(cid, None)
                report.containers_rewritten += 1

    def _find_healthy_copy(
        self,
        fp: bytes,
        size: int,
        exclude_cid: int,
        payload_cache: dict[int, bytes],
        meta_cache: dict[int, object],
    ) -> bytes | None:
        """Verified bytes for ``fp`` from any container but ``exclude_cid``.

        The durability tier is consulted first: the damaged container's
        own replicas or erasure stripe hold the exact bytes the scrub is
        repairing, so a single failover read beats any scan (and with a
        durability tier a domain-wide outage repairs with zero
        quarantines).  After that the global-index owner is tried (the
        redirect path restores already use); failing that, every other
        container is scanned — including entries marked deleted, whose
        bytes survive until the container is rewritten and are a
        legitimate repair source.
        """
        containers = self.storage.containers
        if containers.durability is not None:
            chunk = containers.durability.fetch_chunk(exclude_cid, fp)
            if chunk is not None and len(chunk) == size:
                return chunk
        candidates: list[int] = []
        owner = self.storage.global_index.lookup(fp)
        if owner is not None and owner != exclude_cid:
            candidates.append(owner)
        for cid in containers.container_ids():
            if cid != exclude_cid and cid not in candidates:
                candidates.append(cid)

        for cid in candidates:
            if not containers.exists(cid):
                continue
            meta = meta_cache.get(cid)
            if meta is None:
                try:
                    meta = containers.read_meta(cid)
                except (ObjectNotFoundError, KeyError):
                    continue
                meta_cache[cid] = meta
            entry = meta.find(fp)
            if entry is None or entry.size != size:
                continue
            payload = payload_cache.get(cid)
            if payload is None:
                try:
                    payload = containers.read_data(cid)
                except (ObjectNotFoundError, KeyError):
                    continue
                payload_cache[cid] = payload
            chunk = payload[entry.offset : entry.offset + entry.size]
            if self._fingerprint(chunk) == fp:
                return chunk
        return None
