"""Full-vision restore planning: the container access schedule.

The recipe gives the restore job *full vision* — before any data moves,
the entire chunk-record sequence is known.  :class:`RestorePlanner` turns
that vision into an explicit read plan:

* the distinct containers the job will touch, in first-use order (this is
  the order the LAW prefetcher issues reads in);
* for ranged mode, the byte extents of the useful chunks inside each
  container, coalesced into a handful of ranged GETs, so an aged container
  holding three live chunks no longer costs a whole-container download;
* plan-time resolution of moved chunks: reverse deduplication and sparse
  container compaction relocate old versions' chunks, and the planner
  redirects through the global index *before* the pipeline starts instead
  of stalling the consumer on a surprise mid-restore.

Span coalescing merges extents whose gap is at most ``gap_bytes``: with
OSS request latency ``L`` and bandwidth ``B``, reading a gap of up to
``L x B`` bytes is cheaper than paying another round trip, which is where
:data:`RANGED_READ_GAP_BYTES` comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.container import ChunkLocation, ContainerMeta
from repro.core.recipe import ChunkRecord
from repro.errors import RestoreError
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown

#: Gap the restore and browse paths coalesce ranged-read extents across: at
#: 0.5 ms request latency and 40 MiB/s per channel, re-reading up to
#: ~latency x bandwidth ~= 20 KiB of dead bytes beats paying another
#: round trip.
RANGED_READ_GAP_BYTES = 16 * 1024


@dataclass(frozen=True)
class ReadSpan:
    """One coalesced byte extent inside a container data object."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        """First byte past the extent."""
        return self.offset + self.length


@dataclass
class PlannedRead:
    """One scheduled container access.

    ``spans is None`` means a whole-container read (the seed access
    pattern); otherwise only the listed extents cross the wire.
    """

    container_id: int
    first_use: int
    spans: list[ReadSpan] | None
    planned_bytes: int
    container_bytes: int

    @property
    def bytes_saved(self) -> int:
        """Read-amplification bytes a ranged read avoids transferring."""
        return max(0, self.container_bytes - self.planned_bytes)


@dataclass
class RestorePlan:
    """The precomputed access schedule for one restore job."""

    ranged: bool
    #: Scheduled container reads, in first-use (= prefetch issue) order.
    reads: list[PlannedRead] = field(default_factory=list)
    #: Records with ``container_id`` rewritten to the current owner
    #: (ranged mode resolves moved chunks at plan time).
    resolved: list[ChunkRecord] = field(default_factory=list)
    #: Ranged mode: each resolved record's ``(offset, size)`` in its owner
    #: (parallel to ``resolved``), so a reader slices it out of the spans.
    extents: list[tuple[int, int]] = field(default_factory=list)
    #: Fresh container metadata fetched during planning (ranged mode).
    metas: dict[int, ContainerMeta] = field(default_factory=dict)
    #: Index of the planned read each record triggers (-1: already read).
    read_for_record: list[int] = field(default_factory=list)
    #: Virtual seconds spent on plan-time OSS traffic (meta pre-reads).
    plan_seconds: float = 0.0
    #: Planned reads whose primary payload is already known to be gone —
    #: with a durability tier these will be served degraded (replica or
    #: erasure decode) instead of failing.
    planned_degraded_reads: int = 0

    @property
    def planned_bytes(self) -> int:
        """Total bytes the planned reads will transfer."""
        return sum(read.planned_bytes for read in self.reads)

    @property
    def bytes_saved(self) -> int:
        """Total read-amplification bytes the plan avoids."""
        return sum(read.bytes_saved for read in self.reads)


class RestorePlanner:
    """Computes the container access schedule from a recipe's records."""

    def __init__(self, storage, cost_model: CostModel | None = None) -> None:
        self.storage = storage
        self.cost_model = cost_model or CostModel()

    def plan(
        self,
        records: list[ChunkRecord],
        ranged: bool,
        gap_bytes: int,
        breakdown: TimeBreakdown,
        counters: Counters,
        metas: dict[int, ContainerMeta] | None = None,
    ) -> RestorePlan:
        """Build the access schedule (charging plan-time traffic).

        Whole-container mode keeps the seed cost structure exactly: no
        metadata pre-reads, redirects discovered lazily at consume time.
        Ranged mode pre-reads fresh metadata for every referenced
        container (offsets may have moved since the recipe was written —
        compaction rewrites containers in place), resolves every record
        to its current owner, and coalesces the useful extents.

        ``metas`` seeds (and shares) the container-metadata memo: a
        browse session plans many small record subsets against the same
        containers, so metadata fetched by one plan is reused by the
        next instead of re-crossing the wire.
        """
        if ranged:
            return self._plan_ranged(records, gap_bytes, breakdown, counters, metas)
        return self._plan_whole(records)

    # --- whole-container schedule ------------------------------------------
    def _plan_whole(self, records: list[ChunkRecord]) -> RestorePlan:
        plan = RestorePlan(ranged=False, resolved=list(records))
        read_index: dict[int, int] = {}
        for index, record in enumerate(records):
            cid = record.container_id
            if cid in read_index:
                plan.read_for_record.append(-1)
                continue
            size = (
                self.storage.containers.container_size(cid)
                if self.storage.containers.exists(cid)
                else 0
            )
            read_index[cid] = len(plan.reads)
            plan.read_for_record.append(len(plan.reads))
            plan.reads.append(
                PlannedRead(
                    container_id=cid,
                    first_use=index,
                    spans=None,
                    planned_bytes=size,
                    container_bytes=size,
                )
            )
            if self.storage.containers.primary_missing(cid):
                plan.planned_degraded_reads += 1
        return plan

    # --- ranged schedule ------------------------------------------------------
    def _plan_ranged(
        self,
        records: list[ChunkRecord],
        gap_bytes: int,
        breakdown: TimeBreakdown,
        counters: Counters,
        metas: dict[int, ContainerMeta] | None = None,
    ) -> RestorePlan:
        plan = RestorePlan(ranged=True)
        if metas is not None:
            plan.metas = metas
        redirects_before = counters.get("global_index_redirects")
        with self.storage.oss.meter() as plan_meter:
            # Pass 1: resolve every record to the container holding it now;
            # a container's read is scheduled at its first use.
            extents: dict[int, set[tuple[int, int]]] = {}
            first_use: dict[int, int] = {}
            resolution: dict[bytes, tuple[int, tuple[int, int]]] = {}
            for index, record in enumerate(records):
                resolved = resolution.get(record.fp)
                if resolved is None:
                    owner, entry = self._resolve(record, plan.metas, breakdown, counters)
                    resolved = resolution[record.fp] = (owner, (entry.offset, entry.size))
                owner, extent = resolved
                plan.resolved.append(
                    record
                    if record.container_id == owner
                    else ChunkRecord(fp=record.fp, container_id=owner, size=record.size)
                )
                plan.extents.append(extent)
                if owner in first_use:
                    extents[owner].add(extent)
                    plan.read_for_record.append(-1)
                else:
                    extents[owner] = {extent}
                    plan.read_for_record.append(len(first_use))
                    first_use[owner] = index

            # Pass 2: coalesce each container's extents into ranged spans.
            for cid, first in first_use.items():
                spans = coalesce_spans(extents[cid], gap_bytes)
                plan.reads.append(
                    PlannedRead(
                        container_id=cid,
                        first_use=first,
                        spans=spans,
                        planned_bytes=sum(span.length for span in spans),
                        container_bytes=self.storage.containers.container_size(cid),
                    )
                )
                if self.storage.containers.primary_missing(cid):
                    plan.planned_degraded_reads += 1
        # Plan time is the metered OSS traffic plus the CPU of every
        # global-index query resolving a moved chunk.
        plan.plan_seconds = plan_meter.read_seconds + self.cost_model.cpu_index_query * (
            counters.get("global_index_redirects") - redirects_before
        )
        return plan

    def _resolve(
        self,
        record: ChunkRecord,
        metas: dict[int, ContainerMeta],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> tuple[int, ChunkLocation]:
        """Container currently holding ``record.fp`` (redirecting if moved)
        and the chunk's entry in its metadata."""
        entry = None
        if self.storage.containers.exists(record.container_id):
            meta = self._meta_for(record.container_id, metas, breakdown, counters)
            entry = meta.find(record.fp)
        if entry is not None and not entry.deleted:
            return record.container_id, entry

        # Reverse dedup or SCC moved the chunk; ask the global index.
        counters.add("global_index_redirects")
        breakdown.charge("index_query", self.cost_model.cpu_index_query)
        with self.storage.oss.meter(breakdown):
            owner = self.storage.global_index.lookup(record.fp)
        if owner is None:
            raise RestoreError(
                f"chunk {record.fp.hex()[:12]} missing from container "
                f"{record.container_id} and unknown to the global index"
            )
        entry = None
        if self.storage.containers.exists(owner):
            meta = self._meta_for(owner, metas, breakdown, counters)
            entry = meta.find(record.fp)
        if entry is None or entry.deleted:
            raise RestoreError(
                f"global index points chunk {record.fp.hex()[:12]} at container "
                f"{owner}, which does not hold it"
            )
        return owner, entry

    def _meta_for(
        self,
        container_id: int,
        metas: dict[int, ContainerMeta],
        breakdown: TimeBreakdown,
        counters: Counters,
    ) -> ContainerMeta:
        """Fetch (and memoise) fresh metadata for one container.

        The first metadata read pays a full round trip; subsequent reads
        are issued back-to-back on the same prefetch connection and are
        charged as piggybacked companions (bandwidth only).
        """
        meta = metas.get(container_id)
        if meta is None:
            with self.storage.oss.meter(breakdown):
                meta = self.storage.containers.read_meta(
                    container_id, piggyback=bool(metas)
                )
            counters.add("plan_meta_reads")
            metas[container_id] = meta
        return meta


def coalesce_spans(
    extents: set[tuple[int, int]] | list[tuple[int, int]], gap_bytes: int
) -> list[ReadSpan]:
    """Merge chunk extents into ranged GET spans.

    Extents are sorted by offset; overlapping extents (a superchunk and
    its alias) merge unconditionally, and extents separated by at most
    ``gap_bytes`` merge too — below that gap another round trip costs
    more than the dead bytes.
    """
    if gap_bytes < 0:
        raise ValueError(f"gap_bytes cannot be negative: {gap_bytes}")
    merged: list[list[int]] = []
    for offset, size in sorted(extents):
        if merged and offset <= merged[-1][1] + gap_bytes:
            merged[-1][1] = max(merged[-1][1], offset + size)
        else:
            merged.append([offset, offset + size])
    return [ReadSpan(start, end - start) for start, end in merged]
