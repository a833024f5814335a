"""The full-vision restore cache with LAW-based prefetching (Section V-A).

Three chunk statuses drive the replacement policy:

* ``S_I`` — the chunk appears inside the look-ahead window: needed soon,
  pinned in memory;
* ``S_L`` — the chunk does not appear in the LAW but is referenced again
  later in the recipe: keep, demoting to the L-node disk cache under
  memory pressure;
* ``S_U`` — referenced neither in the LAW nor later: useless, never
  inserted and evicted first.

"Referenced later" is an exact count: the cache keeps each fingerprint's
remaining references in a dict built from the records the LAW walks, one
entry per distinct fingerprint.  The paper sizes this with a counting
Bloom filter because a 100 GB recipe's fingerprints would not fit in
memory; here the whole resolved recipe is already in memory, so the exact
answer costs less than the filter's slots and never keeps a useless chunk.

Because eviction only ever discards ``S_U`` chunks, every container is read
from OSS at most once — the property the paper's Fig 8 relies on ("make
sure all containers only be read once").

The cache keeps its memory layer in two status buckets (``S_I`` and
``S_L``) that the :class:`LookAheadWindow` maintains through transition
callbacks as it slides, so eviction pops victims directly from the right
bucket instead of re-deriving ``status_of`` for every resident chunk on
every eviction.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from collections.abc import Callable

from repro.core.container import ContainerMeta
from repro.core.recipe import ChunkRecord
from repro.sim.metrics import Counters

#: Chunk status names (exported for tests and documentation).
STATUS_IN_WINDOW = "S_I"
STATUS_LATER = "S_L"
STATUS_USELESS = "S_U"


class LookAheadWindow:
    """A sliding window over the recipe's chunk-record sequence.

    The window keeps per-fingerprint counts, updated incrementally as it
    slides.  Optional ``on_enter`` / ``on_exit`` callbacks fire when a
    fingerprint's window membership flips, letting the cache keep its
    status buckets current without polling.
    """

    def __init__(self, records: list[ChunkRecord], window: int) -> None:
        if window < 1:
            raise ValueError(f"LAW window must be >= 1, got {window}")
        #: The whole record sequence the window slides over.
        self.records = records
        self._window = window
        self._position = 0
        # Plain dicts, not Counters: ``Counter.__delitem__`` and
        # ``__missing__`` run as Python code on every slide.
        self._counts: dict[bytes, int] = dict(
            Counter(record.fp for record in records[:window])
        )
        #: Fired with a fingerprint when it enters / leaves the window.
        self.on_enter: Callable[[bytes], None] | None = None
        self.on_exit: Callable[[bytes], None] | None = None

    def advance_past(self, index: int) -> None:
        """Slide so the window covers ``[index+1, index+1+window)``."""
        records, counts = self.records, self._counts
        while self._position <= index:
            # Enter before exit: a fingerprint that leaves one position and
            # re-enters at another in the same slide never flips membership,
            # so the cache is spared a demote-then-repromote round trip.
            entering_index = self._position + self._window
            if entering_index < len(records):
                fp = records[entering_index].fp
                seen = counts.get(fp, 0)
                counts[fp] = seen + 1
                if not seen and self.on_enter is not None:
                    self.on_enter(fp)
            fp = records[self._position].fp
            left = counts[fp] - 1
            if left:
                counts[fp] = left
            else:
                del counts[fp]
                if self.on_exit is not None:
                    self.on_exit(fp)
            self._position += 1

    def __contains__(self, fp: bytes) -> bool:
        return fp in self._counts


class FullVisionCache:
    """Two-layer (memory + L-node disk) chunk cache with full vision."""

    def __init__(
        self, memory_bytes: int, disk_bytes: int, law: LookAheadWindow
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory cache must have positive capacity")
        #: Memory layer, bucketed by status so eviction never scans.
        self._mem_window: OrderedDict[bytes, bytes] = OrderedDict()
        self._mem_later: OrderedDict[bytes, bytes] = OrderedDict()
        self._disk: OrderedDict[bytes, bytes] = OrderedDict()
        self._memory_capacity = memory_bytes
        self._disk_capacity = disk_bytes
        self._memory_used = 0
        self._disk_used = 0
        #: References not yet consumed, per fingerprint; a key goes at zero.
        self._remaining: dict[bytes, int] = dict(
            Counter(record.fp for record in law.records)
        )
        self._law = law
        law.on_enter = self._fp_entered_window
        law.on_exit = self._fp_left_window
        self.counters = Counters()

    # --- status ------------------------------------------------------------
    def status_of(self, fp: bytes) -> str:
        """Current status of a fingerprint under the full-vision policy."""
        if fp in self._law:
            return STATUS_IN_WINDOW
        if fp in self._remaining:
            return STATUS_LATER
        return STATUS_USELESS

    # --- LAW transition hooks ----------------------------------------------
    def _fp_entered_window(self, fp: bytes) -> None:
        """A resident ``S_L`` chunk just became ``S_I``: pin it."""
        data = self._mem_later.pop(fp, None)
        if data is not None:
            self._mem_window[fp] = data

    def _fp_left_window(self, fp: bytes) -> None:
        """A chunk left the window: demote to ``S_L`` or drop as ``S_U``."""
        data = self._mem_window.pop(fp, None)
        if data is None:
            return
        if fp in self._remaining:
            self._mem_later[fp] = data
        else:
            self._memory_used -= len(data)
            self.counters.add("evicted_useless")

    # --- lookup / consume -----------------------------------------------------
    def lookup(self, fp: bytes) -> bytes | None:
        """Chunk payload if cached (promoting disk-resident chunks)."""
        data = self._mem_window.get(fp)
        if data is None:
            data = self._mem_later.get(fp)
        if data is not None:
            self.counters.add("memory_hits")
            return data
        data = self._disk.pop(fp, None)
        if data is not None:
            self._disk_used -= len(data)
            self.counters.add("disk_promotions")
            self._insert_memory(fp, data, self.status_of(fp))
            return data
        self.counters.add("cache_misses")
        return None

    def peek(self, fp: bytes) -> bytes | None:
        """Chunk payload from any layer, without counters or promotion."""
        return (
            self._mem_window.get(fp)
            or self._mem_later.get(fp)
            or self._disk.get(fp)
        )

    def consume(self, fp: bytes) -> None:
        """One reference to ``fp`` was restored: decrement its count.

        Nothing is dropped here.  The consumed record is still inside the
        window, so the chunk stays ``S_I`` until the window slides past it;
        :meth:`_fp_left_window` drops it then if no reference remains.
        """
        remaining = self._remaining
        left = remaining[fp] - 1
        if left:
            remaining[fp] = left
        else:
            del remaining[fp]

    def replace(self, fp: bytes, data: bytes) -> None:
        """Put ``data`` in place of the cached copy of ``fp``.

        The restore job hands over a chunk it healed after a failed verify,
        so later references splice the good bytes instead of healing again.
        """
        for layer in (self._mem_window, self._mem_later, self._disk):
            old = layer.get(fp)
            if old is not None:
                layer[fp] = data
                if layer is self._disk:
                    self._disk_used += len(data) - len(old)
                else:
                    self._memory_used += len(data) - len(old)
                return
        self.insert_chunk(fp, data)

    # --- container insertion -----------------------------------------------------
    def insert_chunk(self, fp: bytes, data: bytes) -> bool:
        """Cache one freshly read chunk if its status makes it useful.

        A chunk already sitting in the L-node disk layer whose status is
        ``S_I`` (needed within the window) is promoted to memory here, at
        insert time, instead of paying a ``disk_promotions`` round trip
        when the consumer reaches it.
        """
        if fp in self._mem_window or fp in self._mem_later:
            return False
        status = self.status_of(fp)
        if fp in self._disk:
            if status != STATUS_IN_WINDOW:
                return False
            stored = self._disk.pop(fp)
            self._disk_used -= len(stored)
            self.counters.add("insert_promotions")
            self._insert_memory(fp, stored, status)
            return True
        if status == STATUS_USELESS:
            return False
        self._insert_memory(fp, data, status)
        return True

    def insert_container(self, meta: ContainerMeta, payload: bytes) -> int:
        """Cache the useful chunks of a freshly read container.

        Returns the number of chunks cached.  Only chunks with status
        ``S_I`` or ``S_L`` are placed in the cache; useless chunks never
        occupy space (the paper's "only useful chunk is placed").
        """
        inserted = 0
        for entry in meta.entries:
            if entry.deleted:
                continue
            if self.insert_chunk(
                entry.fp, payload[entry.offset : entry.offset + entry.size]
            ):
                inserted += 1
        return inserted

    # --- internal space management ---------------------------------------------------
    def _insert_memory(self, fp: bytes, data: bytes, status: str) -> None:
        self._make_room(len(data))
        if status == STATUS_IN_WINDOW:
            self._mem_window[fp] = data
        else:
            self._mem_later[fp] = data
        self._memory_used += len(data)

    def _make_room(self, needed: int) -> None:
        # Victims come straight off the status buckets (oldest first):
        # no per-resident status probing.  Every S_L chunk still has a
        # remaining reference (its count only falls while it is in the
        # window), so all of them demote to the disk layer.
        while (
            self._memory_used + needed > self._memory_capacity and self._mem_later
        ):
            fp, data = self._mem_later.popitem(last=False)
            self._memory_used -= len(data)
            self._demote_to_disk(fp, data)
        # Extreme pressure: even in-window chunks must go to disk.
        while (
            self._memory_used + needed > self._memory_capacity and self._mem_window
        ):
            fp, data = self._mem_window.popitem(last=False)
            self._memory_used -= len(data)
            self._demote_to_disk(fp, data)
            self.counters.add("evicted_in_window")

    def _demote_to_disk(self, fp: bytes, data: bytes) -> None:
        if self._disk_used + len(data) > self._disk_capacity:
            # Disk full: drop the oldest disk-resident chunks.  These may
            # need a repeated container read later (counted, so tests can
            # assert it never happens at the configured sizes).
            while self._disk and self._disk_used + len(data) > self._disk_capacity:
                _, old = self._disk.popitem(last=False)
                self._disk_used -= len(old)
                self.counters.add("disk_evictions")
        if self._disk_used + len(data) <= self._disk_capacity:
            self._disk[fp] = data
            self._disk_used += len(data)
            self.counters.add("disk_demotions")

    # --- introspection ----------------------------------------------------------------
    @property
    def memory_used(self) -> int:
        """Bytes of chunk payload currently in the memory layer."""
        return self._memory_used

    @property
    def disk_used(self) -> int:
        """Bytes of chunk payload currently in the disk layer."""
        return self._disk_used
