"""The full-vision restore cache with LAW-based prefetching (Section V-A).

Three chunk statuses drive the replacement policy:

* ``S_I`` — the chunk appears inside the look-ahead window: needed soon,
  pinned in memory;
* ``S_L`` — the chunk does not appear in the LAW but the per-file counting
  Bloom filter says it is referenced again later: keep, demoting to the
  L-node disk cache under memory pressure;
* ``S_U`` — referenced neither in the LAW nor in the CBF: useless, never
  inserted and evicted first.

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
from repro.kvstore.bloom import CountingBloomFilter
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
        self._records = records
        self._window = window
        self._position = 0
        self._counts: Counter[bytes] = Counter(
            record.fp for record in records[:window]
        )
        #: Fired with a fingerprint when it enters / leaves the window.
        self.on_enter: Callable[[bytes], None] | None = None
        self.on_exit: Callable[[bytes], None] | None = None

    def advance_past(self, index: int) -> None:
        """Slide so the window covers ``[index+1, index+1+window)``."""
        while self._position <= index:
            # Enter before exit: a fingerprint that leaves one position and
            # re-enters at another in the same slide never flips membership,
            # so the cache is spared a demote-then-repromote round trip.
            entering_index = self._position + self._window
            if entering_index < len(self._records):
                entering = self._records[entering_index]
                self._counts[entering.fp] += 1
                if self._counts[entering.fp] == 1 and self.on_enter is not None:
                    self.on_enter(entering.fp)
            leaving = self._records[self._position]
            self._counts[leaving.fp] -= 1
            if self._counts[leaving.fp] == 0:
                del self._counts[leaving.fp]
                if self.on_exit is not None:
                    self.on_exit(leaving.fp)
            self._position += 1

    def __contains__(self, fp: bytes) -> bool:
        return self._counts.get(fp, 0) > 0


class FullVisionCache:
    """Two-layer (memory + L-node disk) chunk cache with full vision."""

    def __init__(
        self,
        memory_bytes: int,
        disk_bytes: int,
        cbf: CountingBloomFilter,
        law: LookAheadWindow,
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
        self._cbf = cbf
        self._law = law
        law.on_enter = self._fp_entered_window
        law.on_exit = self._fp_left_window
        self.counters = Counters()

    # --- status ------------------------------------------------------------
    def status_of(self, fp: bytes) -> str:
        """Current status of a fingerprint under the full-vision policy."""
        if fp in self._law:
            return STATUS_IN_WINDOW
        if self._cbf.count(fp) > 0:
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
        if self._cbf.count(fp) > 0:
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
            self._insert_memory(fp, data)
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
        """One reference to ``fp`` was restored: decrement its CBF count.

        The chunk is dropped exactly when that leaves it ``S_U``; the count
        :meth:`CountingBloomFilter.remove` reads back spares the second
        probe ``status_of`` would make.
        """
        try:
            remaining = self._cbf.remove(fp)
        except KeyError:
            # A Bloom false positive elsewhere already consumed the slots.
            self.counters.add("cbf_underflows")
            remaining = self._cbf.count(fp)
        if remaining == 0 and fp not in self._law:
            self._drop(fp)

    def _drop(self, fp: bytes) -> None:
        data = self._mem_window.pop(fp, None)
        if data is None:
            data = self._mem_later.pop(fp, None)
        if data is not None:
            self._memory_used -= len(data)
        data = self._disk.pop(fp, None)
        if data is not None:
            self._disk_used -= len(data)

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
            self._insert_memory(fp, stored)
            return True
        if status == STATUS_USELESS:
            return False
        self._insert_memory(fp, data)
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
    def _insert_memory(self, fp: bytes, data: bytes) -> None:
        self._make_room(len(data))
        if self.status_of(fp) == STATUS_IN_WINDOW:
            self._mem_window[fp] = data
        else:
            self._mem_later[fp] = data
        self._memory_used += len(data)

    def _make_room(self, needed: int) -> None:
        # Victims come straight off the status buckets (oldest first):
        # no per-resident status probing.  S_L chunks demote to the disk
        # layer; stragglers that turned useless since insertion (CBF
        # collisions) are dropped outright.
        while (
            self._memory_used + needed > self._memory_capacity and self._mem_later
        ):
            fp, data = self._mem_later.popitem(last=False)
            self._memory_used -= len(data)
            if self.status_of(fp) == STATUS_USELESS:
                self.counters.add("evicted_useless")
            else:
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
