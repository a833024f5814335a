"""Recipes: the logical chunk sequence of each backup version.

"Recipe is the data structure that describes the logical sequence of chunks
of a backup file.  A recipe consists of chunk records, and each chunk
record is stored as a quadruple <fp, containerID, size, duplicateTimes>"
(Section III-B).  Superchunk records (Section IV-C) additionally carry the
``firstChunk`` fingerprint and its size, which Algorithm 1 needs to match
superchunks in later versions.

Recipes are segmented: consecutive chunks form segments, each with its own
segment recipe, and a *recipe index* maps sampled fingerprints to segment
ordinals so L-nodes can prefetch exactly the similar segment recipes they
need (logical locality).  The on-OSS layout keeps a segment offset table in
the header, so a span of segments of a large recipe costs one ranged GET.

A backup opens its base recipe with one whole-object GET when the object is
at most :data:`WHOLE_RECIPE_BYTES`, as nearly every recipe is: its segments
are then sliced from memory and its recipe index is derived from its
records (:meth:`RecipeIndex.of`), so only a larger recipe keeps a
``recipeidx/`` object and is read span by span.
"""

from __future__ import annotations

import struct
import urllib.parse
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import RecipeError, VersionNotFoundError
from repro.fingerprint.hashing import FP_SIZE
from repro.fingerprint.sampling import is_sampled
from repro.oss.object_store import ObjectStorageService

_RECIPE_HEADER = struct.Struct(">8sIQI")       # magic, version, total bytes, segments
_RECORD_FIXED = struct.Struct(">20sQIIB")      # fp, container, size, dupTimes, flags
_SUPERCHUNK_EXTRA = struct.Struct(">20sI")     # first fp, first size
_INDEX_ENTRY = struct.Struct(">20sI")          # sampled fp, segment ordinal
_MAGIC = b"RECIPE01"
_FLAG_SUPERCHUNK = 1

#: A backup reads a base recipe object up to this size with one GET, and
#: only a larger recipe gets a ``recipeidx/`` object.  It is one default
#: container, the object size the L-node and G-node already GET whole: at
#: 4 KiB chunks (37-byte records) it covers files up to about 55 MiB, and a
#: job that opens a dissimilar base wastes at most one container's worth of
#: bytes.  Read at call time, so a test can set it to 0 to force the ranged
#: path.
WHOLE_RECIPE_BYTES = 512 * 1024


@dataclass
class ChunkRecord:
    """One chunk record of a recipe (the paper's quadruple, plus flags)."""

    fp: bytes
    container_id: int
    size: int
    duplicate_times: int = 0
    is_superchunk: bool = False
    first_fp: bytes = b""
    first_size: int = 0
    #: Transient: whether this record was identified as a duplicate during
    #: the backup that emitted it.  Not serialised.
    is_duplicate: bool = False

    def __post_init__(self) -> None:
        if len(self.fp) != FP_SIZE:
            raise RecipeError(f"bad fingerprint length {len(self.fp)}")
        if self.is_superchunk and len(self.first_fp) != FP_SIZE:
            raise RecipeError("superchunk record requires a firstChunk fingerprint")

    def to_bytes(self) -> bytes:
        flags = _FLAG_SUPERCHUNK if self.is_superchunk else 0
        blob = _RECORD_FIXED.pack(
            self.fp, self.container_id, self.size, self.duplicate_times, flags
        )
        if self.is_superchunk:
            blob += _SUPERCHUNK_EXTRA.pack(self.first_fp, self.first_size)
        return blob

    @classmethod
    def read_from(cls, payload: bytes, offset: int) -> tuple["ChunkRecord", int]:
        fp, container_id, size, duplicate_times, flags = _RECORD_FIXED.unpack_from(
            payload, offset
        )
        offset += _RECORD_FIXED.size
        first_fp, first_size = b"", 0
        if flags & _FLAG_SUPERCHUNK:
            first_fp, first_size = _SUPERCHUNK_EXTRA.unpack_from(payload, offset)
            offset += _SUPERCHUNK_EXTRA.size
        record = cls(
            fp=fp,
            container_id=container_id,
            size=size,
            duplicate_times=duplicate_times,
            is_superchunk=bool(flags & _FLAG_SUPERCHUNK),
            first_fp=first_fp,
            first_size=first_size,
        )
        return record, offset


@dataclass
class Recipe:
    """A backup version's full recipe: segments of chunk records."""

    path: str
    version: int
    total_bytes: int = 0
    segments: list[list[ChunkRecord]] = field(default_factory=list)

    def all_records(self) -> list[ChunkRecord]:
        """The flat chunk sequence across all segments."""
        return [record for segment in self.segments for record in segment]

    def chunk_count(self) -> int:
        """Total number of chunk records."""
        return sum(len(segment) for segment in self.segments)

    def referenced_containers(self) -> set[int]:
        """Every container id any record points at."""
        return {record.container_id for segment in self.segments for record in segment}

    def reused_containers(self, new_container_ids: list[int]) -> Counter[int]:
        """Records per container the version shares with older ones: every
        container but ``new_container_ids``, the ones its backup wrote.  A
        backup stores its unique chunks there only, so each other record is
        a duplicate reference (what sparse-container detection counts)."""
        new = set(new_container_ids)
        return Counter(
            record.container_id
            for record in self.all_records()
            if record.container_id not in new
        )

    # --- serialisation -------------------------------------------------------
    def to_bytes(self) -> bytes:
        segment_blobs = [
            b"".join(record.to_bytes() for record in segment) for segment in self.segments
        ]
        header = _RECIPE_HEADER.pack(_MAGIC, self.version, self.total_bytes, len(segment_blobs))
        offsets = bytearray()
        counts = bytearray()
        position = 0
        for segment, blob in zip(self.segments, segment_blobs):
            offsets += struct.pack(">Q", position)
            counts += struct.pack(">I", len(segment))
            position += len(blob)
        offsets += struct.pack(">Q", position)  # end sentinel
        return header + bytes(offsets) + bytes(counts) + b"".join(segment_blobs)

    @classmethod
    def from_bytes(cls, path: str, payload: bytes) -> "Recipe":
        magic, version, total_bytes, segment_count = _RECIPE_HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise RecipeError(f"bad recipe magic for {path}")
        __, counts, data_start = _parse_tables(payload, segment_count)
        segments = _parse_segments(payload, data_start, counts)
        return cls(path=path, version=version, total_bytes=total_bytes, segments=segments)


def _parse_tables(payload: bytes, segment_count: int) -> tuple[list[int], list[int], int]:
    position = _RECIPE_HEADER.size
    offsets = [
        struct.unpack_from(">Q", payload, position + 8 * i)[0]
        for i in range(segment_count + 1)
    ]
    position += 8 * (segment_count + 1)
    counts = [
        struct.unpack_from(">I", payload, position + 4 * i)[0] for i in range(segment_count)
    ]
    position += 4 * segment_count
    return offsets, counts, position


def _parse_segments(payload: bytes, offset: int, counts: list[int]) -> list[list[ChunkRecord]]:
    """Consecutive segment recipes of ``counts`` records each, from ``offset``."""
    segments: list[list[ChunkRecord]] = []
    for count in counts:
        records: list[ChunkRecord] = []
        for _ in range(count):
            record, offset = ChunkRecord.read_from(payload, offset)
            records.append(record)
        segments.append(records)
    return segments


@dataclass
class RecipeIndex:
    """Sampled fingerprint → segment ordinal map for one recipe.

    "we extract several representative fingerprints for each segment as
    samples and map them to the offset of their segment recipe" (Sec III-B).
    """

    entries: dict[bytes, list[int]] = field(default_factory=dict)

    @classmethod
    def of(cls, segments: list[list[ChunkRecord]], sample_ratio: int) -> "RecipeIndex":
        """The index of a recipe's segments: each segment's first record and
        every mod-``sample_ratio`` sampled fingerprint, plus every
        superchunk's firstChunk.  The writer of a large recipe persists it;
        a backup that opens a small recipe whole derives it here."""
        index = cls()
        for ordinal, segment in enumerate(segments):
            for position, record in enumerate(segment):
                if position == 0 or is_sampled(record.fp, sample_ratio):
                    index.add(record.fp, ordinal)
                if record.is_superchunk:
                    # The next version's CDC cuts small chunks, which can
                    # only rendezvous with a superchunk through its
                    # firstChunk fingerprint (Algorithm 1) — so every
                    # superchunk's firstChunk is indexed.
                    index.add(record.first_fp, ordinal)
        return index

    def add(self, fp: bytes, ordinal: int) -> None:
        """Register a sampled fingerprint for a segment ordinal."""
        ordinals = self.entries.setdefault(fp, [])
        if ordinal not in ordinals:
            ordinals.append(ordinal)

    def lookup(self, fp: bytes) -> list[int]:
        """Segment ordinals whose sample set contains ``fp``."""
        return self.entries.get(fp, [])

    def __len__(self) -> int:
        return sum(len(ordinals) for ordinals in self.entries.values())

    def to_bytes(self) -> bytes:
        blob = bytearray(struct.pack(">I", len(self)))
        for fp, ordinals in sorted(self.entries.items()):
            for ordinal in ordinals:
                blob += _INDEX_ENTRY.pack(fp, ordinal)
        return bytes(blob)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RecipeIndex":
        (count,) = struct.unpack_from(">I", payload, 0)
        index = cls()
        position = 4
        for _ in range(count):
            fp, ordinal = _INDEX_ENTRY.unpack_from(payload, position)
            position += _INDEX_ENTRY.size
            index.add(fp, ordinal)
        return index


class RecipeHandle:
    """One recipe on OSS, opened as a backup's dedup base.

    A recipe of at most :data:`WHOLE_RECIPE_BYTES` arrives whole with the
    one GET that opens it (``payload``): its segment recipes are parsed
    from that payload once, on first use, and its recipe index is derived
    from its records, so nothing after the open issues a request.  A
    larger one is read lazily: the header and segment offset table at
    open, each span of segment recipes with one ranged GET — the "prefetch
    similar segment" operation of the dedup workflow (Section IV-A, step
    2) — and the recipe index from its own object.
    """

    def __init__(
        self,
        oss: ObjectStorageService,
        bucket: str,
        object_key: str,
        index_key: str,
        path: str,
        payload: bytes | None = None,
    ) -> None:
        self._oss = oss
        self._bucket = bucket
        self._key = object_key
        self._index_key = index_key
        self._payload = payload
        self._held: list[list[ChunkRecord]] | None = None
        self.path = path
        head = payload
        if head is None:
            head = oss.get_range(bucket, object_key, 0, _RECIPE_HEADER.size)
        magic, self.version, self.total_bytes, self.segment_count = (
            _RECIPE_HEADER.unpack_from(head, 0)
        )
        if magic != _MAGIC:
            raise RecipeError(f"bad recipe magic for {path}")
        if payload is None:
            tables_len = 8 * (self.segment_count + 1) + 4 * self.segment_count
            head += oss.get_range(bucket, object_key, _RECIPE_HEADER.size, tables_len)
        self._offsets, self._counts, self._data_start = _parse_tables(head, self.segment_count)

    @property
    def whole(self) -> bool:
        """Whether the open read the whole recipe (no request after it)."""
        return self._payload is not None

    def _held_segments(self) -> list[list[ChunkRecord]]:
        """Every segment recipe of a whole recipe, parsed once.  A job
        copies the base records it emits, so repeated spans can share
        them."""
        if self._held is None:
            self._held = _parse_segments(self._payload, self._data_start, self._counts)
        return self._held

    def get_segment(self, ordinal: int) -> list[ChunkRecord]:
        """One segment recipe (see :meth:`get_segment_range`)."""
        return self.get_segment_range(ordinal, 1)[0]

    def get_segment_range(self, start: int, count: int) -> list[list[ChunkRecord]]:
        """``count`` consecutive segment recipes: sliced from a whole
        recipe, or fetched with ONE ranged GET.

        Segment recipes are contiguous in the recipe object, so a prefetch
        span costs a single request — this is what keeps recipe prefetching
        off the critical path at 4 KB chunk sizes.
        """
        if not 0 <= start < self.segment_count:
            raise RecipeError(f"segment {start} out of range [0, {self.segment_count})")
        count = min(count, self.segment_count - start)
        if count < 1:
            raise RecipeError("segment range must cover at least one segment")
        if self._payload is not None:
            return self._held_segments()[start : start + count]
        begin = self._data_start + self._offsets[start]
        length = self._offsets[start + count] - self._offsets[start]
        payload = self._oss.get_range(self._bucket, self._key, begin, length)
        return _parse_segments(payload, 0, self._counts[start : start + count])

    def recipe_index(self, sample_ratio: int) -> RecipeIndex:
        """The recipe's index: :meth:`RecipeIndex.of` the held records of a
        whole recipe (no request), else one GET of its ``recipeidx/``
        object."""
        if self._payload is not None:
            return RecipeIndex.of(self._held_segments(), sample_ratio)
        try:
            payload = self._oss.get_object(self._bucket, self._index_key)
        except KeyError as exc:
            raise VersionNotFoundError(self.path, self.version) from exc
        return RecipeIndex.from_bytes(payload)


class RecipeStore:
    """The recipe half of the storage layer, resident on OSS."""

    RECIPE_KEY = "recipes/{path}/{version:06d}"
    INDEX_KEY = "recipeidx/{path}/{version:06d}"

    def __init__(self, oss: ObjectStorageService, bucket: str = "slimstore") -> None:
        self._oss = oss
        self._bucket = bucket
        oss.create_bucket(bucket)

    @staticmethod
    def _safe(path: str) -> str:
        return urllib.parse.quote(path, safe="")

    def _recipe_key(self, path: str, version: int) -> str:
        return self.RECIPE_KEY.format(path=self._safe(path), version=version)

    def _index_key(self, path: str, version: int) -> str:
        return self.INDEX_KEY.format(path=self._safe(path), version=version)

    # --- recipes -----------------------------------------------------------
    def put_recipe(self, recipe: Recipe, sample_ratio: int | None = None) -> int:
        """Persist (or overwrite) a recipe; returns bytes uploaded.

        A new version's recipe comes with its ``sample_ratio``: above
        :data:`WHOLE_RECIPE_BYTES` its :meth:`RecipeIndex.of` is PUT too,
        while a smaller one needs none, since a backup opening it reads it
        whole and derives the index.  An overwrite (the G-node's compaction)
        passes none: it changes only fixed-width container ids, so the
        recipe keeps its size and its index.
        """
        payload = recipe.to_bytes()
        self._oss.put_object(
            self._bucket, self._recipe_key(recipe.path, recipe.version), payload
        )
        written = len(payload)
        if sample_ratio is not None and written > WHOLE_RECIPE_BYTES:
            index = RecipeIndex.of(recipe.segments, sample_ratio).to_bytes()
            self._oss.put_object(
                self._bucket, self._index_key(recipe.path, recipe.version), index
            )
            written += len(index)
        return written

    def get_recipe(self, path: str, version: int) -> Recipe:
        """Load a full recipe (one whole-object GET)."""
        try:
            payload = self._oss.get_object(self._bucket, self._recipe_key(path, version))
        except KeyError as exc:
            raise VersionNotFoundError(path, version) from exc
        return Recipe.from_bytes(path, payload)

    def open_recipe(self, path: str, version: int) -> RecipeHandle:
        """Open a recipe as a dedup base: one whole-object GET up to
        :data:`WHOLE_RECIPE_BYTES`, else the header and segment tables."""
        key = self._recipe_key(path, version)
        size = self._oss.peek_size(self._bucket, key)
        if size is None:
            raise VersionNotFoundError(path, version)
        payload = self._oss.get_object(self._bucket, key) if size <= WHOLE_RECIPE_BYTES else None
        return RecipeHandle(
            self._oss, self._bucket, key, self._index_key(path, version), path, payload
        )

    def delete_recipe(self, path: str, version: int) -> bool:
        """Delete a recipe and its index (if it has one) with one batched
        DELETE; True if the recipe existed."""
        key = self._recipe_key(path, version)
        existed = self._oss.peek_size(self._bucket, key) is not None
        self._oss.delete_objects(self._bucket, [key, self._index_key(path, version)])
        return existed

    # --- accounting ----------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Bytes of all recipes and indexes currently stored (free)."""
        total = 0
        for prefix in ("recipes/", "recipeidx/"):
            for key in self._oss.peek_keys(self._bucket, prefix):
                total += self._oss.peek_size(self._bucket, key) or 0
        return total
