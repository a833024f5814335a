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
the header, so one segment costs one ranged GET.
"""

from __future__ import annotations

import struct
import urllib.parse
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import RecipeError, VersionNotFoundError
from repro.fingerprint.hashing import FP_SIZE
from repro.oss.object_store import ObjectStorageService

_RECIPE_HEADER = struct.Struct(">8sIQI")       # magic, version, total bytes, segments
_RECORD_FIXED = struct.Struct(">20sQIIB")      # fp, container, size, dupTimes, flags
_SUPERCHUNK_EXTRA = struct.Struct(">20sI")     # first fp, first size
_INDEX_ENTRY = struct.Struct(">20sI")          # sampled fp, segment ordinal
_MAGIC = b"RECIPE01"
_FLAG_SUPERCHUNK = 1


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
        offsets, counts, data_start = _parse_tables(payload, segment_count)
        segments: list[list[ChunkRecord]] = []
        for ordinal in range(segment_count):
            segments.append(
                _parse_segment(payload, data_start + offsets[ordinal], counts[ordinal])
            )
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


def _parse_segment(payload: bytes, offset: int, count: int) -> list[ChunkRecord]:
    records: list[ChunkRecord] = []
    for _ in range(count):
        record, offset = ChunkRecord.read_from(payload, offset)
        records.append(record)
    return records


@dataclass
class RecipeIndex:
    """Sampled fingerprint → segment ordinal map for one recipe.

    "we extract several representative fingerprints for each segment as
    samples and map them to the offset of their segment recipe" (Sec III-B).
    """

    entries: dict[bytes, list[int]] = field(default_factory=dict)

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
    """Lazy per-segment access to one recipe stored on OSS.

    Loads only the header and segment offset table up front; each segment
    recipe costs one ranged GET, which is the "prefetch similar segment"
    operation of the dedup workflow (Section IV-A, step 2).
    """

    def __init__(
        self, oss: ObjectStorageService, bucket: str, object_key: str, path: str
    ) -> None:
        self._oss = oss
        self._bucket = bucket
        self._key = object_key
        self.path = path
        header = oss.get_range(bucket, object_key, 0, _RECIPE_HEADER.size)
        magic, self.version, self.total_bytes, self.segment_count = _RECIPE_HEADER.unpack(
            header
        )
        if magic != _MAGIC:
            raise RecipeError(f"bad recipe magic for {path}")
        tables_len = 8 * (self.segment_count + 1) + 4 * self.segment_count
        tables = oss.get_range(bucket, object_key, _RECIPE_HEADER.size, tables_len)
        self._offsets, self._counts, __ = _parse_tables(
            header + tables, self.segment_count
        )
        self._data_start = _RECIPE_HEADER.size + tables_len

    def get_segment(self, ordinal: int) -> list[ChunkRecord]:
        """Fetch one segment recipe (one ranged GET)."""
        return self.get_segment_range(ordinal, 1)[0]

    def get_segment_range(self, start: int, count: int) -> list[list[ChunkRecord]]:
        """Fetch ``count`` consecutive segment recipes with ONE ranged GET.

        Segment recipes are contiguous in the recipe object, so a prefetch
        span costs a single request — this is what keeps recipe prefetching
        off the critical path at 4 KB chunk sizes.
        """
        if not 0 <= start < self.segment_count:
            raise RecipeError(f"segment {start} out of range [0, {self.segment_count})")
        count = min(count, self.segment_count - start)
        if count < 1:
            raise RecipeError("segment range must cover at least one segment")
        begin = self._data_start + self._offsets[start]
        length = self._offsets[start + count] - self._offsets[start]
        payload = self._oss.get_range(self._bucket, self._key, begin, length)
        segments: list[list[ChunkRecord]] = []
        position = 0
        for ordinal in range(start, start + count):
            records: list[ChunkRecord] = []
            for _ in range(self._counts[ordinal]):
                record, position = ChunkRecord.read_from(payload, position)
                records.append(record)
            segments.append(records)
        return segments


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
    def put_recipe(self, recipe: Recipe) -> int:
        """Persist (or overwrite) a recipe; returns bytes uploaded."""
        payload = recipe.to_bytes()
        self._oss.put_object(
            self._bucket, self._recipe_key(recipe.path, recipe.version), payload
        )
        return len(payload)

    def get_recipe(self, path: str, version: int) -> Recipe:
        """Load a full recipe (one whole-object GET)."""
        try:
            payload = self._oss.get_object(self._bucket, self._recipe_key(path, version))
        except KeyError as exc:
            raise VersionNotFoundError(path, version) from exc
        return Recipe.from_bytes(path, payload)

    def open_recipe(self, path: str, version: int) -> RecipeHandle:
        """Open a recipe for lazy per-segment access."""
        key = self._recipe_key(path, version)
        if self._oss.peek_size(self._bucket, key) is None:
            raise VersionNotFoundError(path, version)
        return RecipeHandle(self._oss, self._bucket, key, path)

    def delete_recipe(self, path: str, version: int) -> bool:
        """Delete a recipe and its index with one batched DELETE; True if
        the recipe existed."""
        key = self._recipe_key(path, version)
        existed = self._oss.peek_size(self._bucket, key) is not None
        self._oss.delete_objects(self._bucket, [key, self._index_key(path, version)])
        return existed

    # --- recipe indexes ---------------------------------------------------------
    def put_recipe_index(self, path: str, version: int, index: RecipeIndex) -> int:
        """Persist a recipe index; returns bytes uploaded."""
        payload = index.to_bytes()
        self._oss.put_object(self._bucket, self._index_key(path, version), payload)
        return len(payload)

    def get_recipe_index(self, path: str, version: int) -> RecipeIndex:
        """Load a recipe index."""
        try:
            payload = self._oss.get_object(self._bucket, self._index_key(path, version))
        except KeyError as exc:
            raise VersionNotFoundError(path, version) from exc
        return RecipeIndex.from_bytes(payload)

    # --- accounting ----------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Bytes of all recipes and indexes currently stored (free)."""
        total = 0
        for prefix in ("recipes/", "recipeidx/"):
            for key in self._oss.peek_keys(self._bucket, prefix):
                total += self._oss.peek_size(self._bucket, key) or 0
        return total
