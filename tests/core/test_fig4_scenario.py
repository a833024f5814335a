"""The paper's Fig 4 worked example, as an executable test.

Fig 4 illustrates why the full-vision cache exists: a restore stream with
*large-span containers* (a container whose chunks are used far apart),
*self-reference chunks* (the same chunk appearing repeatedly), and *sparse
containers* (a container contributing a single chunk).  Under a small LRU
or LAW-limited cache these force repeated container reads; the FV cache
reads every container exactly once.

We rebuild the scenario literally: a chunk stream referencing eight
containers with the fragment patterns of the figure, then restore it
through the FV cache and through the baselines.
"""

import pytest

from repro.baselines.caches import LRUContainerRestorer
from repro.core.container import ContainerStore
from repro.core.recipe import ChunkRecord
from repro.core.restore_cache import FullVisionCache, LookAheadWindow
from repro.fingerprint.hashing import fingerprint

CHUNK = 512  # bytes per chunk in the toy scenario

#: Container layout: which chunks live where (a la Fig 4's C1..C8).
CONTAINERS = {
    1: ["A", "B", "C"],
    2: ["D", "E"],
    3: ["F", "G", "H"],
    4: ["J", "K"],
    5: ["L", "M"],
    6: ["P", "Q", "R"],
    7: ["S", "T"],
    8: ["U", "V", "W"],
}

#: The restore stream: A repeats (self-reference), P and Q are used far
#: apart while other containers churn between them (large span for C6),
#: D is C2's only useful chunk (sparse), H and C reappear beyond any
#: plausible look-ahead window.
STREAM = [
    "A", "B", "D", "F", "G", "P", "U", "V", "J", "K",
    "L", "M", "S", "T", "Q", "A", "R", "E", "H", "C", "W",
]


def chunk_data(name: str) -> bytes:
    return name.encode() * CHUNK


@pytest.fixture
def scenario(oss):
    """Containers on OSS plus the stream's chunk records."""
    store = ContainerStore(oss, "fig4")
    locations: dict[str, int] = {}
    for cid, names in CONTAINERS.items():
        builder = store.new_builder(1 << 20)
        for name in names:
            builder.add_chunk(fingerprint(chunk_data(name)), chunk_data(name))
            locations[name] = builder.container_id
        store.write(builder)
    records = [
        ChunkRecord(
            fp=fingerprint(chunk_data(name)),
            container_id=locations[name],
            size=len(chunk_data(name)),
        )
        for name in STREAM
    ]
    expected = b"".join(chunk_data(name) for name in STREAM)
    return store, records, expected, sorted(set(locations.values()))


def restore_with_fv(store, records, memory_bytes: int, window: int = 4):
    """Drive the FV cache over the stream, counting container reads."""
    law = LookAheadWindow(records, window)
    cache = FullVisionCache(memory_bytes, 1 << 20, law)
    reads = []
    output = bytearray()
    for index, record in enumerate(records):
        data = cache.lookup(record.fp)
        if data is None:
            meta = store.read_meta(record.container_id)
            payload = store.read_data(record.container_id)
            reads.append(record.container_id)
            cache.insert_container(meta, payload)
            data = cache.lookup(record.fp)
        output += data
        cache.consume(record.fp)
        law.advance_past(index)
    return bytes(output), reads


class TestFig4:
    def test_fv_reads_each_container_exactly_once(self, scenario):
        store, records, expected, live_cids = scenario
        output, reads = restore_with_fv(store, records, memory_bytes=64 * 1024)
        assert output == expected
        assert sorted(reads) == live_cids  # all 8, each once

    def test_fv_survives_fragments_beyond_law(self, scenario):
        """Chunks H and C reappear long after a 4-record LAW expired —
        the remaining-reference counts (full vision) keep them anyway."""
        store, records, expected, _ = scenario
        output, reads = restore_with_fv(
            store, records, memory_bytes=64 * 1024, window=2
        )
        assert output == expected
        assert len(reads) == len(CONTAINERS)

    def test_fv_tight_memory_uses_disk_layer_not_rereads(self, scenario):
        store, records, expected, _ = scenario
        # Memory holds ~4 chunks; the disk layer absorbs the rest.
        output, reads = restore_with_fv(store, records, memory_bytes=4 * CHUNK + 64)
        assert output == expected
        assert len(reads) == len(CONTAINERS)

    def test_lru_rereads_fig4_fragments(self, scenario):
        """The motivating failure: a 3-container LRU cache re-reads the
        large-span container C6 (P...Q) and the self-reference C1 (A...A)."""
        store, records, expected, _ = scenario
        result = LRUContainerRestorer(store, cache_containers=3).restore(records)
        assert result.data == expected
        assert result.containers_read > len(CONTAINERS)

    def test_every_chunk_status_transition(self, scenario):
        """A appears twice: in-window initially, 'later' after the first
        use, useless after the second."""
        store, records, _, __ = scenario
        law = LookAheadWindow(records, 4)
        cache = FullVisionCache(1 << 20, 1 << 20, law)
        fp_a = fingerprint(chunk_data("A"))
        assert cache.status_of(fp_a) == "S_I"      # stream position 0
        cache.consume(fp_a)
        law.advance_past(0)
        assert cache.status_of(fp_a) == "S_L"      # reappears at 15
        for index in range(1, 16):
            law.advance_past(index)
        cache.consume(fp_a)
        assert cache.status_of(fp_a) == "S_U"      # fully consumed
