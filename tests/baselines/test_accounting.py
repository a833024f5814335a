"""Every baseline charges exactly the OSS time its backups spend, and
every SlimStore restore the OSS time it spends.

A comparator that leaves some of its requests out of ``breakdown`` looks
faster on the network than it is; Fig 7 and the exact-vs-fast ablation
would then compare lookup strategies on unequal terms.
"""

import numpy as np
import pytest

from repro import SlimStore
from repro.baselines import (
    DDFSSystem,
    ResticRepository,
    SiLOSystem,
    SparseIndexingSystem,
)
from repro.oss.object_store import ObjectStorageService
from tests.conftest import SMALL_CONFIG, make_version_chain

SYSTEMS = {
    # A two-container cache forces on-OSS index reads on later versions.
    "ddfs": lambda oss: DDFSSystem(oss, SMALL_CONFIG, cache_containers=2),
    "silo": lambda oss: SiLOSystem(oss, SMALL_CONFIG),
    "sparse_indexing": lambda oss: SparseIndexingSystem(oss, SMALL_CONFIG),
    "restic": lambda oss: ResticRepository(oss, chunk_avg=4096, pack_bytes=64 * 1024),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_breakdown_network_time_equals_the_endpoints(name, rng):
    oss = ObjectStorageService()
    system = SYSTEMS[name](oss)
    before = oss.stats.snapshot()
    upload = download = 0.0
    for data in make_version_chain(rng, versions=4, size=192 * 1024):
        breakdown = system.backup("db/accounts.tbl", data).breakdown
        upload += breakdown.upload
        download += breakdown.download
    spent = oss.stats.diff(before)
    assert spent.write_seconds > 0 and spent.read_seconds > 0
    assert upload == pytest.approx(spent.write_seconds, rel=1e-9)
    assert download == pytest.approx(spent.read_seconds, rel=1e-9)


@pytest.mark.parametrize("flush_index", [False, True], ids=["memtable", "sstables"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_restore_download_equals_the_endpoints_read_seconds(seed, flush_index):
    """Whole and ranged restores of the oldest, a middle and the latest
    version, after G-node passes moved chunks, charge to ``download``
    exactly the read seconds the endpoint accrued across the call.

    With the global index flushed, each redirect's lookup reads an
    SSTable from OSS, so a redirect meter that drops it fails too."""
    store = SlimStore(SMALL_CONFIG)
    chain = make_version_chain(np.random.default_rng(seed), versions=6)
    for data in chain:
        store.backup("db/accounts.tbl", data)
    if flush_index:
        store.storage.global_index.flush()
    redirects = 0
    for version in (0, len(chain) // 2, len(chain) - 1):
        for ranged in (True, False):
            before = store.oss.stats.snapshot()
            result = store.restore("db/accounts.tbl", version, ranged=ranged)
            spent = store.oss.stats.diff(before)
            assert result.data == chain[version]
            assert spent.read_seconds > 0
            assert result.breakdown.download == spent.read_seconds
            redirects += result.counters.get("global_index_redirects")
    # The G-node passes moved chunks, so restores resolve through the index.
    assert redirects > 0
