"""Every baseline charges exactly the OSS time its backups spend.

A comparator that leaves some of its requests out of ``breakdown`` looks
faster on the network than it is; Fig 7 and the exact-vs-fast ablation
would then compare lookup strategies on unequal terms.
"""

import pytest

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
