"""The three benchmark workloads and the seeded dataset builder.

Why these three (see README.md for the long form):

* ``sdb_serial`` — the paper's S-DB on the default serial path; the gear
  scan owns ingest, and the browse working set exceeds the block cache.
* ``srctree_smallfiles`` — the same API driven by thousands of ~4 KiB
  calls, where catalog/similar-index persistence owns the time and the
  whole dataset fits the block cache.
* ``vmfleet_par`` — the only workload on ``repro.exec`` (``workers=2``):
  slab-tiled scan, pooled fingerprints, async flush, reverse dedup over
  fleet-wide duplicates.

The generators keep their own fixed seeds, so the *structure* of a dataset
(file sizes, which pages change, renames, branch copies) is the same on
every run.  ``--seed`` picks a byte substitution applied to every file: a
permutation of the values 1..255 (0 stays 0, so sparse zero blocks stay
sparse).  A substitution keeps every length and every duplicate relation
between regions, while changing every gear hash, chunk boundary and
fingerprint — so seeds vary the bytes without varying the amount of work.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from repro import SlimStoreConfig
from repro.workloads import (
    SDBConfig,
    SDBGenerator,
    SrcTreeConfig,
    SrcTreeGenerator,
    VMFleetConfig,
    VMFleetGenerator,
    WorkloadGenerator,
)

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    generator: type
    generator_config: object
    #: Generator shape of the warm-up cycle and of the ``--smoke`` scale.
    smoke_config: object
    #: 4 KiB reads per browse session, sized so a cold session lasts ~1 s.
    browse_reads: int
    #: Rounds per run.  The serial workloads repeat within 2% from round to
    #: round; ingest on two worker threads of a 2-core host does not
    #: (2.2-3.6 s for the same round), and needs more rounds for its minimum.
    rounds: int = 3
    workers: int = 0
    #: ``SlimStoreConfig`` fields that differ from the defaults, with the reason.
    overrides: tuple = ()

    def store_config(self) -> SlimStoreConfig:
        workers = min(self.workers, os.cpu_count() or 1)
        return SlimStoreConfig(workers=workers, **dict(self.overrides))

    def make_generator(self, smoke: bool) -> WorkloadGenerator:
        return self.generator(self.smoke_config if smoke else self.generator_config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sdb_serial",
            SDBGenerator,
            SDBConfig(table_count=10, initial_table_bytes=2 * MIB, version_count=4),
            SDBConfig(table_count=2, initial_table_bytes=2 * MIB, version_count=2),
            browse_reads=3000,
        ),
        Workload(
            "srctree_smallfiles",
            SrcTreeGenerator,
            SrcTreeConfig(file_count=650, version_count=3),
            SrcTreeConfig(file_count=200, version_count=2),
            browse_reads=12000,
        ),
        Workload(
            "vmfleet_par",
            VMFleetGenerator,
            VMFleetConfig(image_count=4, image_bytes=8 * MIB, version_count=4),
            VMFleetConfig(image_count=1, image_bytes=8 * MIB, version_count=2),
            browse_reads=600,
            rounds=5,
            workers=2,
            # At the default 256 KiB probe a cloned image finds its golden
            # sibling only if one of ~55 header chunks lands in the 1-in-32
            # fingerprint sample: 0 to 3 of the 3 clones do, depending on the
            # seed, which moves backup_oss_bytes_per_byte from 2.6 to 3.8.
            # A 2 MiB probe puts every seed on the same (detected) path.
            overrides=(("header_probe_bytes", 2 * MIB),),
        ),
    )
}


@dataclass
class Dataset:
    """Every version's files, with the SHA-256 each restore must match."""

    #: versions[v] = list of (path, data), in backup order.
    versions: list[list[tuple[str, bytes]]]
    sha256: dict[tuple[int, str], bytes]
    cross_version_dup: float

    @property
    def logical_bytes(self) -> int:
        return sum(len(data) for files in self.versions for _, data in files)

    def version_bytes(self, version: int) -> int:
        return sum(len(data) for _, data in self.versions[version])


def byte_substitution(seed: int) -> bytes:
    """The seed's 256-entry translation table (0 fixed, 1..255 permuted)."""
    shuffled = 1 + np.random.default_rng(seed).permutation(255)
    return bytes(np.concatenate(([0], shuffled)).astype(np.uint8))


def build_dataset(generator: WorkloadGenerator, seed: int) -> Dataset:
    table = byte_substitution(seed)
    versions = []
    digests = {}
    for version in generator.versions():
        files = []
        for item in version.files:
            data = item.data.translate(table)
            files.append((item.path, data))
            digests[(version.version, item.path)] = hashlib.sha256(data).digest()
        versions.append(files)
    summary = generator.summary()
    return Dataset(versions, digests, summary.cross_version_duplication or 0.0)
