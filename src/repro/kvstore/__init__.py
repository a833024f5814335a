"""Rocks-OSS: a from-scratch LSM-tree key-value store on OSS.

The paper stores its global fingerprint index in "Rocks-OSS, a RocksDB that
is adapted to suit the OSS".  This package implements the same architecture
from first principles: an in-memory memtable with a write-ahead log,
immutable SSTables (Bloom filter + sparse index + data blocks) persisted as
OSS objects, and size-tiered compaction.  Bloom filters and index blocks
stay cached in node memory; only data-block reads touch OSS, matching how
RocksDB's block cache behaves in front of slow storage.
"""

from repro.kvstore.bloom import BloomFilter
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memtable import MemTable
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import WriteAheadLog

__all__ = [
    "BloomFilter",
    "MemTable",
    "SSTable",
    "WriteAheadLog",
    "LSMStore",
]
