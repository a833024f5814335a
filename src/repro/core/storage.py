"""The storage layer as one bundle.

Everything in this dataclass lives on OSS (Fig 1 of the paper): container
store, recipe store, similar-file index (persisted in the version catalog)
and the global index.  Compute nodes receive the bundle; they hold no
durable state of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.container import ContainerStore
from repro.core.durability import DurabilityManager, ReplicationPolicy
from repro.core.global_index import GlobalIndex
from repro.core.journal import IntentJournal
from repro.core.recipe import RecipeStore
from repro.core.similar_index import SimilarFileIndex
from repro.fingerprint.hashing import Fingerprinter, fingerprint, make_fingerprinter
from repro.oss.object_store import ObjectStorageService
from repro.oss.retry import RetryBudget, RetryingObjectStore, RetryPolicy


@dataclass
class StorageLayer:
    """The OSS-resident storage layer shared by every compute node."""

    oss: ObjectStorageService | RetryingObjectStore
    containers: ContainerStore
    recipes: RecipeStore
    similar_index: SimilarFileIndex
    global_index: GlobalIndex
    journal: IntentJournal
    #: The heat-aware replication/erasure tier (None when disabled).
    durability: DurabilityManager | None = None
    #: Chunk fingerprint function — one per repository, shared by every
    #: engine that hashes or verifies payloads (dedup, restore, scrub).
    fingerprinter: Fingerprinter = fingerprint

    @classmethod
    def create(
        cls,
        oss: ObjectStorageService,
        bucket: str = "slimstore",
        index_bucket: str = "slimstore-index",
        bloom_capacity: int = 1 << 20,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
        index_shard_count: int = 1,
        tombstone_grace_epochs: int = 0,
        durability_policy: ReplicationPolicy | None = None,
        fingerprint_algo: str = "sha1",
    ) -> "StorageLayer":
        """Create all stores on one OSS endpoint.

        With a ``retry_policy``, every component talks to OSS through a
        :class:`~repro.oss.retry.RetryingObjectStore`, so transient OSS
        failures are absorbed below the dedup/restore engines.  A shared
        ``retry_budget`` (typically one per fleet) additionally bounds
        the aggregate retry volume across repositories.  The intent
        journal shares the main bucket; the container store gets it for
        journaled in-place rewrites, plus the tombstone grace.
        """
        endpoint = (
            oss
            if retry_policy is None
            else RetryingObjectStore(oss, retry_policy, budget=retry_budget)
        )
        fingerprinter = make_fingerprinter(fingerprint_algo)
        journal = IntentJournal(endpoint, bucket)
        containers = ContainerStore(
            endpoint,
            bucket,
            journal=journal,
            grace_epochs=tombstone_grace_epochs,
        )
        durability = None
        if durability_policy is not None:
            durability = DurabilityManager(
                containers, durability_policy, fingerprinter=fingerprinter
            )
            containers.durability = durability
        return cls(
            oss=endpoint,
            containers=containers,
            recipes=RecipeStore(endpoint, bucket),
            similar_index=SimilarFileIndex(),
            global_index=GlobalIndex(
                endpoint,
                index_bucket,
                bloom_capacity=bloom_capacity,
                shard_count=index_shard_count,
            ),
            journal=journal,
            durability=durability,
            fingerprinter=fingerprinter,
        )
