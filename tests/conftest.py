"""Shared fixtures and helpers for the unit and integration tests."""

from __future__ import annotations

import hashlib
import types

import numpy as np
import pytest

from repro.core.config import SlimStoreConfig
from repro.core.dedup import BackupEngine
from repro.kvstore import bloom
from repro.oss.object_store import ObjectStorageService
from repro.sim.clock import SimClock
from repro.sim.cost_model import CostModel

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis ships with the image
    settings = None

if settings is not None:
    # One deterministic profile for every property test: derandomized so
    # CI and local runs explore the identical example sequence, with the
    # deadline off (the simulated OSS makes some examples slow on cold
    # caches, which is load, not a bug).
    settings.register_profile(
        "repro-deterministic",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    settings.load_profile("repro-deterministic")


#: Small store geometry shared by the integration suites: containers and
#: superchunks sized so test payloads of a few hundred KB still exercise
#: merging, sparse compaction and reverse dedup.
SMALL_CONFIG = SlimStoreConfig(
    container_bytes=64 * 1024,
    segment_bytes=32 * 1024,
    min_superchunk_bytes=16 * 1024,
    max_superchunk_bytes=32 * 1024,
    merge_threshold=3,
)


@pytest.fixture
def oss() -> ObjectStorageService:
    """A fresh simulated OSS endpoint."""
    return ObjectStorageService(CostModel(), SimClock())


@pytest.fixture
def bloom_digests(monkeypatch) -> list[int]:
    """Grows by one entry per ``blake2b`` call ``repro.kvstore.bloom`` makes."""
    calls: list[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return hashlib.blake2b(*args, **kwargs)

    monkeypatch.setattr(bloom, "hashlib", types.SimpleNamespace(blake2b=counted))
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for deterministic test data."""
    return np.random.default_rng(12345)


def random_bytes(rng: np.random.Generator, size: int) -> bytes:
    """Uniformly random (incompressible) test payload."""
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def mutate(rng: np.random.Generator, data: bytes, runs: int, run_bytes: int) -> bytes:
    """Overwrite ``runs`` clustered ranges of ``data`` with fresh bytes."""
    out = bytearray(data)
    for _ in range(runs):
        run = min(run_bytes, len(out))
        start = int(rng.integers(0, max(1, len(out) - run)))
        out[start : start + run] = random_bytes(rng, run)
    return bytes(out)


def stable_versions(data: bytes, count: int) -> list[bytes]:
    """``count`` versions of ``data`` that differ only in one appended byte.

    Every chunk but the last repeats from version to version, so duplicate
    times advance and superchunks form, yet no version is byte-identical
    to its predecessor (which would commit as an alias, writing no recipe).
    """
    return [data + bytes([k % 256]) for k in range(count)]


def make_version_chain(
    rng: np.random.Generator,
    versions: int = 6,
    size: int = 256 * 1024,
    runs: int = 2,
    run_bytes: int = 8 * 1024,
) -> list[bytes]:
    """A seeded multi-version workload: a base file plus clustered edits.

    This is the canonical backup stream of the integration tests — enough
    shared data between versions for dedup, merging and reverse dedup to
    all trigger under :data:`SMALL_CONFIG` geometry.
    """
    chain = [random_bytes(rng, size)]
    for _ in range(versions - 1):
        chain.append(mutate(rng, chain[-1], runs=runs, run_bytes=run_bytes))
    return chain


class RegisteringEngine(BackupEngine):
    """A backup engine whose jobs enter the similar-file index, as
    ``SlimStore``'s commit record enters them: the tests that drive an
    engine directly need the index to find each path's last version."""

    def backup(self, path, data, *args, **kwargs):
        result = super().backup(path, data, *args, **kwargs)
        if result.alias_of is None:
            self.storage.similar_index.register(path, result.version, result.representatives)
        return result


def bucket_state(oss: ObjectStorageService) -> dict[str, dict[str, bytes]]:
    """Deep-copy every bucket's objects — the byte-level repository state.

    Two repositories are identical iff their bucket states are equal;
    the crash matrix forks runs from this snapshot, and the trace
    round-trip / differential-parity suites compare against it.
    """
    return {
        bucket: dict(oss._backend(bucket)._objects)
        for bucket in oss.bucket_names()
    }


def make_chaos_store(seed: int = 2026, config: SlimStoreConfig | None = None, **rates):
    """A SlimStore whose OSS injects faults, fronted by a retrying client."""
    from repro import FaultPolicy, RetryPolicy, SlimStore

    faults = FaultPolicy(seed=seed, **rates)
    oss = ObjectStorageService(faults=faults)
    store = SlimStore(
        config or SMALL_CONFIG,
        oss,
        retry_policy=RetryPolicy(
            seed=seed, base_delay=0.01, max_delay=0.2, backoff_budget_seconds=5.0
        ),
    )
    return store, faults


@pytest.fixture
def version_chain(rng) -> list[bytes]:
    """The default six-version seeded workload."""
    return make_version_chain(rng)


@pytest.fixture
def aged_store(rng):
    """A store with history: merging, compaction and reverse dedup ran."""
    from repro import SlimStore

    store = SlimStore(SMALL_CONFIG)
    payloads = make_version_chain(rng)
    for payload in payloads:
        store.backup("f", payload)
    return store, payloads
