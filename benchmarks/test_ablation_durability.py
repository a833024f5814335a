"""Ablation: the durability x space-overhead x restore-latency curve.

The heat-aware durability tier trades extra bytes (replicas, parity) for
the ability to restore through lost primaries.  This ablation backs up
one seeded version chain under four policy points —

* ``off``            — no tier (the seed's behaviour): zero overhead,
  zero survivability;
* ``erasure-all``    — every referenced container erasure-coded (hot
  threshold unreachably high): parity-only overhead;
* ``replicate-hot``  — the repo default shape: hot containers 3-way
  replicated, cold ones erasure-coded;
* ``replicate-all``  — every referenced container 3-way replicated:
  maximum overhead, cheapest degraded reads

— then, for each point, kills each of the three fault domains in turn
(every primary ``.data`` in the domain deleted at rest) and measures how
many versions still restore byte-identically, and at what virtual-time
cost relative to a healthy restore.

Asserts the acceptance criteria directly: every tiered point restores
*all* versions under *any* single-domain loss, the untiered baseline
does not, and overhead orders ``off < erasure-all < replicate-all``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import ReplicationPolicy, SlimStore, SlimStoreConfig
from repro.bench.reporting import format_table
from tests.conftest import make_version_chain

RESULTS_DIR = Path(__file__).parent / "results"

PATH = "db/table.bin"
VERSIONS = 5
DOMAINS = 3

BASE_CONFIG = SlimStoreConfig().with_overrides(
    container_bytes=64 * 1024,
    segment_bytes=32 * 1024,
    min_superchunk_bytes=8 * 1024,
    max_superchunk_bytes=32 * 1024,
)

#: name -> policy overrides (None disables the tier entirely).
POLICY_POINTS: list[tuple[str, dict | None]] = [
    ("off", None),
    ("erasure-all", dict(hot_refs=10**6, cold_refs=1)),
    ("replicate-hot", dict(hot_refs=3, cold_refs=1)),
    ("replicate-all", dict(hot_refs=1, cold_refs=1)),
]


def build_store(overrides: dict | None) -> tuple[SlimStore, list[bytes]]:
    config = BASE_CONFIG
    if overrides is not None:
        config = config.with_overrides(
            durability=ReplicationPolicy(
                replica_count=3,
                data_shards=4,
                parity_shards=2,
                fault_domains=DOMAINS,
                **overrides,
            )
        )
    store = SlimStore(config)
    rng = np.random.default_rng(20210414)
    chain = make_version_chain(rng, versions=VERSIONS)
    for payload in chain:
        store.backup(PATH, payload)
    if store.storage.durability is not None:
        # Measure steady state: age past the tombstone grace window so
        # copies and stripes retired by mid-chain promotions are reaped.
        for _ in range(store.storage.containers.grace_epochs + 1):
            store.storage.containers.advance_epoch()
        store.storage.durability.reap_retired()
    return store, chain


def snapshot_objects(store: SlimStore) -> dict[str, dict[str, bytes]]:
    return {
        bucket: dict(store.oss._backend(bucket)._objects)
        for bucket in store.oss.bucket_names()
    }


def restore_objects(store: SlimStore, state: dict[str, dict[str, bytes]]) -> None:
    for bucket, objects in state.items():
        store.oss._backend(bucket)._objects = dict(objects)


def timed_restore_sweep(store: SlimStore, chain: list[bytes]) -> tuple[int, float]:
    """(versions restored byte-identically, virtual seconds spent)."""
    survived = 0
    before = store.oss.clock.now
    for version, payload in enumerate(chain):
        try:
            if store.restore(PATH, version).data == payload:
                survived += 1
        except Exception:
            pass
    return survived, store.oss.clock.now - before


def kill_domain(store: SlimStore, domain: int) -> int:
    """Delete every primary container payload in one fault domain."""
    killed = 0
    for cid in sorted(store.storage.containers.container_ids()):
        if cid % DOMAINS == domain:
            store.oss.delete_object("slimstore", f"containers/{cid:012d}.data")
            killed += 1
    return killed


def test_ablation_durability(record):
    rows = []
    points = []
    overheads = {}
    for name, overrides in POLICY_POINTS:
        store, chain = build_store(overrides)
        space = store.space_report()
        overhead = space.durability_bytes / space.container_bytes
        overheads[name] = overhead

        healthy_ok, healthy_seconds = timed_restore_sweep(store, chain)
        assert healthy_ok == VERSIONS

        # Kill each domain in turn from the same aged state.
        base = snapshot_objects(store)
        worst_survived = VERSIONS
        degraded_seconds = 0.0
        for domain in range(DOMAINS):
            restore_objects(store, base)
            assert kill_domain(store, domain) > 0
            survived, seconds = timed_restore_sweep(store, chain)
            worst_survived = min(worst_survived, survived)
            degraded_seconds = max(degraded_seconds, seconds)
        restore_objects(store, base)

        durability = store.storage.durability
        classes = durability.classes() if durability is not None else {}
        histogram = {
            klass: sum(1 for k in classes.values() if k == klass)
            for klass in sorted(set(classes.values()))
        }
        slowdown = degraded_seconds / healthy_seconds if healthy_seconds else 0.0
        rows.append(
            [
                name,
                f"{overhead:.2f}x",
                f"{worst_survived}/{VERSIONS}",
                f"{healthy_seconds:.2f}s",
                f"{degraded_seconds:.2f}s",
                f"{slowdown:.2f}x",
            ]
        )
        points.append(
            {
                "policy": name,
                "overrides": overrides,
                "container_bytes": space.container_bytes,
                "durability_bytes": space.durability_bytes,
                "space_overhead": round(overhead, 4),
                "class_histogram": histogram,
                "versions_survive_any_single_domain_loss": worst_survived,
                "versions_total": VERSIONS,
                "healthy_restore_seconds": round(healthy_seconds, 4),
                "worst_degraded_restore_seconds": round(degraded_seconds, 4),
                "degraded_slowdown": round(slowdown, 4),
            }
        )

        if overrides is None:
            # The baseline really loses data to a domain outage.
            assert worst_survived < VERSIONS
            assert space.durability_bytes == 0
        else:
            # Every tiered point restores everything through any single
            # domain loss — the headline guarantee, at its real price.
            assert worst_survived == VERSIONS
            assert space.durability_bytes > 0

    # The curve is a real trade-off: parity is cheaper than replicas.
    assert 0 == overheads["off"] < overheads["erasure-all"]
    assert overheads["erasure-all"] < overheads["replicate-all"]

    record(
        "ablation_durability",
        format_table(
            "Ablation: durability policy x space overhead x restore latency",
            ["policy", "overhead", "survive", "healthy", "degraded", "slowdown"],
            rows,
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_durability.json").write_text(
        json.dumps(
            {
                "workload": {
                    "path": PATH,
                    "versions": VERSIONS,
                    "fault_domains": DOMAINS,
                    "container_bytes": BASE_CONFIG.container_bytes,
                },
                "points": points,
            },
            indent=2,
        )
        + "\n"
    )
