"""Acceptance for the durability tier: any single fault domain can go
dark — and stored bits can rot — without losing a byte of any version.

Three layers of proof:

* **Outage failover** — with a 3-domain layout and no live singletons,
  every version restores byte-identically while any one domain's GETs
  fail, the reads falling over to replicas or erasure decode;
* **Bit-rot healing** — seeded at-rest bit flips in primary payloads are
  healed from the durability tier by restore and by ``scrub --repair``
  with *zero* quarantined chunks;
* **Crash matrix** — a backup whose maintenance pass tiers new
  containers, a demoting pass (delete, retier, deep_clean) and an
  in-place payload repair of a replicated container are each killed at
  every OSS write; recovery always lands on atomic class visibility with
  no orphaned replica bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.durability import CLASS_REPLICATED, CLASS_SINGLE, ReplicationPolicy
from repro.core.system import SlimStore
from repro.oss.faults import FaultPolicy
from tests.conftest import SMALL_CONFIG, make_version_chain, random_bytes
from tests.integration.test_crash_matrix import (
    assert_zero_debris,
    attach,
    clone_state,
    run_matrix,
)

#: 3 domains, no live singletons: one reference is enough for erasure,
#: three for replication, so every referenced container survives any
#: single-domain outage.
DURABLE_CONFIG = replace(
    SMALL_CONFIG,
    durability=ReplicationPolicy(
        replica_count=3,
        hot_refs=3,
        cold_refs=1,
        data_shards=4,
        parity_shards=2,
        fault_domains=3,
    ),
)


def aged_durable_store(seed: int = 20260808, versions: int = 4):
    rng = np.random.default_rng(seed)
    store = SlimStore(DURABLE_CONFIG)
    chain = make_version_chain(rng, versions=versions)
    for payload in chain:
        store.backup("f", payload)
    return store, chain


def flip_primary_byte(store: SlimStore, cid: int) -> None:
    """Rot one mid-payload bit of a container's primary, at rest."""
    key = f"containers/{cid:012d}.data"
    payload = bytearray(store.oss.get_object("slimstore", key))
    payload[len(payload) // 2] ^= 0x01
    store.oss.put_object("slimstore", key, bytes(payload))


class TestSingleDomainOutage:
    @pytest.mark.parametrize("domain", [0, 1, 2])
    def test_every_version_restores_through_any_domain_outage(self, domain):
        store, chain = aged_durable_store()
        durability = store.storage.durability
        classes = durability.classes()
        live = set(store.storage.containers.container_ids())
        # Precondition of the guarantee: no live container is single-copy.
        assert all(classes.get(cid) != CLASS_SINGLE for cid in live)
        assert any(cid % 3 == domain for cid in live)

        # Rot a byte in one *replicated* primary outside the dark domain
        # too, so the run exercises both failover (outage) and healing
        # (bit rot).  Replication tolerates the two combined losses; an
        # erasure stripe is only contracted to survive the outage alone.
        rotted = next(
            (
                cid
                for cid in sorted(live)
                if cid % 3 != domain and classes.get(cid) == CLASS_REPLICATED
            ),
            None,
        )
        if rotted is not None:
            flip_primary_byte(store, rotted)

        faults = FaultPolicy(fault_domains=3)
        store.oss.set_fault_policy(faults)
        faults.outage({"get", "head"}, domain=domain)
        for version, payload in enumerate(chain):
            assert store.restore("f", version).data == payload
        assert durability.replica_failovers + durability.erasure_decodes > 0

        # After the domain comes back, a repairing scrub quarantines
        # nothing: the rotted chunk heals from the durability tier.
        faults.revive(domain=domain)
        report = store.scrub(repair=True)
        assert not report.quarantined_chunks
        assert report.clean or report.fully_repaired


def rot_within_fault_model(store: SlimStore, dark_domain: int | None = None) -> list[int]:
    """Flip a bit in as many primaries as the tier is contracted to
    survive: every replicated container, but per erasure stripe only as
    many members as parity can absorb — counting, when ``dark_domain``
    will also go dark, the shards that outage already takes."""
    durability = store.storage.durability
    policy = durability.policy
    spent: dict[int, int] = {}
    rotted = []

    def stripe_budget(sid: int) -> int:
        stripe = durability._stripes[sid]
        dark = 0
        if dark_domain is not None:
            dark += sum(
                1
                for member in stripe["members"]
                if policy.primary_domain(int(member["cid"])) == dark_domain
            )
            dark += sum(1 for p in stripe["parity"] if p["domain"] == dark_domain)
        return policy.parity_shards - dark

    for cid in sorted(store.storage.containers.container_ids()):
        record = durability.record_for(cid)
        if record is None:
            continue
        if record["class"] == CLASS_REPLICATED:
            rotted.append(cid)
        elif record.get("stripe") is not None:
            if dark_domain is not None and policy.primary_domain(cid) == dark_domain:
                continue  # the outage already takes this shard; rot adds nothing
            sid = int(record["stripe"])
            if spent.get(sid, 0) < stripe_budget(sid):
                spent[sid] = spent.get(sid, 0) + 1
                rotted.append(cid)
    for cid in rotted:
        flip_primary_byte(store, cid)
    return rotted


class TestBitRotHealing:
    def test_restore_heals_rotted_chunks_and_charges_for_it(self):
        store, chain = aged_durable_store(seed=555)
        assert rot_within_fault_model(store)
        before = store.oss.clock.now
        for version, payload in enumerate(chain):
            result = store.restore("f", version)
            assert result.data == payload
        # The mismatched chunks were re-fetched from the tier, and the
        # degraded reads were charged to the virtual cost model.
        assert result.degraded_chunk_reads > 0
        assert store.oss.clock.now > before

    def test_each_rotted_chunk_heals_once_per_restore(self):
        """A healed chunk replaces its corrupt cached copy, so the later
        references to a repeated block splice the good bytes instead of
        failing verify and healing again."""
        block = random_bytes(np.random.default_rng(7), 64 * 1024)
        data = block * 3
        store = SlimStore(DURABLE_CONFIG)
        store.backup("f", data)
        records = store.storage.recipes.get_recipe("f", 0).all_records()
        assert len(records) > len({record.fp for record in records})
        rotted = set()
        for cid in store.storage.containers.container_ids():
            middle = len(store.storage.containers.read_data(cid)) // 2
            meta = store.storage.containers.read_meta(cid)
            rotted.update(
                entry.fp
                for entry in meta.live_entries()
                if entry.offset <= middle < entry.offset + entry.size
            )
            flip_primary_byte(store, cid)
        assert rotted
        result = store.restore("f", 0)
        assert result.data == data
        assert result.degraded_chunk_reads == len(rotted)

    def test_repairing_scrub_quarantines_nothing(self):
        store, chain = aged_durable_store(seed=556)
        assert rot_within_fault_model(store)
        report = store.scrub(repair=True)
        assert report.corrupt_chunks  # the rot was really there
        assert not report.quarantined_chunks
        assert report.fully_repaired
        # Healing rewrote the containers; everything restores clean.
        for version, payload in enumerate(chain):
            assert store.restore("f", version).data == payload
        assert store.scrub().clean


#: The two seeded chaos profiles the CI chaos-durability job sweeps:
#: a flaky network (transient errors + torn writes + latency spikes) and
#: a quieter schedule that leans on the domain outage + bit rot instead.
CHAOS_PROFILES = [
    (
        "flaky-net",
        dict(
            seed=2026,
            get_error_rate=0.05,
            put_error_rate=0.05,
            torn_write_rate=0.03,
            latency_spike_rate=0.02,
            latency_spike_seconds=0.1,
        ),
    ),
    ("calm-then-dark", dict(seed=2027, get_error_rate=0.02, put_error_rate=0.02)),
]


class TestSeededChaosDurability:
    @pytest.mark.parametrize("name,rates", CHAOS_PROFILES, ids=[n for n, _ in CHAOS_PROFILES])
    def test_chaos_backup_outage_rot_restore_scrub(self, name, rates):
        """Full cycle under a seeded chaos profile: back up through the
        fault schedule, rot primaries within the fault model, darken a
        domain — every version restores and scrub quarantines nothing."""
        from tests.conftest import make_chaos_store

        store, faults = make_chaos_store(config=DURABLE_CONFIG, fault_domains=3, **rates)
        rng = np.random.default_rng(rates["seed"])
        chain = make_version_chain(rng, versions=4)
        for payload in chain:
            store.backup("f", payload)
        # Rot at rest with the fault schedule lifted (the rot helper is
        # test machinery, not a client that should absorb faults).
        store.oss.set_fault_policy(None)
        assert rot_within_fault_model(store, dark_domain=1)
        store.oss.set_fault_policy(faults)
        faults.outage({"get", "head"}, domain=1)
        for version, payload in enumerate(chain):
            assert store.restore("f", version).data == payload
        durability = store.storage.durability
        assert durability.replica_failovers + durability.erasure_decodes > 0
        faults.revive(domain=1)
        report = store.scrub(repair=True)
        assert not report.quarantined_chunks
        assert report.clean or report.fully_repaired


def assert_tier_consistent(survivor: SlimStore, crash_at: int) -> None:
    """Recovery left no debris, and the tier kept atomic class visibility:
    never a divergent copy, and no replica/parity byte outlives its
    references."""
    assert_zero_debris(survivor)
    durability = survivor.storage.durability
    audit = durability.audit(survivor.catalog.refcounts())
    assert not audit.divergent_copies, crash_at
    assert durability.collect_orphans() == [], crash_at


@pytest.mark.slow
class TestDurabilityCrashMatrix:
    """Kill the node at every write of a tier-churning backup."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(9173)
        store = attach(config=DURABLE_CONFIG)
        chain = make_version_chain(
            rng, versions=3, size=96 * 1024, runs=3, run_bytes=4 * 1024
        )
        for payload in chain[:2]:
            store.backup("f", payload)
        # The third backup's maintenance pass stripes its new containers
        # (no container reaches hot_refs here; the promoting pass is
        # ``test_matrix_over_promoting_pass``).
        return clone_state(store.oss), chain

    def test_matrix_over_promoting_backup(self, base):
        state, chain = base

        def action(store: SlimStore) -> None:
            store.backup("f", chain[2])

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in ([0, 1], [0, 1, 2]), crash_at
            for version in versions:
                assert survivor.restore("f", version).data == chain[version]
            assert_tier_consistent(survivor, crash_at)

        total = run_matrix(state, action, verify, config=DURABLE_CONFIG)
        assert total > 0

    @pytest.fixture(scope="class")
    def hot_base(self):
        rng = np.random.default_rng(4242)
        store = attach(config=DURABLE_CONFIG)
        chain = make_version_chain(rng, versions=4)
        for payload in chain:
            store.backup("f", payload)
        # The shared containers are replicated, the rest striped.
        return clone_state(store.oss), chain

    def test_matrix_over_promoting_pass(self):
        """The third backup of this chain pushes four shared containers to
        hot_refs: its pass PUTs their copies and retires their stripes."""
        chain = make_version_chain(np.random.default_rng(4242), versions=3)
        store = attach(config=DURABLE_CONFIG)
        for payload in chain[:2]:
            store.backup("f", payload)
        state = clone_state(store.oss)

        def action(store: SlimStore) -> None:
            report = store.backup("f", chain[2])
            assert report.retier.copies_written

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in ([0, 1], [0, 1, 2]), crash_at
            for version in versions:
                assert survivor.restore("f", version).data == chain[version]
            assert_tier_consistent(survivor, crash_at)

        total = run_matrix(state, action, verify, config=DURABLE_CONFIG)
        assert total > 0

    def test_matrix_over_demoting_pass(self, hot_base):
        """Deleting the oldest version cools two replicated containers:
        the pass retires their copies into new stripes, and deep_clean
        reaps the retired keys (the grace window is zero epochs)."""
        state, chain = hot_base

        def action(store: SlimStore) -> None:
            store.delete_version("f", 0)
            report = store.gnode.retier(store.catalog.refcounts())
            assert report.transitions
            store.gnode.deep_clean()

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in ([0, 1, 2, 3], [1, 2, 3]), crash_at
            for version in versions:
                assert survivor.restore("f", version).data == chain[version]
            assert_tier_consistent(survivor, crash_at)

        total = run_matrix(state, action, verify, config=DURABLE_CONFIG)
        assert total > 0

    def test_matrix_over_replace_data(self, hot_base):
        """An in-place repair that changes a replicated container's payload
        overwrites its copies in place too: whatever write the node dies
        at, the primary and every copy end up with the record's SHA."""
        state, _ = hot_base
        probe = attach(state, config=DURABLE_CONFIG)
        cid = min(
            cid
            for cid, cls in probe.storage.durability.classes().items()
            if cls == CLASS_REPLICATED
        )
        key = f"containers/{cid:012d}.data"

        def action(store: SlimStore) -> None:
            containers = store.storage.containers
            payload = bytearray(containers.read_data(cid))
            payload[len(payload) // 2] ^= 0x01
            containers.replace_data(cid, bytes(payload), containers.read_meta(cid))

        def verify(survivor: SlimStore, crash_at: int) -> None:
            record = survivor.storage.durability.record_for(cid)
            objects = [key] + [copy["key"] for copy in record["copies"]]
            assert len(objects) == 3
            for name in objects:
                payload = survivor.oss.get_object("slimstore", name)
                assert hashlib.sha1(payload).hexdigest() == record["sha"], (crash_at, name)
            assert_tier_consistent(survivor, crash_at)

        total = run_matrix(state, action, verify, config=DURABLE_CONFIG)
        assert total > 0

    def test_matrix_attach_uses_durable_config(self, base):
        """The matrix's attach() must resolve the durability tier, or the
        verify above would be vacuous."""
        state, _ = base
        survivor = attach(state, config=DURABLE_CONFIG)
        assert survivor.storage.durability is not None
        assert survivor.storage.durability.classes()
