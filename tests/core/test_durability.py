"""Unit tests for the heat-aware replication/erasure durability tier."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import SlimStore
from repro.core.durability import (
    CLASS_DELETED,
    CLASS_ERASURE,
    CLASS_REPLICATED,
    CLASS_SINGLE,
    ReplicationPolicy,
)
from tests.conftest import SMALL_CONFIG, make_version_chain, random_bytes

#: Small geometry with the tier on: 3 domains, replicate at 3 refs,
#: erasure-code at 2, singletons stay single.
DURABLE_CONFIG = replace(
    SMALL_CONFIG,
    durability=ReplicationPolicy(
        replica_count=3,
        hot_refs=3,
        cold_refs=2,
        data_shards=4,
        parity_shards=2,
        fault_domains=3,
    ),
)


def durable_store(config=DURABLE_CONFIG) -> SlimStore:
    store = SlimStore(config)
    assert store.storage.durability is not None
    return store


class TestReplicationPolicy:
    def test_classify_thresholds(self):
        policy = ReplicationPolicy(hot_refs=3, cold_refs=2)
        assert policy.classify(0) == CLASS_SINGLE
        assert policy.classify(1) == CLASS_SINGLE
        assert policy.classify(2) == CLASS_ERASURE
        assert policy.classify(3) == CLASS_REPLICATED
        assert policy.classify(10) == CLASS_REPLICATED

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(fault_domains=1)
        with pytest.raises(ValueError):
            ReplicationPolicy(cold_refs=4, hot_refs=3)
        with pytest.raises(ValueError):
            ReplicationPolicy(replica_count=4, fault_domains=3)
        with pytest.raises(ValueError):
            ReplicationPolicy(replica_count=1)
        with pytest.raises(ValueError):
            ReplicationPolicy(data_shards=0)
        with pytest.raises(ValueError):
            # k + m > domains * m: a single-domain outage could take out
            # more than m shards of one stripe.
            ReplicationPolicy(data_shards=7, parity_shards=2, fault_domains=3)

    def test_roundtrip_dict(self):
        policy = ReplicationPolicy(replica_count=2, hot_refs=5, cold_refs=2)
        assert ReplicationPolicy.from_dict(policy.to_dict()) == policy

    def test_primary_domain_layout(self):
        policy = ReplicationPolicy(fault_domains=3)
        assert [policy.primary_domain(cid) for cid in range(6)] == [0, 1, 2, 0, 1, 2]


class TestRetier:
    def test_backup_retier_assigns_classes(self, rng):
        store = durable_store()
        chain = make_version_chain(rng, versions=4)
        report = None
        for payload in chain:
            report = store.backup("f", payload)
        assert report.retier is not None
        durability = store.storage.durability
        classes = durability.classes()
        live = set(store.storage.containers.container_ids())
        # Every live container is tiered, and the shared base containers
        # (referenced by all four versions) are replicated.
        assert set(classes) == live
        refcounts = store.catalog.refcounts()
        policy = durability.policy
        for cid, klass in classes.items():
            assert klass == policy.classify(refcounts.get(cid, 0))

    def test_replicas_on_distinct_domains(self, rng):
        store = durable_store()
        chain = make_version_chain(rng, versions=4)
        for payload in chain:
            store.backup("f", payload)
        durability = store.storage.durability
        for cid, klass in durability.classes().items():
            if klass != CLASS_REPLICATED:
                continue
            record = durability.record_for(cid)
            domains = [copy["domain"] for copy in record["copies"]]
            primary = durability.policy.primary_domain(cid)
            assert primary not in domains
            assert len(set(domains)) == len(domains)
            assert len(domains) == durability.policy.replica_count - 1

    def test_stripe_never_overloads_a_domain(self, rng):
        store = durable_store()
        chain = make_version_chain(rng, versions=3)
        for payload in chain:
            store.backup("f", payload)
        durability = store.storage.durability
        policy = durability.policy
        for stripe in durability._stripes.values():
            if not stripe["members"]:
                continue
            counts = [0] * policy.fault_domains
            for member in stripe["members"]:
                counts[policy.primary_domain(int(member["cid"]))] += 1
            for parity in stripe["parity"]:
                counts[parity["domain"]] += 1
            assert max(counts) <= policy.parity_shards, stripe

    def test_demotion_retires_copies_and_reap_reclaims(self, rng):
        config = replace(DURABLE_CONFIG, tombstone_grace_epochs=1)
        store = durable_store(config)
        chain = make_version_chain(rng, versions=5)
        for payload in chain:
            store.backup("f", payload)
        durability = store.storage.durability
        replicated = [
            cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
        ]
        assert replicated
        # Deleting old versions cools the shared containers back down.
        for version in store.versions("f")[:-1]:
            store.delete_version("f", version)
        report = store.gnode.retier(store.catalog.refcounts())
        demoted = [t for t in report.transitions if t[1] == CLASS_REPLICATED]
        assert demoted
        # The superseded copies sit in the grace window, then reap.
        retired = [
            entry["key"]
            for record in durability._records.values()
            for entry in record.get("retired", [])
        ]
        assert retired
        store.gnode.deep_clean()  # reaps what expired, then advances epoch
        # After enough epochs everything retired is physically gone.
        for _ in range(3):
            store.storage.containers.advance_epoch()
            durability.reap_retired()
        assert not any(
            record.get("retired") for record in durability._records.values()
        )

    def test_a_retired_stripe_is_retired_once(self, rng):
        """A stripe whose members and parity are retired only waits out its
        grace window: a pass over unchanged refcounts re-PUTs no manifest,
        counts no retirement and sends no request at all."""
        store = durable_store()
        for payload in make_version_chain(rng, versions=4):
            store.backup("f", payload)
        store.delete_version("f", 0)
        store.delete_version("f", 1)
        store.gnode.retier(store.catalog.refcounts())
        durability = store.storage.durability
        assert any(
            not stripe["members"] and not stripe["parity"] and stripe["retired"]
            for stripe in durability._stripes.values()
        )
        before = store.oss.stats.snapshot()
        report = store.gnode.retier(store.catalog.refcounts())
        sent = store.oss.stats.diff(before)
        assert (sent.put_requests, sent.get_requests, sent.delete_requests) == (0, 0, 0)
        assert sent.list_requests == 0
        assert report.stripes_retired == 0 and not report.changed

    def test_repromotion_inside_grace_keeps_live_copies(self, rng):
        """A container demoted and promoted again before its retired copies
        expire writes those copy keys again: the reap must leave them."""
        store = durable_store(replace(DURABLE_CONFIG, tombstone_grace_epochs=1))
        for payload in make_version_chain(rng, versions=4):
            store.backup("f", payload)
        durability = store.storage.durability
        hot = store.catalog.refcounts()
        replicated = sorted(
            cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
        )
        assert replicated
        durability.retier({cid: 0 for cid in hot})
        assert all(durability.classes()[cid] == CLASS_SINGLE for cid in replicated)
        durability.retier(hot)
        assert all(durability.classes()[cid] == CLASS_REPLICATED for cid in replicated)
        containers = store.storage.containers
        for _ in range(3):
            containers.advance_epoch()
            durability.reap_retired()
        bucket = containers._bucket
        for cid in replicated:
            for copy in durability.record_for(cid)["copies"]:
                assert store.oss.peek_size(bucket, copy["key"]) is not None, copy
        assert not durability.audit(hot).divergent_copies

    def test_audit_clean_after_retier(self, rng):
        store = durable_store()
        for payload in make_version_chain(rng, versions=4):
            store.backup("f", payload)
        audit = store.storage.durability.audit(store.catalog.refcounts())
        assert audit.consistent
        assert not audit.class_mismatches
        assert not audit.untiered


class TestFailover:
    def _aged(self, rng):
        store = durable_store()
        chain = make_version_chain(rng, versions=4)
        for payload in chain:
            store.backup("f", payload)
        return store, chain

    def test_verified_payload_from_replica(self, rng):
        store, _ = self._aged(rng)
        durability = store.storage.durability
        containers = store.storage.containers
        replicated = [
            cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
        ]
        assert replicated
        cid = replicated[0]
        original = containers.read_data(cid)
        # Delete the primary: the read path must fail over to a replica.
        store.oss.delete_object(containers._bucket, f"containers/{cid:012d}.data")
        assert containers.primary_missing(cid)
        before = durability.replica_failovers
        assert containers.read_data(cid) == original
        assert durability.replica_failovers > before

    def test_verified_payload_from_erasure_decode(self, rng):
        store, _ = self._aged(rng)
        durability = store.storage.durability
        containers = store.storage.containers
        erasure = [
            cid for cid, k in durability.classes().items() if k == CLASS_ERASURE
        ]
        assert erasure
        cid = erasure[0]
        original = containers.read_data(cid)
        store.oss.delete_object(containers._bucket, f"containers/{cid:012d}.data")
        before = durability.erasure_decodes
        assert containers.read_data(cid) == original
        assert durability.erasure_decodes > before

    def test_restore_survives_lost_primary(self, rng):
        store, chain = self._aged(rng)
        durability = store.storage.durability
        containers = store.storage.containers
        tiered = [
            cid for cid, k in durability.classes().items() if k != CLASS_SINGLE
        ]
        assert tiered
        for cid in tiered:
            store.oss.delete_object(containers._bucket, f"containers/{cid:012d}.data")
        for version, payload in enumerate(chain):
            assert store.restore("f", version).data == payload

    def test_read_spans_fail_over(self, rng):
        store, _ = self._aged(rng)
        durability = store.storage.durability
        containers = store.storage.containers
        tiered = [
            cid for cid, k in durability.classes().items() if k != CLASS_SINGLE
        ]
        cid = tiered[0]
        whole = containers.read_data(cid)
        store.oss.delete_object(containers._bucket, f"containers/{cid:012d}.data")
        spans = [(0, 100), (len(whole) - 50, 50)]
        fetched = containers.read_spans(cid, spans)
        assert [data for _, data in fetched] == [whole[0:100], whole[-50:]]

    def test_singleton_loss_still_fails(self, rng):
        """A single-class container has no extra copies: losing its
        primary is real data loss, and the read path must say so."""
        from repro.errors import ObjectNotFoundError

        store = durable_store()
        store.backup("f", random_bytes(rng, 64 * 1024))
        durability = store.storage.durability
        containers = store.storage.containers
        singles = [
            cid for cid, k in durability.classes().items() if k == CLASS_SINGLE
        ]
        assert singles
        cid = singles[0]
        store.oss.delete_object(containers._bucket, f"containers/{cid:012d}.data")
        with pytest.raises(ObjectNotFoundError):
            containers.read_data(cid)


class TestDeletionHooks:
    def test_purged_container_drops_durability_state(self, rng):
        store = durable_store()
        for payload in make_version_chain(rng, versions=4):
            store.backup("f", payload)
        durability = store.storage.durability
        containers = store.storage.containers
        tiered = sorted(durability.classes())
        cid = tiered[0]
        containers.purge(cid)
        assert durability.record_for(cid) is None
        bucket = containers._bucket
        leftover = [
            key
            for key in store.oss.peek_keys(bucket, "durability/")
            if f"{cid:012d}.copy" in key
        ]
        assert not leftover

    def test_entombed_container_becomes_deleted_class(self, rng):
        config = replace(DURABLE_CONFIG, tombstone_grace_epochs=2)
        store = durable_store(config)
        for payload in make_version_chain(rng, versions=4):
            store.backup("f", payload)
        durability = store.storage.durability
        containers = store.storage.containers
        replicated = [
            cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
        ]
        assert replicated
        cid = replicated[0]
        containers.delete(cid)  # two-phase: entombs under grace
        record = durability.record_for(cid)
        assert record["class"] == CLASS_DELETED
        assert not record["copies"]
        assert record["retired"]
