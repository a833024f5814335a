"""Hypothesis properties for the durability tier's placement invariants."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SlimStore
from repro.core.durability import (
    CLASS_ERASURE,
    CLASS_REPLICATED,
    CLASS_SINGLE,
    DurabilityManager,
    ReplicationPolicy,
)
from tests.conftest import SMALL_CONFIG, make_version_chain

#: Colder classes order strictly below hotter ones.
_RANK = {CLASS_SINGLE: 0, CLASS_ERASURE: 1, CLASS_REPLICATED: 2}


@st.composite
def policies(draw):
    """Any parameter set the :class:`ReplicationPolicy` validator accepts."""
    fault_domains = draw(st.integers(2, 6))
    replica_count = draw(st.integers(2, fault_domains))
    hot_refs = draw(st.integers(1, 12))
    cold_refs = draw(st.integers(1, hot_refs))
    parity_shards = draw(st.integers(1, 4))
    data_shards = draw(
        st.integers(1, max(1, fault_domains * parity_shards - parity_shards))
    )
    return ReplicationPolicy(
        replica_count=replica_count,
        hot_refs=hot_refs,
        cold_refs=cold_refs,
        data_shards=data_shards,
        parity_shards=parity_shards,
        fault_domains=fault_domains,
    )


@given(policies(), st.integers(0, 64), st.integers(0, 64))
def test_class_monotone_in_refcount(policy, refs_a, refs_b):
    """More references never buys a *weaker* durability class."""
    lo, hi = sorted((refs_a, refs_b))
    assert _RANK[policy.classify(lo)] <= _RANK[policy.classify(hi)]


@given(policies(), st.lists(st.integers(0, 1 << 20), max_size=40))
def test_stripe_grouping_respects_domain_capacity(policy, cids):
    """Greedy grouping never lets one fault domain carry more than ``m``
    member shards of a stripe, and always leaves room for the parity."""
    manager = SimpleNamespace(policy=policy)
    items = [(cid, b"") for cid in cids]
    groups = DurabilityManager._group_for_stripes(manager, items)
    m = policy.parity_shards
    assert sorted(cid for group in groups for cid, _ in group) == sorted(cids)
    for group in groups:
        assert len(group) <= policy.data_shards
        counts = [0] * policy.fault_domains
        for cid, _ in group:
            counts[policy.primary_domain(cid)] += 1
        assert max(counts, default=0) <= m
        # Parity fits: total shards never exceed the domains' capacity.
        assert len(group) + m <= policy.fault_domains * m


@given(
    fault_domains=st.integers(2, 4),
    replica_count=st.integers(2, 4),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=10)
def test_replicas_never_share_a_fault_domain(fault_domains, replica_count, seed):
    """Whatever the geometry, every replicated container's copies land on
    pairwise-distinct domains, none of them the primary's."""
    replica_count = min(replica_count, fault_domains)
    config = replace(
        SMALL_CONFIG,
        durability=ReplicationPolicy(
            replica_count=replica_count,
            hot_refs=1,  # everything live replicates
            cold_refs=1,
            data_shards=fault_domains,  # keep k + m <= domains * m
            parity_shards=2,
            fault_domains=fault_domains,
        ),
    )
    store = SlimStore(config)
    rng = np.random.default_rng(seed)
    for payload in make_version_chain(rng, versions=2):
        store.backup("f", payload)
    durability = store.storage.durability
    replicated = {
        cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
    }
    assert replicated
    for cid in replicated:
        record = durability.record_for(cid)
        domains = [copy["domain"] for copy in record["copies"]]
        assert len(domains) == replica_count - 1
        assert len(set(domains)) == len(domains)
        assert durability.policy.primary_domain(cid) not in domains


@given(seed=st.integers(0, 2**31))
@settings(max_examples=8)
def test_promote_demote_roundtrip_reaps_exactly_retired(seed):
    """Promoting then demoting a container reaps exactly the copies the
    demotion retired — nothing else leaves the store."""
    config = replace(
        SMALL_CONFIG,
        durability=ReplicationPolicy(
            replica_count=3, hot_refs=3, cold_refs=2, fault_domains=3
        ),
        tombstone_grace_epochs=1,
    )
    store = SlimStore(config)
    rng = np.random.default_rng(seed)
    for payload in make_version_chain(rng, versions=4):
        store.backup("f", payload)
    durability = store.storage.durability
    containers = store.storage.containers
    bucket = containers._bucket
    replicated = {
        cid for cid, k in durability.classes().items() if k == CLASS_REPLICATED
    }
    assert replicated
    promoted_copies = {
        copy["key"]
        for cid in replicated
        for copy in durability.record_for(cid)["copies"]
    }
    # Demote: deleting all but the last version cools the shared containers.
    for version in store.versions("f")[:-1]:
        store.delete_version("f", version)
    durability.retier(store.catalog.refcounts())
    retired_copies = {
        entry["key"]
        for record in durability._records.values()
        for entry in record.get("retired", [])
    }
    # Demoting also retires parity of stripes rebuilt around the change.
    retired = retired_copies | {
        entry["key"]
        for stripe in durability._stripes.values()
        for entry in stripe.get("retired", [])
    }
    assert retired_copies
    assert retired_copies <= promoted_copies
    before = set(store.oss.peek_keys(bucket, "durability/"))
    containers.advance_epoch()
    containers.advance_epoch()
    _, deleted = durability.reap_retired()
    after = set(store.oss.peek_keys(bucket, "durability/"))
    # Exactly the retired payload keys disappeared; anything else gone is
    # a record of the tier's delta log a fold covered, never a copy or
    # parity blob.
    assert deleted == len(retired)
    gone = before - after
    assert gone & retired == retired
    for key in gone - retired:
        assert key.startswith(DurabilityManager.LOG_PREFIX), key
    assert not any(
        record.get("retired") for record in durability._records.values()
    )
