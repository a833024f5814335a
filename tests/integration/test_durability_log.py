"""The durability tier's delta log: attach cost, crash debris, old formats.

The tier keeps every container record and stripe manifest on one
:class:`~repro.oss.deltalog.DeltaLog` (checkpoint ``durability/state.json``,
records under ``durability/log/``), and a tier step's append is its commit
point.  This module checks what follows from that:

* attach reads the checkpoint plus the unfolded tail, so its GETs are
  bounded by the fold interval, not by the container count;
* a step killed before its append leaves only objects no record names:
  attach counts them as debris, fsck reports them, ``--repair`` sweeps them;
* a repository in the older per-object layout (one object per record and
  per manifest) attaches to the same state, and a writing attach migrates it;
* ``durability`` intents an older process left open are discarded, and one
  ``retier`` converges whatever they left half done.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.durability import DurabilityManager
from repro.core.recovery import RecoveryManager
from repro.core.system import SlimStore
from repro.errors import SimulatedCrashError
from repro.oss.faults import FaultPolicy
from tests.conftest import bucket_state, make_version_chain
from tests.integration.test_commit_metadata import record_writes
from tests.integration.test_crash_matrix import attach
from tests.integration.test_durability_failover import DURABLE_CONFIG

pytestmark = pytest.mark.slow

BUCKET = "slimstore"
RECORDS, STRIPES = DurabilityManager.LEGACY_PREFIXES


def durable_chain_store(seed: int = 4242, versions: int = 4):
    store = SlimStore(DURABLE_CONFIG)
    chain = make_version_chain(np.random.default_rng(seed), versions=versions)
    for payload in chain:
        store.backup("f", payload)
    return store, chain


def legacy_layout(store: SlimStore) -> dict[str, dict[str, bytes]]:
    """``store``'s repository as older code laid the tier out: one object
    per record and per stripe manifest, and no delta log."""
    state = bucket_state(store.oss)
    objects = state[BUCKET]
    for key in list(objects):
        if key == DurabilityManager.STATE_KEY or key.startswith(
            DurabilityManager.LOG_PREFIX
        ):
            del objects[key]
    durability = store.storage.durability
    for cid, record in durability._records.items():
        objects[f"{RECORDS}{cid:012d}.json"] = json.dumps(record).encode()
    for sid, stripe in durability._stripes.items():
        objects[f"{STRIPES}{sid:08d}.json"] = json.dumps(stripe).encode()
    return state


def legacy_keys(objects: dict[str, bytes]) -> list[str]:
    return [key for key in objects if key.startswith((RECORDS, STRIPES))]


def count_durability_gets(store: SlimStore, monkeypatch) -> list[str]:
    """Keys of every ``durability/`` GET ``store``'s endpoint serves."""
    seen: list[str] = []
    original = store.oss.get_object

    def spy(bucket, key, *args, **kwargs):
        if key.startswith(DurabilityManager.PREFIX):
            seen.append(key)
        return original(bucket, key, *args, **kwargs)

    monkeypatch.setattr(store.oss, "get_object", spy)
    return seen


def test_attach_reads_are_bounded_by_the_fold_interval(monkeypatch):
    """Two repositories whose container counts differ by 4x attach with at
    most ``FOLD_EVERY + 1`` durability GETs each: the checkpoint plus the
    records not yet folded."""
    monkeypatch.setattr("repro.oss.deltalog.FOLD_EVERY", 8)
    counts = {}
    for files in (2, 8):
        store = SlimStore(DURABLE_CONFIG)
        rng = np.random.default_rng(files)
        for index in range(files):
            for payload in make_version_chain(rng, versions=2, size=128 * 1024):
                store.backup(f"f{index}", payload)
        containers = len(store.storage.containers.container_ids())
        survivor = SlimStore(DURABLE_CONFIG, store.oss)
        gets = count_durability_gets(survivor, monkeypatch)
        survivor.recover(run_recovery=False)
        assert survivor.storage.durability._records == store.storage.durability._records
        assert survivor.storage.durability._stripes == store.storage.durability._stripes
        assert len(gets) <= 8 + 1, (files, containers, gets)
        counts[files] = containers
    assert counts[8] >= 4 * counts[2] > 8 + 1


def test_a_backup_killed_after_a_replica_put_leaves_debris_fsck_sees(monkeypatch):
    """The replica landed, its record never did: inspection reports the copy
    as an orphan, and repair (what ``repro fsck --repair`` runs) sweeps it."""
    chain = make_version_chain(np.random.default_rng(4242), versions=3)
    store = SlimStore(DURABLE_CONFIG)
    for payload in chain[:2]:
        store.backup("f", payload)
    # The third backup's pass promotes the shared containers.
    state = bucket_state(store.oss)

    probe = attach(state, config=DURABLE_CONFIG)
    writes = record_writes(probe, monkeypatch)
    probe.backup("f", chain[2])
    index, (_, copy_key) = next(
        (i, write)
        for i, write in enumerate(writes)
        if write[0] == "put_object" and ".copy" in write[1]
    )
    assert copy_key not in state[BUCKET]

    victim = attach(state, config=DURABLE_CONFIG)
    policy = FaultPolicy()
    policy.crash_after_writes(index + 1)
    victim.oss.set_fault_policy(policy)
    with pytest.raises(SimulatedCrashError):
        victim.backup("f", chain[2])
    victim.oss.set_fault_policy(None)

    inspected = SlimStore(DURABLE_CONFIG, victim.oss)
    inspected.recover(run_recovery=False)
    manager = RecoveryManager(inspected)
    report = manager.inspect()
    assert copy_key in report.durability_orphans
    assert not report.clean
    recovery = manager.run(report.open_intents)
    assert copy_key in recovery.replica_orphans_collected
    assert victim.oss.peek_size(BUCKET, copy_key) is None
    assert RecoveryManager(inspected).inspect().clean
    for version in inspected.versions("f"):
        assert inspected.restore("f", version).data == chain[version]


class TestLegacyLayout:
    def test_per_object_layout_attaches_and_migrates(self):
        store, chain = durable_chain_store()
        durability = store.storage.durability
        state = legacy_layout(store)
        assert legacy_keys(state[BUCKET])

        # An inspection attach reads the same state and writes nothing;
        # the legacy objects are not debris.
        inspected = attach(state, config=DURABLE_CONFIG, fold=False)
        assert inspected.storage.durability._records == durability._records
        assert inspected.storage.durability._stripes == durability._stripes
        assert RecoveryManager(inspected).inspect().clean
        assert bucket_state(inspected.oss) == state

        # A writing attach publishes the checkpoint, then sweeps the old
        # objects; the next attach reads the checkpoint alone.
        migrated = attach(state, config=DURABLE_CONFIG)
        objects = bucket_state(migrated.oss)[BUCKET]
        assert DurabilityManager.STATE_KEY in objects
        assert legacy_keys(objects) == []
        assert migrated.storage.durability._records == durability._records
        assert migrated.storage.durability._stripes == durability._stripes
        assert migrated.storage.durability.orphan_keys() == []
        reattached = attach(bucket_state(migrated.oss), config=DURABLE_CONFIG)
        assert reattached.storage.durability._records == durability._records
        assert reattached.storage.durability._next_sid == durability._next_sid
        for version, payload in enumerate(chain):
            assert reattached.restore("f", version).data == payload

    def test_open_durability_intents_from_an_older_process_are_discarded(self):
        """``tier`` and ``stripe`` intents, each with its commit object
        landed and not landed, as an older process left them."""
        store, chain = durable_chain_store(versions=6)
        durability = store.storage.durability
        state = legacy_layout(store)
        objects = state[BUCKET]
        replicated = [
            cid for cid, cls in sorted(durability.classes().items()) if cls == "replicated"
        ]
        striped = [
            sid
            for sid, stripe in sorted(durability._stripes.items())
            if len(stripe["members"]) >= 2 and stripe["parity"]
        ]
        assert len(replicated) >= 2 and len(striped) >= 2
        intents = []

        def tier_intent(cid: int) -> dict:
            record = durability.record_for(cid)
            return {
                "op": "tier",
                "cid": cid,
                "target": "replicated",
                "sha": record["sha"],
                "planned": [copy["key"] for copy in record["copies"]],
            }

        def stripe_intent(sid: int) -> dict:
            stripe = durability._stripes[sid]
            return {
                "op": "stripe",
                "sid": sid,
                "planned": [p["key"] for p in stripe["parity"]]
                + [f"{STRIPES}{sid:08d}.json"],
            }

        # tier, committed: the record with its copies landed.
        intents.append(tier_intent(replicated[0]))
        # tier, not committed: the copies landed, the record still says
        # the container is single.
        landed, cid = tier_intent(replicated[1]), replicated[1]
        intents.append(landed)
        objects[f"{RECORDS}{cid:012d}.json"] = json.dumps(
            {**durability.record_for(cid), "class": "single", "copies": []}
        ).encode()
        # stripe, committed: the manifest landed, one member's record not.
        intents.append(stripe_intent(striped[0]))
        member = durability._stripes[striped[0]]["members"][-1]["cid"]
        del objects[f"{RECORDS}{int(member):012d}.json"]
        # stripe, not committed: only the parity landed.
        intents.append(stripe_intent(striped[1]))
        del objects[f"{STRIPES}{striped[1]:08d}.json"]
        for stripe_member in durability._stripes[striped[1]]["members"]:
            objects.pop(f"{RECORDS}{int(stripe_member['cid']):012d}.json", None)
        for seq, payload in enumerate(intents):
            objects[f"journal/{seq:012d}.json"] = json.dumps(
                {"kind": "durability", "payload": payload}
            ).encode()

        survivor = attach(state, config=DURABLE_CONFIG)
        recovery = survivor.last_recovery
        assert recovery.discarded == [(seq, "durability") for seq in range(4)]
        assert not survivor.oss.peek_keys(BUCKET, "journal/")
        tier = survivor.storage.durability
        assert tier.orphan_keys() == []
        assert legacy_keys(bucket_state(survivor.oss)[BUCKET]) == []

        refcounts = survivor.catalog.refcounts()
        survivor.gnode.retier(refcounts)
        audit = tier.audit(refcounts)
        assert audit.consistent
        assert not audit.class_mismatches and not audit.untiered
        assert tier.orphan_keys() == []
        for version, payload in enumerate(chain):
            assert survivor.restore("f", version).data == payload
