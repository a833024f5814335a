"""The durability tier's delta log: attach cost and crash debris.

The tier keeps every container record and stripe manifest on one
:class:`~repro.oss.deltalog.DeltaLog` (checkpoint ``durability/state.json``,
records under ``durability/log/``), and a tier step's append is its commit
point.  This module checks what follows from that:

* attach reads the checkpoint plus the unfolded tail, so its GETs are
  bounded by the fold interval, not by the container count;
* a step killed before its append leaves only objects no record names:
  attach counts them as debris, fsck reports them, ``--repair`` sweeps them;
* ``durability`` intents older code left open are discarded, and the
  orphan sweep and one ``retier`` converge whatever they left half done.
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


def durable_chain_store(seed: int = 4242, versions: int = 4):
    store = SlimStore(DURABLE_CONFIG)
    chain = make_version_chain(np.random.default_rng(seed), versions=versions)
    for payload in chain:
        store.backup("f", payload)
    return store, chain


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
    """What older code left in a journal: ``durability`` intents, a kind
    no handler knows now."""

    def test_open_durability_intents_from_an_older_process_are_discarded(self):
        """``tier`` and ``stripe`` intents, each with its commit landed and
        not landed (the copies or the parity it planned PUT, no log record
        naming them): attach discards every intent, the orphan sweep removes
        what they wrote, and one ``retier`` converges."""
        store, chain = durable_chain_store(versions=6)
        durability = store.storage.durability
        state = bucket_state(store.oss)
        objects = state[BUCKET]
        replicated = [
            cid for cid, cls in sorted(durability.classes().items()) if cls == "replicated"
        ]
        striped = sorted(durability._stripes)
        assert replicated and striped
        unborn_cid = max(store.storage.containers.container_ids()) + 1
        unborn_sid = durability._next_sid
        debris = [
            DurabilityManager.COPY_KEY.format(dom=1, cid=unborn_cid, i=1),
            DurabilityManager.PARITY_KEY.format(dom=2, sid=unborn_sid, i=0),
        ]
        for key in debris:
            objects[key] = b"landed before its record"
        intents = [
            {"op": "tier", "cid": replicated[0], "target": "replicated",
             "planned": [c["key"] for c in durability.record_for(replicated[0])["copies"]]},
            {"op": "tier", "cid": unborn_cid, "target": "replicated", "planned": debris[:1]},
            {"op": "stripe", "sid": striped[0],
             "planned": [p["key"] for p in durability._stripes[striped[0]]["parity"]]},
            {"op": "stripe", "sid": unborn_sid, "planned": debris[1:]},
        ]
        for seq, payload in enumerate(intents):
            objects[f"journal/{seq:012d}.json"] = json.dumps(
                {"kind": "durability", "payload": payload}
            ).encode()

        survivor = attach(state, config=DURABLE_CONFIG)
        recovery = survivor.last_recovery
        assert recovery.discarded == [(seq, "durability") for seq in range(4)]
        assert sorted(recovery.replica_orphans_collected) == sorted(debris)
        assert not survivor.oss.peek_keys(BUCKET, "journal/")
        tier = survivor.storage.durability
        assert tier.orphan_keys() == []
        assert tier._records == durability._records

        refcounts = survivor.catalog.refcounts()
        survivor.gnode.retier(refcounts)
        audit = tier.audit(refcounts)
        assert audit.consistent
        assert not audit.class_mismatches and not audit.untiered
        assert tier.orphan_keys() == []
        for version, payload in enumerate(chain):
            assert survivor.restore("f", version).data == payload
