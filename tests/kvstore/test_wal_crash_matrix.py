"""Crash matrix for the Rocks-OSS write path: kill the node at every OSS
write of a scripted LSM workload, reattach, compare with a dict model.

The script crosses every write the WAL and the store make — one record PUT
per batch, the checkpoint PUT and batched DELETE of a fold that comes due
on the store's own appends (``FOLD_EVERY`` is 2) and of an attach-time
fold, a flush's SSTable PUT and empty checkpoint, a compaction's merged
table and deletes — and reattaches in the middle, so numbering resumes
over a replayed tail.  The contract: every acknowledged write is readable
after recovery, and the batch in flight when the node died is visible
whole or not at all.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrashError
from repro.kvstore.lsm import LSMStore
from repro.oss import deltalog
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService

BUCKET = "kv"

SCRIPT = (
    ("put", ((b"key00", b"v0"),)),
    ("put_many", ((b"key01", b"a1"), (b"key02", b"a2"), (b"key03", b"a3"))),
    ("delete", b"key00"),
    ("fold",),
    ("reattach",),
    ("put_many", tuple((b"key%02d" % i, b"bb%d" % i) for i in range(4, 14))),
    ("put", ((b"key02", b"c2"),)),
    ("delete", b"key05"),
    ("flush",),
    ("reattach",),
    ("put_many", ((b"key01", b"d1"), (b"key14", b"d14"))),
    ("delete", b"key01"),
    ("put", ((b"key15", b"e15"),)),
)


@pytest.fixture(autouse=True)
def fold_every_two(monkeypatch):
    monkeypatch.setattr(deltalog, "FOLD_EVERY", 2)


def attach(oss: ObjectStorageService) -> LSMStore:
    store = LSMStore(oss, BUCKET, memtable_bytes=120, compaction_threshold=2)
    store.recover()
    return store


def applied(model: dict[bytes, bytes], step) -> dict[bytes, bytes]:
    """The model after ``step`` (maintenance steps change nothing)."""
    kind, *args = step
    model = dict(model)
    if kind in ("put", "put_many"):
        model.update(args[0])
    elif kind == "delete":
        model.pop(args[0], None)
    return model


class Run:
    """One pass of the script, tracking the acknowledged state."""

    def __init__(self, oss: ObjectStorageService) -> None:
        self.oss = oss
        self.model: dict[bytes, bytes] = {}
        self.in_flight = None

    def play(self) -> None:
        store = attach(self.oss)
        for step in SCRIPT:
            self.in_flight = step
            kind, *args = step
            if kind == "put":
                ((key, value),) = args[0]
                store.put(key, value)
            elif kind == "put_many":
                store.put_many(args[0])
            elif kind == "delete":
                store.delete(args[0])
            elif kind == "fold":
                store.fold_wal()
            elif kind == "flush":
                store.flush()
            else:
                store = attach(self.oss)
            self.model = applied(self.model, step)
        self.in_flight = None


class WriteLog(FaultPolicy):
    """Records every write request's (op, key)."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[str, str]] = []

    def before_request(self, op, bucket, key):
        if op in self.WRITE_OPS:
            self.writes.append((op, key))
        return super().before_request(op, bucket, key)


def test_the_script_crosses_every_kind_of_write():
    oss = ObjectStorageService()
    policy = WriteLog()
    oss.set_fault_policy(policy)
    Run(oss).play()
    writes = policy.writes
    checkpoint = "wal/default/active.wal"
    wal_records = [key for op, key in writes if op == "put" and "/log/" in key]
    assert len(wal_records) == 9  # one per put, put_many and delete
    assert sum(key == checkpoint for _, key in writes) >= 4  # due, attach, flush
    assert ("delete", "wal/default/log/000000000000") in writes  # batched
    tables = [key for op, key in writes if op == "put" and key.startswith("sst/")]
    assert len(tables) >= 3  # two flushes and a compaction's merged table
    assert any(op == "delete" and key.startswith("sst/") for op, key in writes)
    assert len(writes) == policy.writes_seen


def test_crash_at_every_write_keeps_acknowledged_writes_and_whole_batches():
    probe = ObjectStorageService()
    policy = FaultPolicy()
    probe.set_fault_policy(policy)
    finished = Run(probe)
    finished.play()
    assert dict(attach(probe).iter_items()) == finished.model
    total = policy.writes_seen

    outcomes = set()
    for crash_at in range(total):
        oss = ObjectStorageService()
        policy = FaultPolicy()
        policy.crash_after_writes(crash_at)
        oss.set_fault_policy(policy)
        run = Run(oss)
        with pytest.raises(SimulatedCrashError):
            run.play()
        oss.set_fault_policy(None)

        survivor = attach(oss)
        state = dict(survivor.iter_items())
        landed = applied(run.model, run.in_flight)
        assert state in (run.model, landed), (crash_at, run.in_flight)
        outcomes.add(state != run.model)
        for key in {*run.model, *landed}:
            assert survivor.get(key) == state.get(key), (crash_at, key)
        # The survivor's own appends continue after the tail it replayed.
        survivor.put(b"after", b"crash")
        assert dict(attach(oss).iter_items()) == {**state, b"after": b"crash"}
    # Both sides of "all or nothing" occurred: a batch in flight landed
    # whole, and one did not land at all.
    assert outcomes == {True, False}
