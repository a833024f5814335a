"""Tests for the checkpoint + delta-record log."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oss import deltalog
from repro.oss.deltalog import DeltaLog
from repro.errors import SimulatedCrashError, TransientOSSError
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService

BUCKET = "test"
CHECKPOINT = "meta/state"
PREFIX = "meta/log/"


@pytest.fixture
def oss() -> ObjectStorageService:
    service = ObjectStorageService()
    service.create_bucket(BUCKET)
    return service


def make_log(oss) -> DeltaLog:
    return DeltaLog(oss, BUCKET, CHECKPOINT, PREFIX)


def checkpoint_of(body: bytes = b"state"):
    """A checkpoint in the owner's role: the body plus the mark the log
    says it is folded through."""
    return lambda through: body + b"@%d" % through


def attach(oss) -> tuple[DeltaLog, bytes | None, list[bytes]]:
    """A fresh reader: checkpoint body, then the tail past its mark."""
    log = make_log(oss)
    checkpoint = log.read_checkpoint()
    if checkpoint is None:
        return log, None, log.read_tail(0)
    body, _, through = checkpoint.rpartition(b"@")
    return log, body, log.read_tail(int(through))


class TestAppend:
    def test_records_are_dense_and_zero_padded(self, oss):
        log = make_log(oss)
        for record in (b"a", b"b", b"c"):
            log.append(record)
        assert oss.peek_keys(BUCKET) == [
            "meta/log/000000000000",
            "meta/log/000000000001",
            "meta/log/000000000002",
        ]
        assert log.next_seq == 3

    def test_a_failed_put_allocates_no_number(self, oss):
        log = make_log(oss)
        log.append(b"a")
        policy = FaultPolicy()
        oss.set_fault_policy(policy)
        policy.outage({"put"})
        with pytest.raises(TransientOSSError):
            log.append(b"lost")
        policy.revive()
        log.append(b"b")
        assert log.next_seq == 2
        _, _, tail = attach(oss)
        assert tail == [b"a", b"b"]

    def test_a_torn_record_is_overwritten_by_the_next_append(self, oss):
        log = make_log(oss)
        oss.set_fault_policy(FaultPolicy(torn_write_rate=1.0))
        with pytest.raises(TransientOSSError):
            log.append(b"a record long enough to tear")
        oss.set_fault_policy(None)
        log.append(b"whole")
        _, _, tail = attach(oss)
        assert tail == [b"whole"]

    def test_append_is_one_put_and_reads_list_nothing(self, oss, monkeypatch):
        log = make_log(oss)
        before = oss.stats.snapshot()
        log.append(b"a")
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.get_requests, spent.delete_requests) == (1, 0, 0)

        def no_listing(*_args, **_kwargs):
            raise AssertionError("the log must probe keys, never list the bucket")

        monkeypatch.setattr(ObjectStorageService, "peek_keys", no_listing)
        monkeypatch.setattr(ObjectStorageService, "list_objects", no_listing)
        log.fold(checkpoint_of())
        log.append(b"b")
        _, body, tail = attach(oss)
        assert (body, tail) == (b"state", [b"b"])


class TestFold:
    def test_fold_is_one_put_and_one_batched_delete(self, oss):
        log = make_log(oss)
        for i in range(5):
            log.append(b"r%d" % i)
        before = oss.stats.snapshot()
        log.fold(checkpoint_of())
        spent = oss.stats.diff(before)
        assert (spent.put_requests, spent.delete_requests) == (1, 1)
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]
        # Numbering continues past the fold; nothing is ever reused.
        log.append(b"next")
        assert oss.peek_keys(BUCKET, PREFIX) == ["meta/log/000000000005"]
        _, body, tail = attach(oss)
        assert (body, tail) == (b"state", [b"next"])

    def test_fold_with_no_records_sends_no_delete(self, oss):
        log = make_log(oss)
        log.fold(checkpoint_of())
        assert oss.stats.delete_requests == 0

    def test_fold_if_due_counts_records_since_the_checkpoint(self, oss, monkeypatch):
        monkeypatch.setattr(deltalog, "FOLD_EVERY", 3)
        log = make_log(oss)
        for expected in (None, None, b"state@3", b"state@3", b"state@3", b"state@6"):
            log.append(b"r")
            log.fold_if_due(checkpoint_of())
            assert log.read_checkpoint() == expected
        assert log.record_keys() == []

    def test_a_due_fold_that_cannot_reach_oss_stays_due(self, oss, monkeypatch):
        """The record landed; the housekeeping after it must not turn the
        append into a failure."""
        monkeypatch.setattr(deltalog, "FOLD_EVERY", 2)
        log = make_log(oss)
        log.append(b"r0")
        policy = FaultPolicy()
        oss.set_fault_policy(policy)
        log.append(b"r1")
        policy.outage({"put"})
        log.fold_if_due(checkpoint_of())
        assert log.read_checkpoint() is None
        policy.revive()
        policy.outage({"delete"})
        log.fold_if_due(checkpoint_of())  # checkpoint lands, the DELETE fails
        assert log.debris_keys() == [log.key(0), log.key(1)]
        policy.revive()
        log.append(b"r2")
        log.fold_if_due(checkpoint_of())  # one record since the mark: not due
        assert log.debris_keys() == [log.key(0), log.key(1)]
        log.append(b"r3")
        log.fold_if_due(checkpoint_of())
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]
        _, body, tail = attach(oss)
        assert (body, tail) == (b"state", [])
        # A dead node is not a transient failure.
        log.append(b"r4")
        log.append(b"r5")
        policy.crash_after_writes(0)
        with pytest.raises(SimulatedCrashError):
            log.fold_if_due(checkpoint_of())

    @pytest.mark.parametrize("surviving_writes", [0, 1])
    def test_crash_inside_a_fold_loses_nothing(self, oss, surviving_writes):
        """Write 0 is the checkpoint PUT, write 1 the batched DELETE."""
        log = make_log(oss)
        log.fold(checkpoint_of(b"old"))
        records = [b"r0", b"r1", b"r2"]
        for record in records:
            log.append(record)
        policy = FaultPolicy()
        policy.crash_after_writes(surviving_writes)
        oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            log.fold(checkpoint_of(b"new"))
        oss.set_fault_policy(None)

        survivor, body, tail = attach(oss)
        if surviving_writes == 0:
            # The checkpoint never landed: old state plus the whole tail.
            assert (body, tail) == (b"old", records)
            assert survivor.debris_keys() == []
        else:
            # It landed and covers the records still lying around: they
            # are recognised as folded, not replayed a second time.
            assert (body, tail) == (b"new", [])
            assert survivor.debris_keys() == [survivor.key(seq) for seq in range(3)]
        assert survivor.next_seq == 3

        # The next fold re-deletes the debris along with anything newer.
        survivor.append(b"r3")
        survivor.fold(checkpoint_of(b"newer"))
        assert oss.peek_keys(BUCKET) == [CHECKPOINT]
        assert survivor.debris_keys() == []
        _, body, tail = attach(oss)
        assert (body, tail) == (b"newer", [])


class TestAccounting:
    def test_stored_bytes_is_checkpoint_plus_records(self, oss):
        log = make_log(oss)
        assert log.stored_bytes() == 0
        log.append(b"12345")
        log.append(b"678")
        assert log.stored_bytes() == 8
        log.fold(lambda through: b"checkpoint@%d" % through)
        assert log.stored_bytes() == len(b"checkpoint@2")
        log.append(b"9")
        assert log.stored_bytes() == len(b"checkpoint@2") + 1
        # A fresh reader accounts for the same bytes once it has attached.
        survivor, _, _ = attach(oss)
        assert survivor.stored_bytes() == log.stored_bytes()


@settings(max_examples=60)
@given(
    st.lists(
        st.sampled_from(["append", "fold", "crashed_fold", "reattach"]),
        min_size=1,
        max_size=40,
    )
)
def test_any_interleaving_reads_back_what_was_written(steps):
    """Model: the state is the list of every record ever appended; a
    checkpoint stores its length.  Whatever the interleaving of appends,
    folds, folds that die before their DELETE, and reattaches, a reader
    reconstructs exactly the model."""
    oss = ObjectStorageService()
    oss.create_bucket(BUCKET)
    log = make_log(oss)
    model: list[bytes] = []

    def checkpoint(through: int) -> bytes:
        return b",".join(model) + b"@%d" % through

    for step in steps:
        if step == "append":
            record = b"r%d" % len(model)
            log.append(record)
            model.append(record)
        elif step == "fold":
            log.fold(checkpoint)
        elif step == "crashed_fold":
            policy = FaultPolicy()
            policy.crash_after_writes(1)
            oss.set_fault_policy(policy)
            try:
                log.fold(checkpoint)
            except SimulatedCrashError:
                pass
            oss.set_fault_policy(None)
            log, _, _ = attach(oss)
        else:
            log, _, _ = attach(oss)
        assert log.next_seq == len(model)

    _, body, tail = attach(oss)
    folded = body.split(b",") if body else []
    assert folded + tail == model
