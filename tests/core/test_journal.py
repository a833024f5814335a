"""The OSS-backed intent journal."""

import pytest

from repro.core.journal import INTENT_KINDS, IntentJournal
from repro.oss.object_store import ObjectStorageService
from repro.sim.cost_model import CostModel


@pytest.fixture
def journal(oss: ObjectStorageService) -> IntentJournal:
    return IntentJournal(oss, "slimstore")


class TestLifecycle:
    def test_begin_persists_one_object(self, oss, journal):
        seq = journal.begin("backup", path="f", watermark=3)
        assert oss.peek_size("slimstore", f"journal/{seq:012d}.json") is not None

    def test_unknown_kind_rejected(self, journal):
        with pytest.raises(ValueError):
            journal.begin("defragment")

    def test_close_deletes_the_entry(self, oss, journal):
        seq = journal.begin("rewrite", container_id=1, meta="", data_sha="")
        journal.close(seq)
        assert list(oss.peek_keys("slimstore", "journal/")) == []

    def test_sequence_numbers_are_monotonic(self, journal):
        seqs = [journal.begin(kind) for kind in INTENT_KINDS]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_update_overwrites_payload_in_place(self, journal):
        seq = journal.begin("compaction", path="f", version=0, watermark=4, sparse=[2])
        journal.update(
            seq, "compaction", path="f", version=0, watermark=4, sparse=[2],
            moves={"ab": 5}, new_cids=[5],
        )
        (intent,) = journal.open_intents()
        assert intent.seq == seq
        assert intent.payload["moves"] == {"ab": 5}


class TestRecovery:
    def test_recover_returns_survivors_oldest_first(self, oss):
        journal = IntentJournal(oss, "slimstore")
        a = journal.begin("backup", path="a", watermark=0)
        b = journal.begin("compaction", path="b", version=1, watermark=4, sparse=[2])
        journal.close(a)

        fresh = IntentJournal(oss, "slimstore")
        survivors = fresh.recover()
        assert [(i.seq, i.kind) for i in survivors] == [(b, "compaction")]
        assert survivors[0].payload == {
            "path": "b", "version": 1, "watermark": 4, "sparse": [2]
        }

    def test_recover_resumes_the_sequence_past_survivors(self, oss):
        journal = IntentJournal(oss, "slimstore")
        seq = journal.begin("backup", path="a", watermark=0)

        fresh = IntentJournal(oss, "slimstore")
        fresh.recover()
        assert fresh.begin("backup", path="b", watermark=1) > seq

    def test_recover_skips_foreign_keys(self, oss):
        oss.create_bucket("slimstore")
        oss.put_object("slimstore", "journal/README", b"not an intent")
        oss.put_object("slimstore", "journal/xyz.json", b"{}")
        journal = IntentJournal(oss, "slimstore")
        assert journal.recover() == []

    def test_open_intents_does_not_rewind_the_sequence(self, oss):
        journal = IntentJournal(oss, "slimstore")
        seq = journal.begin("backup", path="a", watermark=0)
        journal.close(seq)
        assert journal.open_intents() == []
        assert journal.begin("backup", path="b", watermark=1) == seq + 1

    def test_truncate_drops_everything(self, oss):
        journal = IntentJournal(oss, "slimstore")
        journal.begin("backup", path="a", watermark=0)
        journal.begin("rewrite", container_id=1, meta="00", data_sha="ab")
        assert journal.truncate() == 2
        assert journal.open_intents() == []
