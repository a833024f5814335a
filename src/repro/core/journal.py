"""The OSS-backed intent journal (crash-consistency layer).

Every multi-write job — a backup, a compaction, a container rewrite, a
version or snapshot deletion, a browse write-back flush — records its
intent as one small JSON object under ``journal/`` *before* touching shared state,
updates it as the job reaches durable milestones, and deletes it when the
job's last write has landed.  Each journal operation is a single atomic
object write, so the journal itself can never be torn.

An intent left open on OSS is the definition of an interrupted job: the
:class:`~repro.core.recovery.RecoveryManager` reads the surviving entries
on attach and decides, per intent kind, whether to roll the job forward
(its commit point landed) or discard its side effects (it never became
visible).  See ``docs/CRASH_RECOVERY.md`` for the full state machine.

Intent kinds and their payloads:

======================  =====================================================
``backup``              ``path``, ``version``, ``watermark`` (first
                        container id the job may allocate, taken on entry);
                        opened at the job's first write, so an alias commit
                        opens none
``compaction``          ``path``, ``version``, ``watermark``, ``sparse``
                        container ids; updated with ``moves`` (fp hex → new
                        container id) and ``new_cids`` before the recipe
                        repoint commits
``rewrite``             ``container_id``, ``meta`` (hex of the new metadata
                        blob; a scrub repair's ``replace_data`` journals the
                        unchanged one), ``data_sha`` (hex SHA-1 of the new
                        payload)
``delete_version``      ``versions``: ``[path, version, collectable
                        container ids, recipe]`` per version its catalog
                        record drops (recipe: the version whose recipe goes,
                        or null while another live version resolves to it)
``cache_flush``         write-back commit of a dirtied browse file:
                        ``path``, ``base_version``, ``version`` (the one
                        being published), ``size``, ``sha`` (SHA-256 of the
                        full file), ``blocks`` (dirty block indices),
                        ``block_bytes``; updated with ``staged=True`` once
                        every dirty block landed under its
                        ``browsecache/{seq}/`` staging prefix
======================  =====================================================

A reverse-dedup pass opens none: its versions' pending mark in the catalog
is its record.  A durability tier step opens none either: its append to the
tier's delta log is its commit point (:mod:`repro.core.durability`).  A
snapshot run opens none of its own (each member's commit record names the
run), and a snapshot delete is one ``delete_version`` intent.  Recovery
discards an intent of any other kind and leaves visible state alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.oss.object_store import ObjectStorageService

#: Known intent kinds (validated on begin so typos fail fast).
INTENT_KINDS = ("backup", "compaction", "rewrite", "delete_version", "cache_flush")


@dataclass
class Intent:
    """One journal entry: a job that announced durable side effects."""

    seq: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


class IntentJournal:
    """Sequence-numbered intent records on OSS.

    The journal is an append-mostly keyspace: ``begin`` allocates the next
    sequence number and persists the entry, ``update`` overwrites it in
    place (one atomic put), ``close`` deletes it.  Sequence numbers are
    zero-padded so recovery replays intents in the order the jobs started.
    """

    PREFIX = "journal/"
    _KEY = "journal/{seq:012d}.json"

    def __init__(self, oss: ObjectStorageService, bucket: str = "slimstore") -> None:
        self._oss = oss
        self._bucket = bucket
        self._next_seq = 0
        oss.create_bucket(bucket)

    def _key(self, seq: int) -> str:
        return self._KEY.format(seq=seq)

    # --- lifecycle ---------------------------------------------------------
    def begin(self, kind: str, **payload: Any) -> int:
        """Persist a new intent; returns its sequence number."""
        if kind not in INTENT_KINDS:
            raise ValueError(f"unknown intent kind: {kind}")
        seq = self._next_seq
        self._next_seq += 1
        self._put(seq, kind, payload)
        return seq

    def update(self, seq: int, kind: str, **payload: Any) -> None:
        """Overwrite an open intent with a richer payload (atomic)."""
        self._put(seq, kind, payload)

    def close(self, seq: int) -> None:
        """Delete a finished intent (the job's last write)."""
        self._oss.delete_object(self._bucket, self._key(seq))

    def _put(self, seq: int, kind: str, payload: dict[str, Any]) -> None:
        record = {"kind": kind, "payload": payload}
        self._oss.put_object(
            self._bucket, self._key(seq), json.dumps(record).encode()
        )

    # --- recovery ----------------------------------------------------------
    def recover(self) -> list[Intent]:
        """Load surviving intents (oldest first); resumes the sequence.

        Key enumeration is free (accounting-level peek); each surviving
        entry costs one charged read, which is the honest price of crash
        recovery.
        """
        entries: list[Intent] = []
        highest = -1
        for key in sorted(self._oss.peek_keys(self._bucket, self.PREFIX)):
            stem = key[len(self.PREFIX):]
            if not stem.endswith(".json"):
                continue
            try:
                seq = int(stem[: -len(".json")])
            except ValueError:
                continue
            highest = max(highest, seq)
            record = json.loads(self._oss.get_object(self._bucket, key).decode())
            entries.append(Intent(seq, record["kind"], record.get("payload", {})))
        self._next_seq = highest + 1
        return entries

    def open_intents(self) -> list[Intent]:
        """Surviving intents without resetting the sequence counter."""
        saved = self._next_seq
        entries = self.recover()
        self._next_seq = max(saved, self._next_seq)
        return entries

    def truncate(self) -> int:
        """Delete every surviving entry; returns how many were dropped.

        Recovery calls this after the last intent has been rolled forward
        or discarded, so a clean repository carries an empty journal.
        """
        dropped = 0
        for key in self._oss.peek_keys(self._bucket, self.PREFIX):
            if self._oss.delete_object(self._bucket, key):
                dropped += 1
        return dropped
