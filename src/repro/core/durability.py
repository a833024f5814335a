"""Heat-aware durability tier: replication and erasure over containers.

Deduplication maximizes the blast radius of a lost object: one corrupt
container damages every version sharing its chunks.  Following FASTEN's
insight — balance replication *against* deduplication, giving the most
shared chunks the most copies — a :class:`ReplicationPolicy` assigns each
container a durability class from its live reference count:

* **replicated** (hot, ``refs >= hot_refs``) — ``replica_count`` full
  copies (primary included), each on a distinct simulated fault domain;
* **erasure** (warm, ``refs >= cold_refs``) — the payload joins a
  Reed–Solomon stripe: ``k`` container payloads plus ``m`` parity shards
  spread so no fault domain holds more than ``m`` shards of one stripe,
  making any single-domain outage decodable;
* **single** (singletons) — primary copy only, as before.

The :class:`DurabilityManager` owns the extra objects under the
``durability/`` keyspace: replica copies, parity shards, and its own
state — one record per tiered container and one manifest per stripe —
kept as one :class:`~repro.oss.deltalog.DeltaLog` (checkpoint
``durability/state.json``, records under ``durability/log/``).  A tier
step PUTs its copies or parity first, then appends one log record that
names them: that append is the step's commit point, and memory follows
it.  A crash before the append leaves only keys no committed record
names; :meth:`DurabilityManager.orphan_keys` finds them, attach counts
them as a crash's debris, and the orphan sweep deletes them.  So the crash
matrix's visible-or-nothing contract extends over replica and parity
writes without a journal intent of the tier's own.

The read path falls over in a fixed order — primary → replica → erasure
decode → give up (quarantine stays the caller's last resort) — with every
degraded read issued through the charged OSS API so the virtual cost
model keeps paying for failover traffic.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.core.container import ContainerStore
from repro.core.erasure import ReedSolomon
from repro.errors import (
    ContainerError,
    ObjectNotFoundError,
    RetryExhaustedError,
    TransientOSSError,
)
from repro.fingerprint.hashing import fingerprint
from repro.oss.deltalog import DeltaLog

#: Durability classes, coldest to hottest.
CLASS_SINGLE = "single"
CLASS_ERASURE = "erasure"
CLASS_REPLICATED = "replicated"
#: A container mid two-phase deletion: no live class, retired copies only.
CLASS_DELETED = "deleted"

#: Read failures the failover path absorbs (a crash is terminal and is
#: deliberately absent: it must propagate).
_READ_ERRORS = (ObjectNotFoundError, TransientOSSError, RetryExhaustedError)


def _sha(payload: bytes) -> str:
    return hashlib.sha1(payload).hexdigest()


def _pad(payload: bytes, length: int) -> bytes:
    return payload if len(payload) == length else payload + bytes(length - len(payload))


@dataclass(frozen=True)
class ReplicationPolicy:
    """Heat thresholds and layout parameters of the durability tier.

    ``replica_count`` counts the primary, so hot containers store
    ``replica_count - 1`` extra copies.  Erasure stripes are
    ``(data_shards + parity_shards, data_shards)`` Reed–Solomon codes;
    the constructor proves every stripe survives any single fault-domain
    outage (no domain may ever hold more than ``parity_shards`` shards
    of one stripe, which requires ``k + m <= domains * m``).
    """

    replica_count: int = 3
    hot_refs: int = 3
    cold_refs: int = 2
    data_shards: int = 4
    parity_shards: int = 2
    fault_domains: int = 3

    def __post_init__(self) -> None:
        if self.fault_domains < 2:
            raise ValueError("fault_domains must be >= 2")
        if not 1 <= self.cold_refs <= self.hot_refs:
            raise ValueError("need 1 <= cold_refs <= hot_refs")
        if not 2 <= self.replica_count <= self.fault_domains:
            raise ValueError("need 2 <= replica_count <= fault_domains")
        if self.data_shards < 1 or self.parity_shards < 1:
            raise ValueError("data_shards and parity_shards must be >= 1")
        if self.data_shards + self.parity_shards > 255:
            raise ValueError("k + m must be <= 255 in GF(2^8)")
        if self.data_shards + self.parity_shards > self.fault_domains * self.parity_shards:
            raise ValueError(
                "k + m must be <= fault_domains * m, or a stripe could "
                "lose more than m shards to one domain outage"
            )

    def classify(self, refs: int) -> str:
        """The durability class of a container with ``refs`` references."""
        if refs >= self.hot_refs:
            return CLASS_REPLICATED
        if refs >= self.cold_refs:
            return CLASS_ERASURE
        return CLASS_SINGLE

    def primary_domain(self, container_id: int) -> int:
        """The fault domain a container's primary ``.data`` lives in."""
        return container_id % self.fault_domains

    def to_dict(self) -> dict[str, int]:
        """JSON-friendly form for ``repro.json`` persistence."""
        return {
            "replica_count": self.replica_count,
            "hot_refs": self.hot_refs,
            "cold_refs": self.cold_refs,
            "data_shards": self.data_shards,
            "parity_shards": self.parity_shards,
            "fault_domains": self.fault_domains,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ReplicationPolicy":
        return cls(**{key: int(value) for key, value in raw.items()})


@dataclass
class RetierReport:
    """Outcome of one re-tiering pass over the live containers."""

    examined: int = 0
    #: Containers whose class changed, with ``(cid, old or None, new)``.
    transitions: list[tuple[int, str | None, str]] = field(default_factory=list)
    stripes_built: int = 0
    stripes_retired: int = 0
    copies_written: int = 0
    parity_written: int = 0
    bytes_written: int = 0
    retired_keys: int = 0
    #: Containers whose primary could not be read for tiering (left as-is).
    unreadable: list[int] = field(default_factory=list)
    classes: dict[str, int] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return bool(self.transitions or self.stripes_built or self.stripes_retired)


@dataclass
class DurabilityAudit:
    """fsck findings for the durability tier."""

    records: int = 0
    #: Live containers with no durability record yet (awaiting retier).
    untiered: list[int] = field(default_factory=list)
    #: ``(cid, recorded class, policy class)`` where the tier drifted.
    class_mismatches: list[tuple[int, str, str]] = field(default_factory=list)
    #: Copy/parity objects whose payload hash disagrees with the record.
    divergent_copies: list[tuple[int | None, str]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """No copy disagrees on bytes (class drift is repairable, not rot)."""
        return not self.divergent_copies


class DurabilityManager:
    """Replica/parity bookkeeping and failover reads for one repository."""

    COPY_KEY = "durability/d{dom}/{cid:012d}.copy{i}"
    PARITY_KEY = "durability/d{dom}/stripe{sid:08d}.p{i}"
    PREFIX = "durability/"
    #: The delta log holding every record and stripe manifest.
    STATE_KEY = "durability/state.json"
    LOG_PREFIX = "durability/log/"

    def __init__(
        self,
        containers: ContainerStore,
        policy: ReplicationPolicy,
        fingerprinter=None,
    ) -> None:
        self._containers = containers
        self._oss = containers.oss
        self._bucket = containers._bucket
        self.policy = policy
        self._fingerprint = fingerprinter or fingerprint
        self._records: dict[int, dict[str, Any]] = {}
        self._stripes: dict[int, dict[str, Any]] = {}
        self._next_sid = 0
        self._log = DeltaLog(self._oss, self._bucket, self.STATE_KEY, self.LOG_PREFIX)
        #: Failover counters (cumulative, mirrored into reports by callers).
        self.replica_failovers = 0
        self.erasure_decodes = 0
        self.degraded_chunk_reads = 0

    # ------------------------------------------------------------------
    # The delta log
    # ------------------------------------------------------------------
    def _commit(self, ops: list[list[Any]]) -> None:
        """Publish one tier step: append its ops as one log record (the
        step's commit point), apply them to memory, fold when due.

        An op is ``["record", cid, record]`` or ``["stripe", sid, stripe]``;
        a null entry drops the record or stripe.
        """
        self._log.append(json.dumps(ops).encode())
        for op in ops:
            self._apply(op)
        self._log.fold_if_due(self._checkpoint)

    def _apply(self, op: list[Any]) -> None:
        kind, ident, entry = op
        table = self._records if kind == "record" else self._stripes
        if entry is None:
            table.pop(int(ident), None)
        else:
            table[int(ident)] = entry
        if kind == "stripe":
            self._next_sid = max(self._next_sid, int(ident) + 1)

    def _checkpoint(self, through: int) -> bytes:
        return json.dumps(
            {
                "through": through,
                "next_sid": self._next_sid,
                "records": [self._records[cid] for cid in sorted(self._records)],
                "stripes": [self._stripes[sid] for sid in sorted(self._stripes)],
            }
        ).encode()

    def fold_if_logged(self) -> None:
        """Fold when the log holds records (attach-time housekeeping)."""
        self._log.fold_if_logged(self._checkpoint)

    # ------------------------------------------------------------------
    # Attach / recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Reload records and stripe manifests: the checkpoint, then the
        log's tail; returns the record count.

        Attach costs one GET for the checkpoint plus one per record not yet
        folded, whatever the container count.
        """
        self._records.clear()
        self._stripes.clear()
        self._next_sid = 0
        through = 0
        checkpoint = self._log.read_checkpoint()
        if checkpoint is not None:
            state = json.loads(checkpoint)
            through = int(state["through"])
            self._next_sid = int(state["next_sid"])
            for record in state["records"]:
                self._records[int(record["cid"])] = record
            for stripe in state["stripes"]:
                self._stripes[int(stripe["sid"])] = stripe
        for blob in self._log.read_tail(through):
            for op in json.loads(blob):
                self._apply(op)
        return len(self._records)

    def _referenced_keys(self) -> set[str]:
        """Every durability key the committed state names: the log's own
        objects, each record's copies and each stripe's parity (live or
        retired)."""
        keys = {self.STATE_KEY, *self._log.record_keys()}
        for record in self._records.values():
            keys.update(copy["key"] for copy in record.get("copies", []))
            keys.update(retired["key"] for retired in record.get("retired", []))
        for stripe in self._stripes.values():
            keys.update(parity["key"] for parity in stripe.get("parity", []))
            keys.update(retired["key"] for retired in stripe.get("retired", []))
        return keys

    def orphan_keys(self) -> list[str]:
        """Durability objects no committed state names (free: a key peek).

        A tier step that died before its log append leaves exactly such
        keys, so attach counts them as a crash's debris and fsck reports
        them; :meth:`collect_orphans` deletes them.
        """
        referenced = self._referenced_keys()
        return sorted(
            key
            for key in self._oss.peek_keys(self._bucket, self.PREFIX)
            if key not in referenced
        )

    def collect_orphans(self) -> list[str]:
        """Delete :meth:`orphan_keys` with batched DELETEs; returns them.

        Run by attach-time recovery: this is the "no orphaned replica
        bytes" guarantee the crash matrix asserts.
        """
        orphans = self.orphan_keys()
        self._oss.delete_objects(self._bucket, orphans)
        return orphans

    # ------------------------------------------------------------------
    # Tiering
    # ------------------------------------------------------------------
    def classes(self) -> dict[int, str]:
        """Current durability class per recorded container."""
        return {
            cid: record["class"]
            for cid, record in self._records.items()
            if record["class"] != CLASS_DELETED
        }

    def record_for(self, cid: int) -> dict[str, Any] | None:
        return self._records.get(cid)

    def retier(
        self,
        refcounts: dict[int, int],
        container_ids: list[int] | None = None,
    ) -> RetierReport:
        """Promote/demote containers whose heat drifted from their class.

        Runs as part of G-node maintenance.  The pass PUTs every copy and
        parity shard it needs, then commits all its changes with one log
        append, so a crash mid-pass leaves the tier as it was (its PUTs are
        debris the attach sweep removes); the next pass converges.
        """
        report = RetierReport()
        ids = sorted(
            container_ids
            if container_ids is not None
            else self._containers.container_ids()
        )
        report.examined = len(ids)
        targets = {cid: self.policy.classify(refcounts.get(cid, 0)) for cid in ids}
        erasure_targets = {cid for cid, cls in targets.items() if cls == CLASS_ERASURE}

        # Stripes stay canonical: every member must still be a live
        # erasure-class target recorded against this stripe, else the
        # stripe is rebuilt from its surviving erasure members.
        settled: set[int] = set()
        stale_stripes: list[int] = []
        for sid, stripe in sorted(self._stripes.items()):
            if not stripe["members"] and not stripe.get("parity"):
                continue  # retired: its parity waits out the grace window
            members = [m for m in stripe["members"] if m.get("live", True)]
            cids = [int(m["cid"]) for m in members]
            if members and all(
                cid in erasure_targets
                and self._records.get(cid) is not None
                and self._records[cid].get("stripe") == sid
                for cid in cids
            ):
                settled.update(cids)
            else:
                stale_stripes.append(sid)

        ops: list[list[Any]] = []
        for cid in ids:
            target = targets[cid]
            if target == CLASS_ERASURE:
                continue  # striped below
            record = self._records.get(cid)
            if record is not None and record["class"] == target:
                continue
            ops += self._apply_simple(cid, target, report)

        pending = sorted(erasure_targets - settled)
        if pending:
            ops += self._apply_stripes(pending, report)
        for sid in stale_stripes:
            ops += self._retire_stripe(sid, report)
        if ops:
            self._commit(ops)

        for record in self._records.values():
            if record["class"] != CLASS_DELETED:
                report.classes[record["class"]] = (
                    report.classes.get(record["class"], 0) + 1
                )
        return report

    # Each step below PUTs its copies or parity and returns the ops that
    # publish them; its caller commits them (memory is not touched here).
    def _apply_simple(
        self, cid: int, target: str, report: RetierReport
    ) -> list[list[Any]]:
        """Tier one container to ``single`` or ``replicated``."""
        record = self._records.get(cid)
        payload = self._stable_read(
            ContainerStore.DATA_KEY.format(cid=cid),
            expect_sha=record["sha"] if record else None,
        )
        if payload is None:
            report.unreadable.append(cid)
            return []
        copies: list[dict[str, Any]] = []
        if target == CLASS_REPLICATED:
            primary_dom = self.policy.primary_domain(cid)
            domains = [
                dom
                for dom in range(self.policy.fault_domains)
                if dom != primary_dom
            ][: self.policy.replica_count - 1]
            copies = [
                {"key": self.COPY_KEY.format(dom=dom, cid=cid, i=i), "domain": dom}
                for i, dom in enumerate(domains)
            ]
        for copy in copies:
            self._oss.put_object(self._bucket, copy["key"], payload)
            report.copies_written += 1
            report.bytes_written += len(payload)
        report.transitions.append((cid, record["class"] if record else None, target))
        return [self._record_op(cid, target, _sha(payload), len(payload), copies, None)]

    def _record_op(
        self,
        cid: int,
        target: str,
        sha: str,
        length: int,
        copies: list[dict[str, Any]],
        stripe_sid: int | None,
    ) -> list[Any]:
        """The op publishing a container's new class: copies it no longer
        keeps are retired, and a key it keeps again leaves ``retired`` (a
        re-promotion inside the grace window rewrote it, so a reap must not
        delete it)."""
        old = self._records.get(cid) or {}
        keep = {copy["key"] for copy in copies}
        retired = [entry for entry in old.get("retired", []) if entry["key"] not in keep]
        known = {entry["key"] for entry in retired}
        epoch = self._containers.current_epoch
        for copy in old.get("copies", []):
            if copy["key"] not in keep and copy["key"] not in known:
                retired.append({"key": copy["key"], "epoch": epoch})
        record = {
            "cid": cid,
            "class": target,
            "sha": sha,
            "length": length,
            "copies": copies,
            "stripe": stripe_sid,
            "retired": retired,
        }
        return ["record", cid, record]

    # --- stripes -------------------------------------------------------
    def _apply_stripes(self, cids: list[int], report: RetierReport) -> list[list[Any]]:
        items: list[tuple[int, bytes]] = []
        for cid in cids:
            record = self._records.get(cid)
            payload = self._stable_read(
                ContainerStore.DATA_KEY.format(cid=cid),
                expect_sha=record["sha"] if record else None,
            )
            if payload is None:
                report.unreadable.append(cid)
                continue
            items.append((cid, payload))
        return [
            op
            for group in self._group_for_stripes(items)
            for op in self._write_stripe(group, report)
        ]

    def _group_for_stripes(
        self, items: list[tuple[int, bytes]]
    ) -> list[list[tuple[int, bytes]]]:
        """Pack members so no fault domain holds more than ``m`` shards.

        Greedy: a member joins the current stripe unless it would exceed
        ``k`` members, put more than ``m`` member shards in its primary's
        domain, or squeeze out the ``m`` parity slots the total capacity
        ``domains * m`` must still hold.
        """
        policy = self.policy
        domains, k, m = policy.fault_domains, policy.data_shards, policy.parity_shards
        groups: list[list[tuple[int, bytes]]] = []
        current: list[tuple[int, bytes]] = []
        counts = [0] * domains
        for cid, payload in items:
            dom = policy.primary_domain(cid)
            if (
                len(current) >= k
                or counts[dom] >= m
                or len(current) + 1 > (domains - 1) * m
            ):
                groups.append(current)
                current, counts = [], [0] * domains
                dom = policy.primary_domain(cid)
            current.append((cid, payload))
            counts[dom] += 1
        if current:
            groups.append(current)
        return groups

    def _write_stripe(
        self, group: list[tuple[int, bytes]], report: RetierReport
    ) -> list[list[Any]]:
        """Encode one stripe: its manifest and its members' records."""
        policy = self.policy
        k, m = policy.data_shards, policy.parity_shards
        sid = self._next_sid
        self._next_sid += 1
        shard_len = max(len(payload) for _, payload in group)
        shards = [_pad(payload, shard_len) for _, payload in group]
        shards += [bytes(shard_len)] * (k - len(shards))
        parity_blobs = ReedSolomon(k, m).encode(shards)

        counts = [0] * policy.fault_domains
        for cid, _ in group:
            counts[policy.primary_domain(cid)] += 1
        parity: list[dict[str, Any]] = []
        for i, blob in enumerate(parity_blobs):
            dom = min(range(policy.fault_domains), key=lambda d: (counts[d], d))
            counts[dom] += 1
            parity.append(
                {
                    "key": self.PARITY_KEY.format(dom=dom, sid=sid, i=i),
                    "domain": dom,
                    "shard": k + i,
                    "sha": _sha(blob),
                }
            )
        members = [
            {
                "cid": cid,
                "shard": index,
                "length": len(payload),
                "sha": _sha(payload),
                "live": True,
            }
            for index, (cid, payload) in enumerate(group)
        ]
        for entry, blob in zip(parity, parity_blobs):
            self._oss.put_object(self._bucket, entry["key"], blob)
            report.parity_written += 1
            report.bytes_written += len(blob)
        stripe = {
            "sid": sid,
            "k": k,
            "m": m,
            "shard_len": shard_len,
            "members": members,
            "parity": parity,
            "retired": [],
        }
        ops = [["stripe", sid, stripe]]
        for member in members:
            cid = member["cid"]
            old = self._records.get(cid)
            report.transitions.append((cid, old["class"] if old else None, CLASS_ERASURE))
            ops.append(
                self._record_op(
                    cid, CLASS_ERASURE, member["sha"], member["length"], [], sid
                )
            )
        report.stripes_built += 1
        return ops

    def _retire_stripe(self, sid: int, report: RetierReport) -> list[list[Any]]:
        """Retire a stale stripe's parity into the two-phase grace window."""
        stripe = self._stripes.get(sid)
        if stripe is None:
            return []
        epoch = self._containers.current_epoch
        retired = list(stripe.get("retired", []))
        for parity in stripe.get("parity", []):
            retired.append({"key": parity["key"], "epoch": epoch})
            report.retired_keys += 1
        entry = (
            {**stripe, "members": [], "parity": [], "retired": retired}
            if retired
            else None
        )
        report.stripes_retired += 1
        return [["stripe", sid, entry]]

    # ------------------------------------------------------------------
    # Container-store hooks
    # ------------------------------------------------------------------
    def on_payload_changed(self, cid: int, payload: bytes) -> None:
        """Refresh copies/parity after a rewrite or in-place repair.

        A replicated container's copies are the tier's only in-place
        overwrite.  Both callers change the primary inside a ``rewrite``
        intent whose recovery re-runs this hook, so a crash between the
        copy PUTs and the log append is finished on attach.
        """
        record = self._records.get(cid)
        if record is None or record["class"] == CLASS_DELETED:
            return
        sha, length = _sha(payload), len(payload)
        if record["sha"] == sha and record["length"] == length:
            return
        if record["class"] == CLASS_REPLICATED:
            for copy in record["copies"]:
                self._oss.put_object(self._bucket, copy["key"], payload)
            self._commit(
                [
                    self._record_op(
                        cid, CLASS_REPLICATED, sha, length, record["copies"], None
                    )
                ]
            )
        elif record["class"] == CLASS_ERASURE and record.get("stripe") is not None:
            self._restripe(record["stripe"], overrides={cid: payload})
        else:
            self._commit([self._record_op(cid, record["class"], sha, length, [], None)])

    def _restripe(self, sid: int, overrides: dict[int, bytes]) -> None:
        """Re-encode a stripe into a fresh sid and retire the old one, in one
        append (never overwrite parity in place: the old stripe stays
        decodable until the new one commits)."""
        stripe = self._stripes.get(sid)
        if stripe is None:
            return
        report = RetierReport()
        group: list[tuple[int, bytes]] = []
        for member in stripe["members"]:
            cid = int(member["cid"])
            if not member.get("live", True) or not self._containers.exists(cid):
                continue
            if cid in overrides:
                group.append((cid, overrides[cid]))
                continue
            payload = self._stable_read(
                ContainerStore.DATA_KEY.format(cid=cid), expect_sha=member["sha"]
            )
            if payload is None:
                decoded = self._decode_member_payload(self._records.get(cid))
                if decoded is None:
                    continue  # unreadable member drops out of the stripe
                payload = decoded
            group.append((cid, payload))
        ops = [
            op
            for subgroup in self._group_for_stripes(group)
            for op in self._write_stripe(subgroup, report)
        ]
        self._commit(ops + self._retire_stripe(sid, report))

    def on_deleted(self, cid: int, immediate: bool = False) -> None:
        """Container left the live set: retire (or drop) its extra copies.

        ``immediate`` deletion (purge, reap) drops the record, then
        deletes its copies with one batched DELETE (a crash in between
        leaves orphans for the attach sweep); an entomb retires the copies
        into the same grace window as the container's tombstone, reaped by
        :meth:`reap_retired` alongside two-phase deletion.
        """
        record = self._records.get(cid)
        if record is None:
            return
        ops = []
        stripe_sid = record.get("stripe")
        stripe = self._stripes.get(stripe_sid) if stripe_sid is not None else None
        if stripe is not None:
            members = [
                {**member, "live": False} if int(member["cid"]) == cid else member
                for member in stripe["members"]
            ]
            ops.append(["stripe", stripe_sid, {**stripe, "members": members}])
        if immediate:
            ops.append(["record", cid, None])
            self._commit(ops)
            self._oss.delete_objects(
                self._bucket,
                [entry["key"] for entry in record.get("copies", []) + record.get("retired", [])],
            )
            return
        epoch = self._containers.current_epoch
        retired = list(record.get("retired", []))
        for copy in record.get("copies", []):
            retired.append({"key": copy["key"], "epoch": epoch})
        deleted = {
            "cid": cid,
            "class": CLASS_DELETED,
            "sha": record["sha"],
            "length": record["length"],
            "copies": [],
            "stripe": None,
            "retired": retired,
        }
        self._commit([*ops, ["record", cid, deleted]])

    def reap_retired(self) -> tuple[int, int]:
        """Physically delete retired copies past their grace window.

        Joins ``deep_clean``'s two-phase deletion sweep as one step: one
        append drops the expired entries, then one batched DELETE removes
        their keys (a crash in between leaves orphans for the attach
        sweep).  Returns ``(bytes reclaimed, keys deleted)``.
        """
        grace = self._containers.grace_epochs
        epoch = self._containers.current_epoch
        ops: list[list[Any]] = []
        doomed: list[str] = []

        def expire(entry: dict[str, Any]) -> bool:
            if int(entry["epoch"]) + grace <= epoch:
                doomed.append(entry["key"])
                return True
            return False

        for cid, record in sorted(self._records.items()):
            retired = record.get("retired", [])
            keep = [entry for entry in retired if not expire(entry)]
            if len(keep) == len(retired):
                continue
            if record["class"] == CLASS_DELETED and not keep:
                ops.append(["record", cid, None])
            else:
                ops.append(["record", cid, {**record, "retired": keep}])
        for sid, stripe in sorted(self._stripes.items()):
            retired = stripe.get("retired", [])
            keep = [entry for entry in retired if not expire(entry)]
            if not keep and not stripe.get("members") and not stripe.get("parity"):
                ops.append(["stripe", sid, None])
            elif len(keep) != len(retired):
                ops.append(["stripe", sid, {**stripe, "retired": keep}])
        if not ops:
            return 0, 0
        sizes = [self._oss.peek_size(self._bucket, key) for key in doomed]
        self._commit(ops)
        self._oss.delete_objects(self._bucket, doomed)
        present = [size for size in sizes if size is not None]
        return sum(present), len(present)

    # ------------------------------------------------------------------
    # Failover reads
    # ------------------------------------------------------------------
    def _try_get(self, key: str) -> bytes | None:
        try:
            return self._oss.get_object(self._bucket, key)
        except _READ_ERRORS:
            return None

    def _stable_read(self, key: str, expect_sha: str | None = None) -> bytes | None:
        """A read trusted against in-flight bit flips.

        If an expected SHA is known, reads retry (bounded) until it
        matches.  Otherwise, under a corrupting fault policy, two
        consecutive identical reads are required — independent single-bit
        flips cannot produce the same wrong payload twice in a row.
        """
        faults = getattr(self._oss, "faults", None)
        corrupting = faults is not None and faults.corrupt_read_rate > 0
        previous = None
        for _ in range(4):
            payload = self._try_get(key)
            if payload is None:
                return None
            if expect_sha is not None:
                if _sha(payload) == expect_sha:
                    return payload
                if not corrupting:
                    return payload  # genuinely changed, not in-flight rot
                continue
            if not corrupting:
                return payload
            if previous is not None and payload == previous:
                return payload
            previous = payload
        return previous

    def primary_missing(self, cid: int) -> bool:
        """True when the primary ``.data`` object is gone (free peek)."""
        return (
            self._oss.peek_size(
                self._bucket, ContainerStore.DATA_KEY.format(cid=cid)
            )
            is None
        )

    def recorded_length(self, cid: int) -> int | None:
        """The payload length the durability record vouches for."""
        record = self._records.get(cid)
        if record is None or record["class"] == CLASS_DELETED:
            return None
        return int(record["length"])

    def verified_payload(self, cid: int) -> bytes | None:
        """SHA-verified container payload: primary → replica → decode.

        Every attempt is a charged OSS read, so degraded reads pay their
        honest virtual-time price.  Returns None only when no source can
        produce bytes matching the recorded hash — the caller's
        quarantine path stays the last resort.
        """
        record = self._records.get(cid)
        if record is None or record["class"] == CLASS_DELETED:
            return None
        sha = record["sha"]
        for _ in range(2):
            payload = self._try_get(ContainerStore.DATA_KEY.format(cid=cid))
            if payload is None:
                break
            if _sha(payload) == sha:
                return payload
        for copy in record.get("copies", []):
            for _ in range(2):
                payload = self._try_get(copy["key"])
                if payload is None:
                    break
                if _sha(payload) == sha:
                    self.replica_failovers += 1
                    return payload
        payload = self._decode_member_payload(record)
        if payload is not None:
            self.erasure_decodes += 1
        return payload

    def _decode_member_payload(self, record: dict[str, Any] | None) -> bytes | None:
        """Rebuild one member's payload from its stripe's surviving shards."""
        if record is None or record.get("stripe") is None:
            return None
        stripe = self._stripes.get(int(record["stripe"]))
        if stripe is None:
            return None
        k, m = int(stripe["k"]), int(stripe["m"])
        shard_len = int(stripe["shard_len"])
        my_shard = None
        available: dict[int, bytes] = {}
        # Slots never occupied by a member are known zero shards.
        occupied = {int(member["shard"]) for member in stripe["members"]}
        for index in range(k):
            if index not in occupied:
                available[index] = bytes(shard_len)
        for member in stripe["members"]:
            cid = int(member["cid"])
            if cid == int(record["cid"]):
                my_shard = int(member["shard"])
                continue
            if len(available) >= k:
                continue
            payload = self._stable_read(
                ContainerStore.DATA_KEY.format(cid=cid), expect_sha=member["sha"]
            )
            if payload is not None and _sha(payload) == member["sha"]:
                available[int(member["shard"])] = _pad(payload, shard_len)
        if my_shard is None:
            return None
        for parity in stripe["parity"]:
            if len(available) >= k:
                break
            blob = self._stable_read(parity["key"], expect_sha=parity["sha"])
            if blob is not None and _sha(blob) == parity["sha"]:
                available[int(parity["shard"])] = blob
        if len(available) < k:
            return None
        shards = ReedSolomon(k, m).decode(available, shard_len)
        payload = shards[my_shard][: int(record["length"])]
        return payload if _sha(payload) == record["sha"] else None

    def fetch_chunk(self, cid: int, fp: bytes) -> bytes | None:
        """A verified chunk payload served through the failover path.

        Used by restore verification and scrub repair when the primary
        bytes fail their fingerprint: the whole-container payload is
        fetched from the healthiest source, then sliced by a (re-read
        until sane) metadata entry and fingerprint-checked.
        """
        payload = self.verified_payload(cid)
        if payload is None:
            return None
        for _ in range(3):
            try:
                meta = self._containers.read_meta(cid)
            except _READ_ERRORS:
                return None
            except (ContainerError, struct.error):
                continue  # bit-flipped metadata: re-read
            entry = meta.find(fp)
            if entry is None:
                continue
            chunk = payload[entry.offset : entry.offset + entry.size]
            if len(chunk) == entry.size and self._fingerprint(chunk) == fp:
                self.degraded_chunk_reads += 1
                return chunk
        return None

    # ------------------------------------------------------------------
    # Audit / accounting
    # ------------------------------------------------------------------
    def audit(self, refcounts: dict[int, int]) -> DurabilityAudit:
        """fsck pass: class-matches-policy and copies-agree-on-hash."""
        audit = DurabilityAudit()
        live = set(self._containers.container_ids())
        audit.records = sum(
            1 for r in self._records.values() if r["class"] != CLASS_DELETED
        )
        audit.untiered = sorted(cid for cid in live if cid not in self._records)
        for cid in sorted(live & set(self._records)):
            record = self._records[cid]
            if record["class"] == CLASS_DELETED:
                continue
            target = self.policy.classify(refcounts.get(cid, 0))
            if record["class"] != target:
                audit.class_mismatches.append((cid, record["class"], target))
            for copy in record.get("copies", []):
                payload = self._stable_read(copy["key"], expect_sha=record["sha"])
                if payload is None or _sha(payload) != record["sha"]:
                    audit.divergent_copies.append((cid, copy["key"]))
        for sid, stripe in sorted(self._stripes.items()):
            for parity in stripe.get("parity", []):
                blob = self._stable_read(parity["key"], expect_sha=parity["sha"])
                if blob is None or _sha(blob) != parity["sha"]:
                    audit.divergent_copies.append((None, parity["key"]))
        return audit

    def repair_divergent(self, audit: DurabilityAudit) -> int:
        """Re-sync the divergent copies an :meth:`audit` found.

        Replica copies are re-put from the SHA-verified payload of any
        healthy source; a divergent parity shard re-encodes its whole
        stripe into a fresh one (parity is never overwritten in place).
        Returns the number of keys repaired.
        """
        repaired = 0
        restriped: set[int] = set()
        for cid, key in audit.divergent_copies:
            if cid is None:
                for sid, stripe in sorted(self._stripes.items()):
                    if sid in restriped:
                        continue
                    if any(p["key"] == key for p in stripe.get("parity", [])):
                        self._restripe(sid, {})
                        restriped.add(sid)
                        repaired += 1
                        break
                continue
            payload = self.verified_payload(cid)
            if payload is None:
                continue
            self._oss.put_object(self._bucket, key, payload)
            repaired += 1
        return repaired

    def stored_bytes(self) -> int:
        """Bytes held by the durability keyspace (accounting only, free)."""
        return sum(
            self._oss.peek_size(self._bucket, key) or 0
            for key in self._oss.peek_keys(self._bucket, self.PREFIX)
        )
