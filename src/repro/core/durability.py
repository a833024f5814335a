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
``durability/`` keyspace: per-container records, stripe manifests,
replica copies and parity shards.  Every tier change is journaled as a
``durability`` intent *before* its side-effect writes, with the record
(or stripe manifest) put as the single atomic commit — so the crash
matrix's visible-or-nothing contract extends over replica and parity
writes, and recovery can always roll an interrupted tier change forward
or sweep its planned keys without leaving orphaned replica bytes.

The read path falls over in a fixed order — primary → replica → erasure
decode → give up (quarantine stays the caller's last resort) — with every
degraded read issued through the charged OSS API so the virtual cost
model keeps paying for failover traffic.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.container import ContainerStore
from repro.core.erasure import ReedSolomon
from repro.errors import (
    ContainerError,
    ObjectNotFoundError,
    RetryExhaustedError,
    TransientOSSError,
)
from repro.fingerprint.hashing import fingerprint

if TYPE_CHECKING:
    from repro.core.journal import IntentJournal

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

    RECORD_KEY = "durability/records/{cid:012d}.json"
    STRIPE_KEY = "durability/stripes/{sid:08d}.json"
    COPY_KEY = "durability/d{dom}/{cid:012d}.copy{i}"
    PARITY_KEY = "durability/d{dom}/stripe{sid:08d}.p{i}"
    PREFIX = "durability/"

    def __init__(
        self,
        containers: ContainerStore,
        policy: ReplicationPolicy,
        journal: "IntentJournal | None" = None,
        fingerprinter=None,
    ) -> None:
        self._containers = containers
        self._oss = containers.oss
        self._bucket = containers._bucket
        self.policy = policy
        self.journal = journal
        self._fingerprint = fingerprinter or fingerprint
        self._records: dict[int, dict[str, Any]] = {}
        self._stripes: dict[int, dict[str, Any]] = {}
        self._next_sid = 0
        #: Failover counters (cumulative, mirrored into reports by callers).
        self.replica_failovers = 0
        self.erasure_decodes = 0
        self.degraded_chunk_reads = 0

    # ------------------------------------------------------------------
    # JSON object helpers
    # ------------------------------------------------------------------
    def _get_json(self, key: str) -> dict[str, Any]:
        import json

        return json.loads(self._oss.get_object(self._bucket, key).decode())

    def _put_json(self, key: str, obj: dict[str, Any]) -> None:
        import json

        self._oss.put_object(self._bucket, key, json.dumps(obj).encode())

    def _save_record(self, record: dict[str, Any]) -> None:
        """Persist a container record — the atomic commit of a tier change."""
        self._put_json(self.RECORD_KEY.format(cid=record["cid"]), record)
        self._records[record["cid"]] = record

    def _drop_record(self, cid: int) -> None:
        self._oss.delete_object(self._bucket, self.RECORD_KEY.format(cid=cid))
        self._records.pop(cid, None)

    def _save_stripe(self, stripe: dict[str, Any]) -> None:
        self._put_json(self.STRIPE_KEY.format(sid=stripe["sid"]), stripe)
        self._stripes[stripe["sid"]] = stripe

    def _drop_stripe(self, sid: int) -> None:
        self._oss.delete_object(self._bucket, self.STRIPE_KEY.format(sid=sid))
        self._stripes.pop(sid, None)

    # ------------------------------------------------------------------
    # Attach / recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Reload records and stripe manifests from OSS; returns the count.

        Key enumeration is free; each surviving manifest costs one
        charged read (the honest price of attaching).
        """
        self._records.clear()
        self._stripes.clear()
        highest_sid = -1
        for key in sorted(self._oss.peek_keys(self._bucket, "durability/records/")):
            try:
                record = self._get_json(key)
                self._records[int(record["cid"])] = record
            except (ValueError, KeyError, TypeError):
                continue  # malformed manifest: orphan sweep collects it
        for key in sorted(self._oss.peek_keys(self._bucket, "durability/stripes/")):
            try:
                stripe = self._get_json(key)
                self._stripes[int(stripe["sid"])] = stripe
                highest_sid = max(highest_sid, int(stripe["sid"]))
            except (ValueError, KeyError, TypeError):
                continue
        self._next_sid = highest_sid + 1
        return len(self._records)

    def resolve_intent(self, payload: dict[str, Any]) -> str:
        """Roll a ``durability`` intent forward or sweep its side effects.

        The commit point of a tier change is its record (or stripe
        manifest) put.  If the primary payload still matches the intent's
        SHA the change is deterministically re-applied (idempotent: the
        planned keys are fixed in the intent); otherwise the planned keys
        that no committed record references are deleted, restoring the
        exact pre-intent state.
        """
        op = payload.get("op")
        if op == "stripe":
            return self._resolve_stripe_intent(payload)
        if op == "tier":
            return self._resolve_tier_intent(payload)
        self._sweep_planned(payload.get("planned", []))
        return "discarded"

    def _resolve_tier_intent(self, payload: dict[str, Any]) -> str:
        cid = int(payload["cid"])
        target = payload["target"]
        sha = payload["sha"]
        planned = list(payload.get("planned", []))
        if not self._containers.exists(cid):
            self._sweep_planned(planned)
            return "discarded"
        primary = self._stable_read(ContainerStore.DATA_KEY.format(cid=cid))
        if primary is None or _sha(primary) != sha:
            # The payload the intent tiered never settled (or changed
            # under a rolled-back rewrite): sweep anything unreferenced.
            self._sweep_planned(planned)
            return "discarded"
        for key in planned:
            self._oss.put_object(self._bucket, key, primary)
        copies = [
            {"key": key, "domain": self._key_domain(key)} for key in planned
        ]
        self._commit_record(cid, target, _sha(primary), len(primary), copies, None)
        return "rolled_forward"

    def _resolve_stripe_intent(self, payload: dict[str, Any]) -> str:
        sid = int(payload["sid"])
        stripe = self._stripes.get(sid)
        if stripe is None:
            # Crash before the manifest commit: nothing references the
            # parity writes, so they are pure debris.
            self._sweep_planned(payload.get("planned", []))
            return "discarded"
        for member in stripe["members"]:
            cid = int(member["cid"])
            if not member.get("live", True) or not self._containers.exists(cid):
                continue
            record = self._records.get(cid)
            if record is not None and record.get("stripe") == sid:
                continue
            self._commit_record(
                cid, CLASS_ERASURE, member["sha"], member["length"], [], sid
            )
        return "rolled_forward"

    def _key_domain(self, key: str) -> int:
        """The fault domain a ``durability/d<N>/...`` key is placed in."""
        head, _, _ = key[len(self.PREFIX) + 1 :].partition("/")
        return int(head)

    def _sweep_planned(self, planned: list[str]) -> int:
        referenced = self._referenced_keys()
        swept = 0
        for key in planned:
            if key in referenced:
                continue
            if self._oss.delete_object(self._bucket, key):
                swept += 1
        return swept

    def _referenced_keys(self) -> set[str]:
        """Every durability key a committed record or stripe points at."""
        keys: set[str] = set()
        for cid, record in self._records.items():
            keys.add(self.RECORD_KEY.format(cid=cid))
            for copy in record.get("copies", []):
                keys.add(copy["key"])
            for retired in record.get("retired", []):
                keys.add(retired["key"])
        for sid, stripe in self._stripes.items():
            keys.add(self.STRIPE_KEY.format(sid=sid))
            for parity in stripe.get("parity", []):
                keys.add(parity["key"])
            for retired in stripe.get("retired", []):
                keys.add(retired["key"])
        return keys

    def collect_orphans(self) -> list[str]:
        """Delete durability objects nothing references; returns their keys.

        Run by attach-time recovery after intents resolve: together with
        the journaled tier changes this is the "no orphaned replica
        bytes" guarantee the crash matrix asserts.
        """
        referenced = self._referenced_keys()
        orphans = [
            key
            for key in self._oss.peek_keys(self._bucket, self.PREFIX)
            if key not in referenced
        ]
        for key in orphans:
            self._oss.delete_object(self._bucket, key)
        return sorted(orphans)

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

        Runs as part of G-node maintenance.  Each tier change is its own
        journaled, atomically-committed step, so a crash mid-pass leaves
        every container either fully re-tiered or untouched; the next
        pass converges the rest.
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

        for cid in ids:
            target = targets[cid]
            if target == CLASS_ERASURE:
                continue  # striped below
            record = self._records.get(cid)
            if record is not None and record["class"] == target:
                continue
            self._apply_simple(cid, target, report)

        pending = sorted(erasure_targets - settled)
        if pending:
            self._apply_stripes(pending, report)
        for sid in stale_stripes:
            self._retire_stripe(sid, report)

        for record in self._records.values():
            if record["class"] != CLASS_DELETED:
                report.classes[record["class"]] = (
                    report.classes.get(record["class"], 0) + 1
                )
        return report

    def _apply_simple(self, cid: int, target: str, report: RetierReport) -> None:
        """Tier one container to ``single`` or ``replicated`` (journaled)."""
        record = self._records.get(cid)
        payload = self._stable_read(
            ContainerStore.DATA_KEY.format(cid=cid),
            expect_sha=record["sha"] if record else None,
        )
        if payload is None:
            report.unreadable.append(cid)
            return
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
        planned = [copy["key"] for copy in copies]
        seq = None
        if self.journal is not None:
            seq = self.journal.begin(
                "durability",
                op="tier",
                cid=cid,
                target=target,
                sha=_sha(payload),
                planned=planned,
            )
        for copy in copies:
            self._oss.put_object(self._bucket, copy["key"], payload)
            report.copies_written += 1
            report.bytes_written += len(payload)
        old_class = record["class"] if record else None
        self._commit_record(cid, target, _sha(payload), len(payload), copies, None)
        if seq is not None:
            self.journal.close(seq)
        report.transitions.append((cid, old_class, target))

    def _commit_record(
        self,
        cid: int,
        target: str,
        sha: str,
        length: int,
        copies: list[dict[str, Any]],
        stripe_sid: int | None,
    ) -> None:
        """Atomically publish a container's new class, retiring old copies."""
        old = self._records.get(cid)
        epoch = self._containers.current_epoch
        retired = list(old.get("retired", [])) if old else []
        keep = {copy["key"] for copy in copies}
        if old is not None:
            for copy in old.get("copies", []):
                if copy["key"] not in keep and not any(
                    r["key"] == copy["key"] for r in retired
                ):
                    retired.append({"key": copy["key"], "epoch": epoch})
        self._save_record(
            {
                "cid": cid,
                "class": target,
                "sha": sha,
                "length": length,
                "copies": copies,
                "stripe": stripe_sid,
                "retired": retired,
            }
        )

    # --- stripes -------------------------------------------------------
    def _apply_stripes(self, cids: list[int], report: RetierReport) -> None:
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
        for group in self._group_for_stripes(items):
            self._write_stripe(group, report)

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
    ) -> None:
        """Encode and commit one stripe (journaled; manifest is the commit)."""
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
        planned = [entry["key"] for entry in parity] + [
            self.STRIPE_KEY.format(sid=sid)
        ]
        seq = None
        if self.journal is not None:
            seq = self.journal.begin(
                "durability", op="stripe", sid=sid, planned=planned
            )
        for entry, blob in zip(parity, parity_blobs):
            self._oss.put_object(self._bucket, entry["key"], blob)
            report.parity_written += 1
            report.bytes_written += len(blob)
        self._save_stripe(
            {
                "sid": sid,
                "k": k,
                "m": m,
                "shard_len": shard_len,
                "members": members,
                "parity": parity,
                "retired": [],
            }
        )
        for member, (cid, payload) in zip(members, group):
            old = self._records.get(cid)
            old_class = old["class"] if old else None
            self._commit_record(
                cid, CLASS_ERASURE, member["sha"], member["length"], [], sid
            )
            report.transitions.append((cid, old_class, CLASS_ERASURE))
        if seq is not None:
            self.journal.close(seq)
        report.stripes_built += 1

    def _retire_stripe(self, sid: int, report: RetierReport) -> None:
        """Retire a stale stripe's parity into the two-phase grace window."""
        stripe = self._stripes.get(sid)
        if stripe is None:
            return
        epoch = self._containers.current_epoch
        retired = list(stripe.get("retired", []))
        for parity in stripe.get("parity", []):
            retired.append({"key": parity["key"], "epoch": epoch})
            report.retired_keys += 1
        if not retired:
            self._drop_stripe(sid)
        else:
            self._save_stripe(
                {**stripe, "members": [], "parity": [], "retired": retired}
            )
        report.stripes_retired += 1

    # ------------------------------------------------------------------
    # Container-store hooks
    # ------------------------------------------------------------------
    def on_payload_changed(self, cid: int, payload: bytes) -> None:
        """Refresh copies/parity after a rewrite or in-place repair."""
        record = self._records.get(cid)
        if record is None or record["class"] == CLASS_DELETED:
            return
        sha, length = _sha(payload), len(payload)
        if record["sha"] == sha and record["length"] == length:
            return
        if record["class"] == CLASS_REPLICATED:
            planned = [copy["key"] for copy in record["copies"]]
            seq = None
            if self.journal is not None:
                seq = self.journal.begin(
                    "durability",
                    op="tier",
                    cid=cid,
                    target=CLASS_REPLICATED,
                    sha=sha,
                    planned=planned,
                )
            for copy in record["copies"]:
                self._oss.put_object(self._bucket, copy["key"], payload)
            self._commit_record(
                cid, CLASS_REPLICATED, sha, length, record["copies"], None
            )
            if seq is not None:
                self.journal.close(seq)
        elif record["class"] == CLASS_ERASURE and record.get("stripe") is not None:
            self._restripe(record["stripe"], overrides={cid: payload})
        else:
            self._commit_record(cid, record["class"], sha, length, [], None)

    def _restripe(self, sid: int, overrides: dict[int, bytes]) -> None:
        """Re-encode a stripe into a fresh sid (never overwrite parity in
        place: the old stripe stays decodable until the new one commits)."""
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
        for subgroup in self._group_for_stripes(group):
            self._write_stripe(subgroup, report)
        self._retire_stripe(sid, report)

    def on_deleted(self, cid: int, immediate: bool = False) -> None:
        """Container left the live set: retire (or drop) its extra copies.

        ``immediate`` deletion (purge, reap) removes the copies and the
        record outright; an entomb retires the copies into the same grace
        window as the container's tombstone, reaped by
        :meth:`reap_retired` alongside two-phase deletion.
        """
        record = self._records.get(cid)
        if record is None:
            return
        stripe_sid = record.get("stripe")
        if stripe_sid is not None:
            stripe = self._stripes.get(stripe_sid)
            if stripe is not None:
                members = [dict(m) for m in stripe["members"]]
                for member in members:
                    if int(member["cid"]) == cid:
                        member["live"] = False
                self._save_stripe({**stripe, "members": members})
        if immediate:
            for copy in record.get("copies", []):
                self._oss.delete_object(self._bucket, copy["key"])
            for retired in record.get("retired", []):
                self._oss.delete_object(self._bucket, retired["key"])
            self._drop_record(cid)
            return
        epoch = self._containers.current_epoch
        retired = list(record.get("retired", []))
        for copy in record.get("copies", []):
            retired.append({"key": copy["key"], "epoch": epoch})
        self._save_record(
            {
                "cid": cid,
                "class": CLASS_DELETED,
                "sha": record["sha"],
                "length": record["length"],
                "copies": [],
                "stripe": None,
                "retired": retired,
            }
        )

    def reap_retired(self) -> tuple[int, int]:
        """Physically delete retired copies past their grace window.

        Joins ``deep_clean``'s two-phase deletion sweep.  Returns
        ``(bytes reclaimed, keys deleted)``.
        """
        grace = self._containers.grace_epochs
        epoch = self._containers.current_epoch
        reclaimed = 0
        deleted = 0

        def expired(entry: dict[str, Any]) -> bool:
            return int(entry["epoch"]) + grace <= epoch

        for cid, record in sorted(self._records.items()):
            retired = record.get("retired", [])
            if not any(expired(entry) for entry in retired):
                continue
            keep = []
            for entry in retired:
                if not expired(entry):
                    keep.append(entry)
                    continue
                size = self._oss.peek_size(self._bucket, entry["key"])
                if self._oss.delete_object(self._bucket, entry["key"]):
                    reclaimed += size or 0
                    deleted += 1
            if record["class"] == CLASS_DELETED and not keep:
                self._drop_record(cid)
            else:
                self._save_record({**record, "retired": keep})
        for sid, stripe in sorted(self._stripes.items()):
            retired = stripe.get("retired", [])
            if not any(expired(entry) for entry in retired):
                if not retired and not stripe.get("members") and not stripe.get("parity"):
                    self._drop_stripe(sid)
                continue
            keep = []
            for entry in retired:
                if not expired(entry):
                    keep.append(entry)
                    continue
                size = self._oss.peek_size(self._bucket, entry["key"])
                if self._oss.delete_object(self._bucket, entry["key"]):
                    reclaimed += size or 0
                    deleted += 1
            if not keep and not stripe.get("members") and not stripe.get("parity"):
                self._drop_stripe(sid)
            else:
                self._save_stripe({**stripe, "retired": keep})
        return reclaimed, deleted

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
