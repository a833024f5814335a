"""Multi-tenant backup service.

The paper's setting is a cloud backup *service*: many users, each with
their own backup data and their own global index ("Global index maintains
the information of all chunks of a user"), sharing the cloud's elastic
compute.  :class:`BackupService` realises that: per-tenant SLIMSTORE
deployments isolated in per-tenant buckets on one OSS endpoint, with a
shared L-node budget whose utilisation the service tracks.

Tenant isolation is strict by construction: deduplication, indexes,
containers, catalogs and snapshots are all per-bucket, so no tenant's data
or fingerprints are visible to another.  All tenants' retry layers share
one :class:`~repro.oss.retry.RetryBudget`, so a degraded OSS endpoint sees
a bounded aggregate retry volume rather than N independent retry storms.

Beyond attach/backup/restore, the service owns the tenant *lifecycle*:

* :class:`RetentionPolicy` — ``keep_last_n`` / ``keep_days`` rules applied
  through the engine's FIFO two-phase ``delete_version`` machinery.
* per-tenant metadata (:class:`TenantMeta`) persisted inside the tenant's
  own bucket at :data:`TENANT_META_KEY`, so retention rules, fair-share
  weights and backup timestamps survive re-attachment from a different
  service node (the lease-takeover path of the control plane).
* :meth:`BackupService.remove_tenant` — full account removal over the
  existing tombstone/deep-clean machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.config import SlimStoreConfig
from repro.core.system import SlimStore
from repro.oss.object_store import ObjectStorageService
from repro.oss.retry import RetryBudget, RetryPolicy
from repro.sim.cost_model import CostModel

#: Per-tenant service metadata object, inside the tenant's own bucket.
TENANT_META_KEY = "service/meta.json"

#: Seconds per day, for ``keep_days`` retention arithmetic.
_DAY_SECONDS = 86400.0


def _safe_tenant_name(tenant: str) -> str:
    """Validate a tenant name; returns it unchanged.

    Names are restricted to lowercase alphanumerics plus ``-``/``_``.
    Mixed-case names are rejected outright: an earlier revision folded
    them to lowercase after validation, which made ``"Alice"`` and
    ``"alice"`` silently share one bucket — a tenant-isolation violation,
    not a convenience.
    """
    if not tenant or not all(c.isalnum() or c in "-_" for c in tenant):
        raise ValueError(
            f"tenant names must be non-empty alphanumeric/-/_: {tenant!r}"
        )
    if tenant != tenant.lower():
        raise ValueError(
            f"tenant names must be lowercase: {tenant!r} (mixed-case names "
            "would collide with their folded form)"
        )
    return tenant


@dataclass(frozen=True)
class RetentionPolicy:
    """Which backup versions a tenant keeps.

    A version is *protected* (kept) if **either** rule protects it:
    ``keep_last_n`` protects the newest N versions of each path,
    ``keep_days`` protects versions whose recorded backup time falls
    within the trailing window.  A rule set to None contributes nothing;
    with both rules None the policy protects everything (an unconfigured
    policy never deletes).  Versions with no recorded timestamp are
    treated as arbitrarily old, so ``keep_days`` alone never protects
    them — pair it with ``keep_last_n`` when timestamps may be missing.
    """

    keep_last_n: int | None = None
    keep_days: float | None = None

    def __post_init__(self) -> None:
        if self.keep_last_n is not None and self.keep_last_n < 0:
            raise ValueError(f"keep_last_n cannot be negative: {self.keep_last_n}")
        if self.keep_days is not None and self.keep_days < 0:
            raise ValueError(f"keep_days cannot be negative: {self.keep_days}")

    def protected(
        self, versions: list[int], times: dict[int, float], now: float
    ) -> set[int]:
        """The subset of ``versions`` this policy keeps at time ``now``."""
        if self.keep_last_n is None and self.keep_days is None:
            return set(versions)
        ordered = sorted(versions)
        keep: set[int] = set()
        if self.keep_last_n is not None and self.keep_last_n > 0:
            keep.update(ordered[-self.keep_last_n :])
        if self.keep_days is not None:
            cutoff = now - self.keep_days * _DAY_SECONDS
            keep.update(
                v for v in ordered if times.get(v, float("-inf")) >= cutoff
            )
        return keep

    def to_json_dict(self) -> dict:
        return {"keep_last_n": self.keep_last_n, "keep_days": self.keep_days}

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RetentionPolicy":
        return cls(
            keep_last_n=raw.get("keep_last_n"), keep_days=raw.get("keep_days")
        )


@dataclass
class TenantMeta:
    """Service-side tenant state, persisted in the tenant's bucket.

    Lives at :data:`TENANT_META_KEY` so any service node that attaches
    the tenant (including a lease takeover after node death) sees the
    same retention rules, fair-share weight and backup timestamps.  The
    meta object is republished after the backup's catalog commit, so a
    crash between the two loses at most the newest timestamp — which the
    retention rules already treat as "arbitrarily old", i.e. safe.
    """

    retention: RetentionPolicy | None = None
    #: Fair-share weight of this tenant's jobs (see the control plane).
    weight: float = 1.0
    #: Backup completion time per ``path`` per ``version``.
    backup_times: dict[str, dict[int, float]] = field(default_factory=dict)

    def record_backup(self, path: str, version: int, timestamp: float) -> None:
        self.backup_times.setdefault(path, {})[version] = timestamp

    def to_json(self) -> str:
        return json.dumps(
            {
                "retention": (
                    None if self.retention is None else self.retention.to_json_dict()
                ),
                "weight": self.weight,
                "backup_times": {
                    path: {str(v): t for v, t in times.items()}
                    for path, times in self.backup_times.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TenantMeta":
        raw = json.loads(text)
        retention = raw.get("retention")
        return cls(
            retention=(
                None
                if retention is None
                else RetentionPolicy.from_json_dict(retention)
            ),
            weight=float(raw.get("weight", 1.0)),
            backup_times={
                path: {int(v): float(t) for v, t in times.items()}
                for path, times in raw.get("backup_times", {}).items()
            },
        )


@dataclass
class TenantUsage:
    """Per-tenant service accounting."""

    tenant: str
    backup_jobs: int = 0
    restore_jobs: int = 0
    logical_bytes_backed_up: int = 0
    stored_bytes: int = 0


@dataclass
class RetentionReport:
    """One retention pass over one tenant."""

    tenant: str
    #: ``(path, version)`` pairs collected, in deletion order.
    deleted: list[tuple[str, int]] = field(default_factory=list)
    reclaimed_bytes: int = 0


class BackupService:
    """Per-tenant SLIMSTORE deployments over one OSS endpoint."""

    def __init__(
        self,
        oss: ObjectStorageService | None = None,
        config: SlimStoreConfig | None = None,
        cost_model: CostModel | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.oss = oss or ObjectStorageService(self.cost_model)
        self.default_config = config or SlimStoreConfig()
        self.retry_policy = retry_policy
        #: Shared across every tenant's retry layer (fleet-wide guard);
        #: only wired when a retry policy is in force.
        self.retry_budget = retry_budget
        self._stores: dict[str, SlimStore] = {}
        self._configs: dict[str, SlimStoreConfig] = {}
        self._usage: dict[str, TenantUsage] = {}
        self._meta: dict[str, TenantMeta] = {}

    # --- tenant management -------------------------------------------------
    def store_for(
        self, tenant: str, config: SlimStoreConfig | None = None
    ) -> SlimStore:
        """The tenant's deployment, created (and recovered) on first use.

        ``config`` applies only at creation; an existing tenant keeps the
        configuration it was created with.
        """
        name = _safe_tenant_name(tenant)
        store = self._stores.get(name)
        if store is None:
            store = self._attach(name, config or self.default_config)
        return store

    def _attach(self, name: str, config: SlimStoreConfig) -> SlimStore:
        """Attach (create or recover) one tenant's deployment."""
        store = SlimStore(
            config,
            self.oss,
            self.cost_model,
            bucket=f"tenant-{name}",
            retry_policy=self.retry_policy,
            retry_budget=self.retry_budget,
        )
        store.recover()
        self._stores[name] = store
        self._configs[name] = config
        self._usage.setdefault(name, TenantUsage(name))
        self._meta[name] = self._load_meta(store)
        return store

    def reattach_tenant(self, tenant: str) -> SlimStore:
        """Drop the cached deployment and re-attach from OSS state.

        This is the lease-takeover path: the node that owned the tenant
        died mid-job, so the new owner rebuilds every in-memory structure
        from the bucket — which runs the
        :class:`~repro.core.recovery.RecoveryManager` over any intents
        the dead node left open, rolling its half-done jobs forward or
        discarding them before new work starts.
        """
        name = _safe_tenant_name(tenant)
        config = self._configs.get(name, self.default_config)
        self._stores.pop(name, None)
        return self._attach(name, config)

    def tenants(self) -> list[str]:
        """Tenants seen by this service instance, sorted."""
        return sorted(self._stores)

    def close(self) -> None:
        """Close every attached deployment (:meth:`SlimStore.close`)."""
        for store in self._stores.values():
            store.close()

    # --- persisted tenant metadata -----------------------------------------
    def _load_meta(self, store: SlimStore) -> TenantMeta:
        endpoint = store.storage.oss
        if not endpoint.object_exists(store.bucket, TENANT_META_KEY):
            return TenantMeta()
        return TenantMeta.from_json(
            endpoint.get_object(store.bucket, TENANT_META_KEY).decode("utf-8")
        )

    def _save_meta(self, name: str) -> None:
        store = self._stores[name]
        store.storage.oss.put_object(
            store.bucket,
            TENANT_META_KEY,
            self._meta[name].to_json().encode("utf-8"),
        )

    def meta(self, tenant: str) -> TenantMeta:
        """The tenant's service metadata (attaches the tenant if needed)."""
        name = _safe_tenant_name(tenant)
        self.store_for(name)
        return self._meta[name]

    def set_retention(self, tenant: str, policy: RetentionPolicy | None) -> None:
        """Set (or clear, with None) the tenant's retention policy."""
        name = _safe_tenant_name(tenant)
        self.store_for(name)
        self._meta[name].retention = policy
        self._save_meta(name)

    def set_weight(self, tenant: str, weight: float) -> None:
        """Set the tenant's fair-share weight (must be positive)."""
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive: {weight}")
        name = _safe_tenant_name(tenant)
        self.store_for(name)
        self._meta[name].weight = float(weight)
        self._save_meta(name)

    def weight(self, tenant: str) -> float:
        """The tenant's fair-share weight (1.0 until configured)."""
        return self.meta(tenant).weight

    # --- proxied operations with accounting -----------------------------------
    def backup(
        self,
        tenant: str,
        path: str,
        data: bytes,
        timestamp: float | None = None,
        **kwargs,
    ):
        """Back up on behalf of a tenant (usage-accounted).

        ``timestamp`` is the caller's notion of *when* this backup ran
        (wall-clock from the CLI, virtual time from the simulator); it is
        recorded in the tenant metadata so ``keep_days`` retention can
        reason about version age.  None records nothing.
        """
        name = _safe_tenant_name(tenant)
        store = self.store_for(name)
        report = store.backup(path, data, **kwargs)
        usage = self._usage[name]
        usage.backup_jobs += 1
        usage.logical_bytes_backed_up += report.result.logical_bytes
        if timestamp is not None:
            self._meta[name].record_backup(path, report.version, timestamp)
            self._save_meta(name)
        return report

    def restore(self, tenant: str, path: str, version: int | None = None, **kwargs):
        """Restore on behalf of a tenant (usage-accounted)."""
        store = self.store_for(tenant)
        result = store.restore(path, version, **kwargs)
        self._usage[_safe_tenant_name(tenant)].restore_jobs += 1
        return result

    def usage(self, tenant: str) -> TenantUsage:
        """Current usage of ``tenant`` (stored bytes refreshed on call)."""
        name = _safe_tenant_name(tenant)
        store = self._stores.get(name)
        if store is None:
            return TenantUsage(name)
        usage = self._usage[name]
        usage.stored_bytes = store.space_report().total_bytes
        return usage

    def total_stored_bytes(self) -> int:
        """Service-wide stored bytes across tenants (free accounting)."""
        return sum(
            store.space_report().total_bytes for store in self._stores.values()
        )

    # --- tenant lifecycle ----------------------------------------------------
    def apply_retention(
        self, tenant: str, now: float | None = None
    ) -> RetentionReport:
        """Collect every version the tenant's retention policy no longer
        protects; returns what was deleted and the bytes reclaimed.

        Deletion goes through the engine's two-phase FIFO
        ``delete_version``, oldest-first per path, stopping at the first
        protected version — FIFO retention means a protected old version
        also shields everything newer, which is exactly the suffix shape
        ``keep_last_n``/``keep_days`` produce under monotone timestamps.
        With no policy configured this is a no-op.
        """
        name = _safe_tenant_name(tenant)
        store = self.store_for(name)
        meta = self._meta[name]
        report = RetentionReport(tenant=name)
        if meta.retention is None:
            return report
        if now is None:
            now = self.oss.clock.now
        for path in store.catalog.paths():
            versions = store.versions(path)
            keep = meta.retention.protected(
                versions, meta.backup_times.get(path, {}), now
            )
            for version in versions:
                if version in keep:
                    break
                report.reclaimed_bytes += store.delete_version(path, version)
                report.deleted.append((path, version))
                meta.backup_times.get(path, {}).pop(version, None)
        if report.deleted:
            self._save_meta(name)
        return report

    def remove_tenant(self, tenant: str) -> int:
        """Remove the tenant's account entirely; returns bytes reclaimed.

        Runs on the existing two-phase machinery — snapshots FIFO, then
        per-path versions oldest-first, then a G-node deep clean to reap
        tombstones — and finally deletes whatever bookkeeping objects
        remain (catalog, journal, indexes, metadata) in both tenant
        buckets.  The tenant disappears from this service instance; the
        name can be reused afterwards as a fresh account.
        """
        name = _safe_tenant_name(tenant)
        store = self.store_for(name)
        reclaimed = 0
        for snapshot_id in list(store.snapshots.list_ids()):
            reclaimed += store.delete_snapshot(snapshot_id)
        for path in store.catalog.paths():
            for version in store.versions(path):
                reclaimed += store.delete_version(path, version)
        reclaimed += store.gnode.deep_clean(stale_threshold=0.0)
        for bucket in (store.bucket, f"{store.bucket}-index"):
            for key in self.oss.peek_keys(bucket):
                self.oss.delete_object(bucket, key)
        self._stores.pop(name, None)
        self._configs.pop(name, None)
        self._usage.pop(name, None)
        self._meta.pop(name, None)
        return reclaimed
