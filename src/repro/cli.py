"""Command-line interface: a durable SLIMSTORE repository on local disk.

The repository is a directory holding the simulated OSS buckets as files
(one subdirectory per bucket), so backups survive process restarts —
``SlimStore.recover()`` reattaches every stateful component.

Usage::

    python -m repro backup  REPO FILE [FILE...]   [--prefix P]
                            [--workers N] [--fingerprint sha1|blake2b]
    python -m repro restore REPO PATH             [--version N] [--output F]
    python -m repro versions REPO [PATH]
    python -m repro delete  REPO PATH VERSION
    python -m repro space   REPO
    python -m repro index   REPO
    python -m repro scrub   REPO [--repair]
    python -m repro fsck    REPO [--repair]
    python -m repro browse cat   REPO PATH [--version N] [--output F]
    python -m repro browse read  REPO PATH OFFSET LENGTH [--version N]
                            [--output F]
    python -m repro browse write REPO PATH OFFSET FILE [--no-flush]
    python -m repro browse flush REPO [PATH]
    python -m repro browse stat  REPO PATH [--version N]
    python -m repro browse stats REPO [PATH] [--version N]
    python -m repro durability REPO [--enable|--disable|--retier]
                            [--replicas N] [--hot-refs N] [--cold-refs N]
                            [--data-shards K] [--parity-shards M]
                            [--fault-domains D]
    python -m repro trace record OUT --generator NAME [--seed N]
                            [--versions N]
    python -m repro trace replay REPO TRACE [--verify]
    python -m repro tenant list    REPO
    python -m repro tenant backup  REPO TENANT FILE [FILE...] [--prefix P]
    python -m repro tenant restore REPO TENANT PATH [--version N] [--output F]
    python -m repro tenant retention REPO TENANT [--keep-last N]
                            [--keep-days D] [--clear]
    python -m repro tenant apply-retention REPO TENANT
    python -m repro tenant weight  REPO TENANT [VALUE]
    python -m repro tenant remove  REPO TENANT

Example::

    python -m repro backup  /tmp/repo data/accounts.tbl
    python -m repro versions /tmp/repo
    python -m repro restore /tmp/repo data/accounts.tbl --output out.tbl
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.config import SlimStoreConfig
from repro.core.system import SlimStore
from repro.errors import ReproError
from repro.oss.backend import FilesystemBackend
from repro.oss.object_store import ObjectStorageService

#: Repository-level settings that must stay fixed for the repo's lifetime
#: (the index shard layout decides which store holds each fingerprint;
#: the durability policy decides the replica/parity keyspace layout).
_SETTINGS_FILE = "repro.json"


def _load_settings(root: Path) -> dict:
    """The repository's pinned settings (empty for a fresh directory)."""
    settings_path = root / _SETTINGS_FILE
    if settings_path.is_file():
        return dict(json.loads(settings_path.read_text()))
    return {}


def _save_settings(root: Path, settings: dict) -> None:
    (root / _SETTINGS_FILE).write_text(json.dumps(settings, indent=2, sort_keys=True))


def _resolve_shard_count(root: Path, requested: int | None) -> int:
    """Pin the repo's shard count, persisting it on first use.

    The shard a fingerprint lives in is a function of the shard count, so
    a repository must be recovered with the count it was created with.
    New repositories record the requested (or default) count in
    ``repro.json``; pre-sharding repositories (data present, no settings
    file) are single-shard by construction.
    """
    settings = _load_settings(root)
    if "index_shard_count" in settings:
        stored = int(settings["index_shard_count"])
        if requested is not None and requested != stored:
            raise ReproError(
                f"repository uses {stored} index shards; "
                f"cannot reopen with --index-shards {requested}"
            )
        return stored
    has_data = any(p.is_dir() for p in root.iterdir())
    if has_data:
        shard_count = 1 if requested is None else requested
        if requested is not None and requested != 1:
            raise ReproError(
                "existing repository predates sharding (single-shard); "
                f"cannot reopen with --index-shards {requested}"
            )
    else:
        shard_count = (
            SlimStoreConfig().index_shard_count if requested is None else requested
        )
    settings["index_shard_count"] = shard_count
    _save_settings(root, settings)
    return shard_count


def _resolve_workers(root: Path, requested: int | None) -> int:
    """Pin the repo's wall-clock worker count, persisting it on first set.

    Unlike the shard count, workers are a *performance* setting — every
    worker count produces byte-identical repositories — so a mismatched
    request simply re-pins the setting instead of refusing to attach.
    """
    settings = _load_settings(root)
    if requested is None:
        return int(settings.get("workers", 0))
    if settings.get("workers") != requested:
        settings["workers"] = requested
        _save_settings(root, settings)
    return requested


def _resolve_fingerprint(root: Path, requested: str | None) -> str:
    """Pin the repo's fingerprint algorithm, persisting it on first use.

    Every stored digest — recipes, container metas, index entries — is a
    function of the algorithm, so a repository must be attached with the
    algorithm it was created under; a mismatch is refused outright.
    Repositories predating the setting (data present, no record) are
    sha1 by construction.
    """
    settings = _load_settings(root)
    if "fingerprint_algo" in settings:
        stored = str(settings["fingerprint_algo"])
        if requested is not None and requested != stored:
            raise ReproError(
                f"repository fingerprints chunks with {stored}; "
                f"cannot attach with --fingerprint {requested}"
            )
        return stored
    has_data = any(p.is_dir() for p in root.iterdir())
    if has_data:
        if requested is not None and requested != "sha1":
            raise ReproError(
                "existing repository predates configurable fingerprints "
                f"(sha1); cannot attach with --fingerprint {requested}"
            )
        algo = "sha1"
    else:
        algo = requested or SlimStoreConfig().fingerprint_algo
    settings["fingerprint_algo"] = algo
    _save_settings(root, settings)
    return algo


def _durability_overrides(policy: dict) -> dict:
    """Config overrides applying a persisted durability policy dict."""
    return {
        "durability_enabled": True,
        "durability_replicas": int(policy["replica_count"]),
        "durability_hot_refs": int(policy["hot_refs"]),
        "durability_cold_refs": int(policy["cold_refs"]),
        "erasure_data_shards": int(policy["data_shards"]),
        "erasure_parity_shards": int(policy["parity_shards"]),
        "fault_domains": int(policy["fault_domains"]),
    }


def open_repository(
    repo_dir: str | Path,
    index_shards: int | None = None,
    run_recovery: bool = True,
    workers: int | None = None,
    fingerprint: str | None = None,
) -> SlimStore:
    """Open (or create) a durable repository under ``repo_dir``.

    ``run_recovery=False`` attaches without resolving interrupted jobs,
    so ``repro fsck`` can report the evidence before anything is fixed.
    ``workers`` and ``fingerprint`` are persisted in ``repro.json``:
    workers (the scan + fingerprint fan-out of ``backup``) as a sticky
    performance preference, the fingerprint algorithm as an
    attach-guarded repository invariant.
    """
    root = Path(repo_dir)
    root.mkdir(parents=True, exist_ok=True)
    shard_count = _resolve_shard_count(root, index_shards)
    fingerprint_algo = _resolve_fingerprint(root, fingerprint)
    worker_count = _resolve_workers(root, workers)
    oss = ObjectStorageService(
        backend_factory=lambda bucket: FilesystemBackend(root / bucket)
    )
    overrides: dict = {}
    durability = _load_settings(root).get("durability")
    if durability is not None:
        # The persisted policy is repository state, like the shard count:
        # the replica/parity keyspace was laid out under it, so every
        # reopen applies it automatically (``repro durability`` changes it).
        overrides = _durability_overrides(durability)
    config = replace(
        SlimStoreConfig(),
        index_shard_count=shard_count,
        fingerprint_algo=fingerprint_algo,
        workers=worker_count,
        **overrides,
    )
    store = SlimStore(config, oss)
    store.recover(run_recovery=run_recovery)
    return store


def open_service(repo_dir: str | Path):
    """Open (or create) a durable multi-tenant service repository.

    A service repository is a directory of per-tenant bucket
    subdirectories (``tenant-<name>``, ``tenant-<name>-index``); each
    tenant is attached lazily, running attach-time recovery.
    """
    from repro.core.tenancy import BackupService

    root = Path(repo_dir)
    root.mkdir(parents=True, exist_ok=True)
    oss = ObjectStorageService(
        backend_factory=lambda bucket: FilesystemBackend(root / bucket)
    )
    return BackupService(oss, SlimStoreConfig())


def _service_tenants(repo_dir: str | Path) -> list[str]:
    """Tenant names found on disk (bucket directories, index ones aside)."""
    root = Path(repo_dir)
    if not root.is_dir():
        return []
    names = []
    for entry in root.iterdir():
        if (
            entry.is_dir()
            and entry.name.startswith("tenant-")
            and not entry.name.endswith("-index")
        ):
            names.append(entry.name[len("tenant-"):])
    return sorted(names)


def _cmd_backup(args: argparse.Namespace) -> int:
    store = open_repository(
        args.repo,
        index_shards=args.index_shards,
        workers=args.workers,
        fingerprint=args.fingerprint,
    )
    for file_name in args.files:
        source = Path(file_name)
        if not source.is_file():
            print(f"error: not a file: {source}", file=sys.stderr)
            return 2
        logical_path = f"{args.prefix}{source.name}" if args.prefix else str(source)
        report = store.backup(logical_path, source.read_bytes())
        result = report.result
        print(
            f"{logical_path}: v{report.version}, "
            f"{result.logical_bytes} bytes, dedup {result.dedup_ratio:.1%}, "
            f"{result.counters.get('containers_written')} containers, "
            f"{result.counters.get('bytes_scanned')} bytes scanned"
        )
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    result = store.restore(
        args.path,
        args.version,
        prefetch_threads=args.prefetch_threads,
        ranged=not args.whole_containers,
    )
    output = Path(args.output) if args.output else Path(Path(args.path).name)
    output.write_bytes(result.data)
    print(
        f"restored {args.path}@v{result.version} -> {output} "
        f"({len(result.data)} bytes, {result.containers_read} container reads)"
    )
    mode = "ranged" if result.ranged else "whole-container"
    print(
        f"  {mode} reads: amplification {result.read_amplification:.2f}x, "
        f"{result.counters.get('ranged_bytes_saved')} bytes saved, "
        f"{result.counters.get('prefetch_stalls')} prefetch stalls"
    )
    print(
        f"  elapsed {result.elapsed_seconds * 1000:.1f} ms virtual "
        f"({result.prefetch_threads} prefetch threads, "
        f"{result.throughput_mb_s:.1f} MB/s)"
    )
    return 0


def _cmd_versions(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    paths = [args.path] if args.path else store.catalog.paths()
    for path in paths:
        live = store.versions(path)
        if live:
            print(f"{path}: versions {', '.join(map(str, live))}")
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    reclaimed = store.delete_version(args.path, args.version)
    print(f"deleted {args.path}@v{args.version}, reclaimed {reclaimed} bytes")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    report = store.scrub(repair=args.repair)
    print(
        f"containers: {report.containers_checked} checked, "
        f"{report.chunks_verified} chunks verified, "
        f"{len(report.corrupt_chunks)} corrupt"
    )
    print(
        f"recipes: {report.recipes_checked} checked, "
        f"{report.records_verified} records verified "
        f"({report.redirected_records} via global-index redirect), "
        f"{len(report.unresolvable_records)} unresolvable"
    )
    if args.repair and report.corrupt_chunks:
        print(
            f"repair: {report.chunks_repaired} chunks healed in "
            f"{report.containers_rewritten} containers, "
            f"{len(report.quarantined_chunks)} quarantined"
        )
    if report.clean or (args.repair and report.fully_repaired
                        and not report.unresolvable_records):
        print("repository is clean")
        return 0
    for cid, fp in report.corrupt_chunks:
        print(f"  CORRUPT chunk {fp.hex()[:12]} in container {cid}", file=sys.stderr)
    for cid, fp in report.quarantined_chunks:
        print(f"  QUARANTINED chunk {fp.hex()[:12]} in container {cid}", file=sys.stderr)
    for path, version, fp in report.unresolvable_records:
        print(f"  DANGLING {path}@v{version} chunk {fp.hex()[:12]}", file=sys.stderr)
    return 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    store = open_repository(args.repo, run_recovery=False)
    from repro.core.recovery import RecoveryManager

    manager = RecoveryManager(store)
    report = manager.inspect()
    for intent in report.open_intents:
        print(f"  OPEN intent #{intent.seq}: {intent.kind} {intent.payload}",
              file=sys.stderr)
    for cid, half in sorted(report.torn_pairs.items()):
        print(f"  TORN container {cid}: only .{half} survives", file=sys.stderr)
    for cid in report.partial_reaps:
        print(f"  PARTIAL REAP container {cid}", file=sys.stderr)
    for cid in report.orphan_candidates:
        print(f"  ORPHAN container {cid}", file=sys.stderr)
    for cid, recorded, target in report.durability_class_mismatches:
        print(
            f"  DURABILITY container {cid}: class {recorded}, policy says {target}",
            file=sys.stderr,
        )
    for cid, key in report.durability_divergent:
        where = f"container {cid}" if cid is not None else "parity"
        print(f"  DIVERGENT copy {key} ({where})", file=sys.stderr)
    for seq in report.stale_cache_intents:
        print(f"  STALE cache_flush intent #{seq}", file=sys.stderr)
    for key in report.cache_debris:
        print(f"  CACHE DEBRIS {key}", file=sys.stderr)
    for key in report.log_debris:
        print(f"  FOLDED log record {key} (interrupted fold)", file=sys.stderr)
    print(
        f"journal: {len(report.open_intents)} open intents; "
        f"containers: {len(report.torn_pairs)} torn, "
        f"{len(report.orphan_candidates)} orphaned, "
        f"{len(report.partial_reaps)} partial reaps, "
        f"{len(report.tombstoned)} in tombstone grace; "
        f"index: {report.dangling_index_entries} dangling entries; "
        f"browse cache: {len(report.stale_cache_intents)} stale flushes, "
        f"{len(report.cache_debris)} debris objects; "
        f"metadata logs: {len(report.log_debris)} folded records left behind"
    )
    if store.storage.durability is not None:
        print(
            f"durability: {len(report.durability_untiered)} untiered, "
            f"{len(report.durability_class_mismatches)} class mismatches, "
            f"{len(report.durability_divergent)} divergent copies"
        )
    if report.clean:
        print("repository is consistent")
        return 0
    if not args.repair:
        print("run with --repair to recover", file=sys.stderr)
        return 1
    recovery = manager.run(report.open_intents)
    print(
        f"repair: {len(recovery.rolled_forward)} intents rolled forward, "
        f"{len(recovery.discarded)} discarded, "
        f"{len(recovery.orphans_collected)} orphans collected "
        f"({recovery.orphan_bytes} bytes), "
        f"{len(recovery.torn_collected)} torn pairs collected, "
        f"{len(recovery.reaps_finished)} reaps finished, "
        f"{recovery.index_entries_fixed} index entries fixed, "
        f"{len(recovery.replica_orphans_collected)} replica orphans swept, "
        f"{len(recovery.cache_staging_reaped)} cache staging objects reaped"
    )
    durability = store.storage.durability
    if durability is not None and (
        report.durability_divergent or report.durability_class_mismatches
    ):
        refcounts = store.catalog.refcounts()
        repaired = durability.repair_divergent(durability.audit(refcounts))
        retier = store.gnode.retier(refcounts)
        print(
            f"durability repair: {repaired} divergent copies re-synced, "
            f"{len(retier.transitions)} containers re-tiered"
        )
    if recovery.torn_damaged:
        for cid in recovery.torn_damaged:
            print(f"  DAMAGED container {cid}: referenced but torn",
                  file=sys.stderr)
        return 1
    print("repository recovered")
    return 0


def _cmd_durability(args: argparse.Namespace) -> int:
    root = Path(args.repo)
    if args.enable:
        from repro.core.durability import ReplicationPolicy

        try:
            policy = ReplicationPolicy(
                replica_count=args.replicas,
                hot_refs=args.hot_refs,
                cold_refs=args.cold_refs,
                data_shards=args.data_shards,
                parity_shards=args.parity_shards,
                fault_domains=args.fault_domains,
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        root.mkdir(parents=True, exist_ok=True)
        settings = _load_settings(root)
        settings["durability"] = policy.to_dict()
        _save_settings(root, settings)
        print(
            f"durability tier enabled: {policy.replica_count}-way replication "
            f"at >= {policy.hot_refs} refs, RS({policy.data_shards},"
            f"{policy.parity_shards}) erasure at >= {policy.cold_refs} refs, "
            f"{policy.fault_domains} fault domains"
        )
    elif args.disable:
        settings = _load_settings(root)
        if settings.pop("durability", None) is None:
            print("durability tier already disabled")
            return 0
        # Resolve any open tier intents under the old policy (the settings
        # file still carries it), then drop the whole durability keyspace
        # — the primaries carry the data.
        store = open_repository(args.repo)
        oss = store.storage.oss
        bucket = store.storage.containers._bucket
        removed = 0
        for key in list(oss.peek_keys(bucket, "durability/")):
            if oss.delete_object(bucket, key):
                removed += 1
        _save_settings(root, settings)
        print(f"durability tier disabled, {removed} replica/parity objects removed")
        return 0

    store = open_repository(args.repo)
    durability = store.storage.durability
    if durability is None:
        print("durability tier: disabled (enable with --enable)")
        return 0
    if args.retier or args.enable:
        report = store.gnode.retier(store.catalog.refcounts())
        print(
            f"retier: {report.examined} containers examined, "
            f"{len(report.transitions)} transitions, "
            f"{report.copies_written} copies written, "
            f"{report.stripes_built} stripes built "
            f"({report.parity_written} parity shards), "
            f"{report.stripes_retired} stripes retired"
        )
    policy = durability.policy
    classes = durability.classes()
    histogram: dict[str, int] = {}
    for klass in classes.values():
        histogram[klass] = histogram.get(klass, 0) + 1
    print(
        f"policy: {policy.replica_count}-way replication at >= "
        f"{policy.hot_refs} refs, RS({policy.data_shards},"
        f"{policy.parity_shards}) erasure at >= {policy.cold_refs} refs, "
        f"{policy.fault_domains} fault domains"
    )
    print(
        "classes: "
        + ", ".join(f"{k}={v}" for k, v in sorted(histogram.items()))
        if histogram
        else "classes: none tiered yet"
    )
    print(f"durability bytes: {durability.stored_bytes()}")
    print(
        f"degraded reads served: {durability.replica_failovers} replica "
        f"failovers, {durability.erasure_decodes} erasure decodes, "
        f"{durability.degraded_chunk_reads} chunk heals"
    )
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.workloads import make_generator
    from repro.workloads.trace import write_trace

    try:
        generator = make_generator(
            args.generator, seed=args.seed, version_count=args.versions
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    versions = generator.versions()
    summary = generator.summary()
    meta = {
        "generator": args.generator,
        "seed": args.seed,
        "version_count": len(versions),
        "fresh_random_bytes": generator.fresh_random_bytes,
        "summary": dict(summary.rows()),
    }
    count = write_trace(args.output, versions, name=summary.name, meta=meta)
    total = sum(version.total_bytes for version in versions)
    print(
        f"recorded {summary.name}: {count} versions, "
        f"{total} logical bytes -> {args.output}"
    )
    print(
        f"  cross-version duplication {summary.cross_version_duplication:.2f}, "
        f"intra-version {summary.intra_version_duplication:.1%}, "
        f"innovation {generator.fresh_random_bytes} bytes"
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    import hashlib

    from repro.workloads.trace import read_trace, replay_into

    trace = read_trace(args.trace)
    store = open_repository(args.repo)
    assigned = replay_into(store, trace)
    logical = trace.total_bytes
    print(
        f"replayed {trace.name or args.trace}: {len(trace.versions)} versions, "
        f"{len(assigned)} backups, {logical} logical bytes"
    )
    space = store.space_report()
    stored = space.container_bytes
    ratio = 1.0 - stored / logical if logical else 0.0
    print(f"  stored {stored} container bytes (dedup {ratio:.1%})")
    if args.verify:
        checksums = trace.checksums()
        failures = 0
        for (path, trace_version), store_version in sorted(assigned.items()):
            restored = store.restore(path, store_version)
            digest = hashlib.sha256(restored.data).hexdigest()
            if digest != checksums[(path, trace_version)]:
                failures += 1
                print(
                    f"  MISMATCH {path}@v{store_version} "
                    f"(trace v{trace_version})",
                    file=sys.stderr,
                )
        if failures:
            print(f"verify FAILED: {failures} mismatched restores",
                  file=sys.stderr)
            return 1
        print(f"  verify OK: {len(assigned)} restores match the trace")
    return 0


def _tenant_handler(fn):
    """Tenant-name validation raises ValueError; print it like an error."""

    def run(args: argparse.Namespace) -> int:
        try:
            return fn(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return run


def _cmd_tenant_list(args: argparse.Namespace) -> int:
    service = open_service(args.repo)
    names = _service_tenants(args.repo)
    if not names:
        print("no tenants")
        return 0
    for name in names:
        service.store_for(name)
        usage = service.usage(name)
        meta = service.meta(name)
        policy = meta.retention
        if policy is None:
            retention = "retention: none"
        else:
            parts = []
            if policy.keep_last_n is not None:
                parts.append(f"last {policy.keep_last_n}")
            if policy.keep_days is not None:
                parts.append(f"{policy.keep_days:g} days")
            retention = f"retention: keep {' + '.join(parts)}"
        print(
            f"{name}: {usage.stored_bytes} stored bytes, "
            f"weight {meta.weight:g}, {retention}"
        )
    return 0


def _cmd_tenant_backup(args: argparse.Namespace) -> int:
    import time

    service = open_service(args.repo)
    for file_name in args.files:
        source = Path(file_name)
        if not source.is_file():
            print(f"error: not a file: {source}", file=sys.stderr)
            return 2
        logical_path = f"{args.prefix}{source.name}" if args.prefix else str(source)
        report = service.backup(
            args.tenant, logical_path, source.read_bytes(), timestamp=time.time()
        )
        result = report.result
        print(
            f"{args.tenant}/{logical_path}: v{report.version}, "
            f"{result.logical_bytes} bytes, dedup {result.dedup_ratio:.1%}"
        )
    return 0


def _cmd_tenant_restore(args: argparse.Namespace) -> int:
    service = open_service(args.repo)
    result = service.restore(args.tenant, args.path, args.version)
    output = Path(args.output) if args.output else Path(Path(args.path).name)
    output.write_bytes(result.data)
    print(
        f"restored {args.tenant}/{args.path}@v{result.version} -> {output} "
        f"({len(result.data)} bytes)"
    )
    return 0


def _cmd_tenant_retention(args: argparse.Namespace) -> int:
    from repro.core.tenancy import RetentionPolicy

    service = open_service(args.repo)
    if args.clear:
        service.set_retention(args.tenant, None)
        print(f"{args.tenant}: retention policy cleared")
        return 0
    if args.keep_last is None and args.keep_days is None:
        policy = service.meta(args.tenant).retention
        print(f"{args.tenant}: {policy if policy is not None else 'no policy'}")
        return 0
    try:
        policy = RetentionPolicy(
            keep_last_n=args.keep_last, keep_days=args.keep_days
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    service.set_retention(args.tenant, policy)
    print(f"{args.tenant}: retention set to {policy}")
    return 0


def _cmd_tenant_apply_retention(args: argparse.Namespace) -> int:
    import time

    service = open_service(args.repo)
    report = service.apply_retention(args.tenant, now=time.time())
    if not report.deleted:
        print(f"{args.tenant}: nothing to collect")
        return 0
    for path, version in report.deleted:
        print(f"  deleted {path}@v{version}")
    print(
        f"{args.tenant}: {len(report.deleted)} versions collected, "
        f"{report.reclaimed_bytes} bytes reclaimed"
    )
    return 0


def _cmd_tenant_weight(args: argparse.Namespace) -> int:
    service = open_service(args.repo)
    if args.value is None:
        print(f"{args.tenant}: weight {service.weight(args.tenant):g}")
        return 0
    try:
        service.set_weight(args.tenant, args.value)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    print(f"{args.tenant}: weight set to {args.value:g}")
    return 0


def _cmd_tenant_remove(args: argparse.Namespace) -> int:
    service = open_service(args.repo)
    if args.tenant not in _service_tenants(args.repo):
        print(f"error: no such tenant: {args.tenant}", file=sys.stderr)
        return 2
    reclaimed = service.remove_tenant(args.tenant)
    root = Path(args.repo)
    for suffix in ("", "-index"):
        bucket_dir = root / f"tenant-{args.tenant}{suffix}"
        if not bucket_dir.is_dir():
            continue
        # Every object is gone; only empty key-path directories remain.
        for sub in sorted(bucket_dir.rglob("*"), reverse=True):
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        if not any(bucket_dir.iterdir()):
            bucket_dir.rmdir()
    print(f"{args.tenant}: removed, {reclaimed} bytes reclaimed")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    index = store.storage.global_index
    stats = index.shard_stats()
    print(f"shards: {index.shard_count}")
    for shard, stat in enumerate(stats):
        print(
            f"  shard {shard:3d}: {stat['entries']:>8} entries, "
            f"{stat['sstables']} sstables"
        )
    print(f"total entries: {sum(s['entries'] for s in stats)}")
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    store = open_repository(args.repo)
    report = store.space_report()
    print(f"containers:    {report.container_bytes:>12} bytes")
    print(f"recipes:       {report.recipe_bytes:>12} bytes")
    print(f"global index:  {report.global_index_bytes:>12} bytes")
    print(f"similar index: {report.similar_index_bytes:>12} bytes")
    print(f"total:         {report.total_bytes:>12} bytes")
    return 0


def _browse_session(args: argparse.Namespace):
    """Open the repository and wrap it in a browse session."""
    from repro.core.browse import BrowseSession

    store = open_repository(args.repo)
    return BrowseSession(store)


def _emit_bytes(data: bytes, output: str | None) -> None:
    """Write payload bytes to a file or to raw stdout."""
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_browse_cat(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    handle = session.open(args.path, args.version)
    data = handle.read(0, handle.size)
    _emit_bytes(data, args.output)
    print(session.stats_line(), file=sys.stderr)
    return 0


def _cmd_browse_read(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    handle = session.open(args.path, args.version)
    if args.offset > handle.size:
        print(
            f"error: offset {args.offset} past EOF of {args.path} "
            f"({handle.size} bytes)",
            file=sys.stderr,
        )
        return 1
    data = handle.read(args.offset, args.length)
    _emit_bytes(data, args.output)
    print(session.stats_line(), file=sys.stderr)
    return 0


def _cmd_browse_write(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    data = Path(args.input).read_bytes()
    handle = session.open(args.path, None)
    written = handle.write(args.offset, data)
    if args.no_flush:
        print(
            f"{args.path}: {written} bytes written back at offset "
            f"{args.offset} (uncommitted; run browse flush)"
        )
    else:
        report = handle.flush()
        print(
            f"{args.path}: {written} bytes written, committed as "
            f"v{report.version} ({report.blocks_written} dirty blocks, "
            f"{report.staged_bytes} staged bytes)"
        )
    print(session.stats_line(), file=sys.stderr)
    return 0


def _cmd_browse_flush(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    reports = session.flush(args.path)
    if not reports:
        print("nothing dirty")
    for report in reports:
        print(
            f"{report.path}: committed v{report.version} "
            f"(base v{report.base_version}, {report.blocks_written} dirty "
            f"blocks, {report.staged_bytes} staged bytes)"
        )
    print(session.stats_line(), file=sys.stderr)
    return 0


def _cmd_browse_stat(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    stat = session.open(args.path, args.version).stat()
    print(f"path:          {stat.path}")
    print(f"version:       {stat.version}")
    print(f"size:          {stat.size} bytes")
    print(f"block size:    {stat.block_bytes} bytes")
    print(f"chunk records: {stat.chunk_records}")
    print(f"dirty blocks:  {stat.dirty_blocks}")
    print(f"dirty:         {'yes' if stat.dirty else 'no'}")
    print(session.stats_line(), file=sys.stderr)
    return 0


def _cmd_browse_stats(args: argparse.Namespace) -> int:
    session = _browse_session(args)
    if args.path:
        handle = session.open(args.path, args.version)
        handle.read(0, handle.size)
    print(session.stats_line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLIMSTORE: deduplicating multi-version backups",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    backup = commands.add_parser("backup", help="back up files as new versions")
    backup.add_argument("repo", help="repository directory")
    backup.add_argument("files", nargs="+", help="files to back up")
    backup.add_argument("--prefix", default="", help="logical path prefix")
    backup.add_argument("--index-shards", type=int, default=None,
                        help="global-index shard count (fixed at repo creation)")
    backup.add_argument("--workers", type=int, default=None,
                        help="wall-clock worker count for the scan + "
                             "fingerprint fan-out (0 = serial; persisted in "
                             "repro.json)")
    backup.add_argument("--fingerprint", choices=["sha1", "blake2b"],
                        default=None,
                        help="chunk fingerprint algorithm (pinned at repo "
                             "creation; attaching with a mismatch is refused)")
    backup.set_defaults(handler=_cmd_backup)

    restore = commands.add_parser("restore", help="restore a backup version")
    restore.add_argument("repo")
    restore.add_argument("path", help="logical path of the backup")
    restore.add_argument("--version", type=int, default=None,
                         help="version number (default: latest)")
    restore.add_argument("--output", default=None, help="output file")
    restore.add_argument("--prefetch-threads", type=int, default=None,
                         help="parallel OSS prefetch channels (0 disables)")
    restore.add_argument("--whole-containers", action="store_true",
                         help="read whole containers instead of ranged GETs")
    restore.set_defaults(handler=_cmd_restore)

    versions = commands.add_parser("versions", help="list live versions")
    versions.add_argument("repo")
    versions.add_argument("path", nargs="?", default=None)
    versions.set_defaults(handler=_cmd_versions)

    delete = commands.add_parser("delete", help="collect the oldest version")
    delete.add_argument("repo")
    delete.add_argument("path")
    delete.add_argument("version", type=int)
    delete.set_defaults(handler=_cmd_delete)

    space = commands.add_parser("space", help="show repository space usage")
    space.add_argument("repo")
    space.set_defaults(handler=_cmd_space)

    index = commands.add_parser("index", help="show global-index shard stats")
    index.add_argument("repo")
    index.set_defaults(handler=_cmd_index)

    scrub = commands.add_parser("scrub", help="verify repository integrity")
    scrub.add_argument("repo")
    scrub.add_argument("--repair", action="store_true",
                       help="heal corrupt chunks from healthy copies")
    scrub.set_defaults(handler=_cmd_scrub)

    fsck = commands.add_parser(
        "fsck", help="check crash consistency (journal, orphans, tombstones)"
    )
    fsck.add_argument("repo")
    fsck.add_argument("--repair", action="store_true",
                      help="roll interrupted jobs forward/back and GC debris")
    fsck.set_defaults(handler=_cmd_fsck)

    defaults = SlimStoreConfig()
    durability = commands.add_parser(
        "durability", help="show or manage the replication/erasure tier"
    )
    durability.add_argument("repo")
    durability.add_argument("--enable", action="store_true",
                            help="enable the tier and persist the policy")
    durability.add_argument("--disable", action="store_true",
                            help="disable the tier and drop replica/parity bytes")
    durability.add_argument("--retier", action="store_true",
                            help="re-tier every container to the live refcounts")
    durability.add_argument("--replicas", type=int,
                            default=defaults.durability_replicas,
                            help="copies for hot containers (with --enable)")
    durability.add_argument("--hot-refs", type=int,
                            default=defaults.durability_hot_refs,
                            help="refcount where replication starts")
    durability.add_argument("--cold-refs", type=int,
                            default=defaults.durability_cold_refs,
                            help="refcount where erasure coding starts")
    durability.add_argument("--data-shards", type=int,
                            default=defaults.erasure_data_shards,
                            help="Reed-Solomon data shards per stripe")
    durability.add_argument("--parity-shards", type=int,
                            default=defaults.erasure_parity_shards,
                            help="Reed-Solomon parity shards per stripe")
    durability.add_argument("--fault-domains", type=int,
                            default=defaults.fault_domains,
                            help="simulated fault domains for placement")
    durability.set_defaults(handler=_cmd_durability)

    from repro.workloads import GENERATOR_NAMES

    trace = commands.add_parser(
        "trace", help="record or replay a workload trace (JSONL)"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_commands.add_parser(
        "record", help="generate a workload and write it as a trace file"
    )
    trace_record.add_argument("output", help="trace file to write (JSONL)")
    trace_record.add_argument("--generator", required=True,
                              choices=list(GENERATOR_NAMES),
                              help="workload generator to record")
    trace_record.add_argument("--seed", type=int, default=None,
                              help="generator seed (default: the workload's)")
    trace_record.add_argument("--versions", type=int, default=None,
                              help="backup versions to generate")
    trace_record.set_defaults(handler=_cmd_trace_record)
    trace_replay = trace_commands.add_parser(
        "replay", help="drive a trace file's backups into a repository"
    )
    trace_replay.add_argument("repo", help="repository directory")
    trace_replay.add_argument("trace", help="trace file to replay")
    trace_replay.add_argument("--verify", action="store_true",
                              help="restore every replayed backup and check "
                                   "it against the trace checksums")
    trace_replay.set_defaults(handler=_cmd_trace_replay)

    browse = commands.add_parser(
        "browse", help="random-access reads/writes on backup versions "
                       "through the L-node block cache"
    )
    browse_commands = browse.add_subparsers(dest="browse_command", required=True)
    browse_cat = browse_commands.add_parser(
        "cat", help="read a whole file at some version"
    )
    browse_cat.add_argument("repo", help="repository directory")
    browse_cat.add_argument("path", help="logical path of the backup")
    browse_cat.add_argument("--version", type=int, default=None,
                            help="version number (default: latest)")
    browse_cat.add_argument("--output", default=None,
                            help="output file (default: raw stdout)")
    browse_cat.set_defaults(handler=_cmd_browse_cat)
    browse_read = browse_commands.add_parser(
        "read", help="read a byte range without restoring the whole version"
    )
    browse_read.add_argument("repo")
    browse_read.add_argument("path")
    browse_read.add_argument("offset", type=int, help="start offset in bytes")
    browse_read.add_argument("length", type=int, help="bytes to read")
    browse_read.add_argument("--version", type=int, default=None,
                             help="version number (default: latest)")
    browse_read.add_argument("--output", default=None,
                             help="output file (default: raw stdout)")
    browse_read.set_defaults(handler=_cmd_browse_read)
    browse_write = browse_commands.add_parser(
        "write", help="write a byte range back and commit a new version"
    )
    browse_write.add_argument("repo")
    browse_write.add_argument("path")
    browse_write.add_argument("offset", type=int, help="start offset in bytes")
    browse_write.add_argument("input", help="file holding the bytes to write")
    browse_write.add_argument("--no-flush", action="store_true",
                              help="leave the write dirty in cache "
                                   "(no commit; for scripted sessions)")
    browse_write.set_defaults(handler=_cmd_browse_write)
    browse_flush = browse_commands.add_parser(
        "flush", help="commit dirtied files as new versions"
    )
    browse_flush.add_argument("repo")
    browse_flush.add_argument("path", nargs="?", default=None,
                              help="flush only this path (default: all dirty)")
    browse_flush.set_defaults(handler=_cmd_browse_flush)
    browse_stat = browse_commands.add_parser(
        "stat", help="show size/version/dirtiness of one file"
    )
    browse_stat.add_argument("repo")
    browse_stat.add_argument("path")
    browse_stat.add_argument("--version", type=int, default=None,
                             help="version number (default: latest)")
    browse_stat.set_defaults(handler=_cmd_browse_stat)
    browse_stats = browse_commands.add_parser(
        "stats", help="print the block-cache counters line"
    )
    browse_stats.add_argument("repo")
    browse_stats.add_argument("path", nargs="?", default=None,
                              help="warm the cache with one full read first")
    browse_stats.add_argument("--version", type=int, default=None,
                              help="version number (default: latest)")
    browse_stats.set_defaults(handler=_cmd_browse_stats)

    tenant = commands.add_parser(
        "tenant", help="manage a multi-tenant service repository"
    )
    tenant_commands = tenant.add_subparsers(dest="tenant_command", required=True)
    tenant_list = tenant_commands.add_parser(
        "list", help="list tenants with usage, weight and retention"
    )
    tenant_list.add_argument("repo", help="service repository directory")
    tenant_list.set_defaults(handler=_tenant_handler(_cmd_tenant_list))
    tenant_backup = tenant_commands.add_parser(
        "backup", help="back up files on behalf of a tenant"
    )
    tenant_backup.add_argument("repo")
    tenant_backup.add_argument("tenant", help="tenant name (lowercase)")
    tenant_backup.add_argument("files", nargs="+", help="files to back up")
    tenant_backup.add_argument("--prefix", default="", help="logical path prefix")
    tenant_backup.set_defaults(handler=_tenant_handler(_cmd_tenant_backup))
    tenant_restore = tenant_commands.add_parser(
        "restore", help="restore a tenant's backup version"
    )
    tenant_restore.add_argument("repo")
    tenant_restore.add_argument("tenant")
    tenant_restore.add_argument("path", help="logical path of the backup")
    tenant_restore.add_argument("--version", type=int, default=None,
                                help="version number (default: latest)")
    tenant_restore.add_argument("--output", default=None, help="output file")
    tenant_restore.set_defaults(handler=_tenant_handler(_cmd_tenant_restore))
    tenant_retention = tenant_commands.add_parser(
        "retention", help="show or set a tenant's retention policy"
    )
    tenant_retention.add_argument("repo")
    tenant_retention.add_argument("tenant")
    tenant_retention.add_argument("--keep-last", type=int, default=None,
                                  help="protect the newest N versions per path")
    tenant_retention.add_argument("--keep-days", type=float, default=None,
                                  help="protect versions younger than D days")
    tenant_retention.add_argument("--clear", action="store_true",
                                  help="drop the policy (protect everything)")
    tenant_retention.set_defaults(handler=_tenant_handler(_cmd_tenant_retention))
    tenant_apply = tenant_commands.add_parser(
        "apply-retention", help="collect versions the policy no longer protects"
    )
    tenant_apply.add_argument("repo")
    tenant_apply.add_argument("tenant")
    tenant_apply.set_defaults(handler=_tenant_handler(_cmd_tenant_apply_retention))
    tenant_weight = tenant_commands.add_parser(
        "weight", help="show or set a tenant's fair-share weight"
    )
    tenant_weight.add_argument("repo")
    tenant_weight.add_argument("tenant")
    tenant_weight.add_argument("value", type=float, nargs="?", default=None,
                               help="new weight (positive; omit to show)")
    tenant_weight.set_defaults(handler=_tenant_handler(_cmd_tenant_weight))
    tenant_remove = tenant_commands.add_parser(
        "remove", help="remove a tenant account and reclaim its space"
    )
    tenant_remove.add_argument("repo")
    tenant_remove.add_argument("tenant")
    tenant_remove.set_defaults(handler=_tenant_handler(_cmd_tenant_remove))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
