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
from pathlib import Path

from repro.core.config import SlimStoreConfig
from repro.core.durability import ReplicationPolicy
from repro.core.system import SlimStore
from repro.errors import ReproError
from repro.oss.backend import FilesystemBackend
from repro.oss.object_store import ObjectStorageService
from repro.workloads import GENERATOR_NAMES

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


def _pin(root: Path, key: str, requested, legacy, mismatch: str, predates: str):
    """Pin a repository invariant in ``repro.json``, persisting it on first use.

    ``key`` names the :class:`SlimStoreConfig` field it sets.  A stored
    value wins, and a different ``requested`` one is refused with
    ``mismatch``.  A repository predating the record (data present, no
    record) was built under ``legacy``, and any other request is refused
    with ``predates``.  A fresh repository records the request, or the
    config default.  A stored value is read back as ``legacy``'s type, and
    both messages are formatted with ``stored`` and ``requested``.
    """
    settings = _load_settings(root)
    if key in settings:
        stored = type(legacy)(settings[key])
        if requested is not None and requested != stored:
            raise ReproError(mismatch.format(stored=stored, requested=requested))
        return stored
    if any(p.is_dir() for p in root.iterdir()):
        if requested is not None and requested != legacy:
            raise ReproError(predates.format(requested=requested))
        value = legacy
    else:
        value = getattr(SlimStoreConfig(), key) if requested is None else requested
    settings[key] = value
    _save_settings(root, settings)
    return value


def _resolve_workers(root: Path, requested: int | None) -> int:
    """Pin the repo's wall-clock worker count, persisting it on first set.

    Unlike the invariants :func:`_pin` guards, workers are a *performance*
    setting — every worker count produces byte-identical repositories — so
    a mismatched request simply re-pins the setting instead of refusing to
    attach.
    """
    settings = _load_settings(root)
    if requested is None:
        return int(settings.get("workers", 0))
    if settings.get("workers") != requested:
        settings["workers"] = requested
        _save_settings(root, settings)
    return requested


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
    # Which shard holds a fingerprint depends on the shard count, and every
    # stored digest on the algorithm, so both stay fixed for the
    # repository's lifetime.
    shard_count = _pin(
        root, "index_shard_count", index_shards, 1,
        "repository uses {stored} index shards; "
        "cannot reopen with --index-shards {requested}",
        "existing repository predates sharding (single-shard); "
        "cannot reopen with --index-shards {requested}",
    )
    fingerprint_algo = _pin(
        root, "fingerprint_algo", fingerprint, "sha1",
        "repository fingerprints chunks with {stored}; "
        "cannot attach with --fingerprint {requested}",
        "existing repository predates configurable fingerprints "
        "(sha1); cannot attach with --fingerprint {requested}",
    )
    worker_count = _resolve_workers(root, workers)
    oss = ObjectStorageService(
        backend_factory=lambda bucket: FilesystemBackend(root / bucket)
    )
    # The persisted policy is repository state, like the shard count: the
    # replica/parity keyspace was laid out under it, so every reopen
    # applies it automatically (``repro durability`` changes it).
    durability = _load_settings(root).get("durability")
    config = SlimStoreConfig(
        index_shard_count=shard_count,
        fingerprint_algo=fingerprint_algo,
        workers=worker_count,
        durability=(
            None if durability is None else ReplicationPolicy.from_dict(durability)
        ),
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


def _source_files(names: list[str]) -> list[Path] | None:
    """The FILE arguments, or None after reporting the first that is not
    a file — checked before anything is backed up, so a bad argument
    commits nothing."""
    sources = [Path(name) for name in names]
    for source in sources:
        if not source.is_file():
            print(f"error: not a file: {source}", file=sys.stderr)
            return None
    return sources


def _cmd_backup(args: argparse.Namespace) -> int:
    sources = _source_files(args.files)
    if sources is None:
        return 2
    store = open_repository(
        args.repo,
        index_shards=args.index_shards,
        workers=args.workers,
        fingerprint=args.fingerprint,
    )
    for source in sources:
        logical_path = f"{args.prefix}{source.name}" if args.prefix else str(source)
        report = store.backup(logical_path, source.read_bytes())
        result = report.result
        print(
            f"{logical_path}: v{report.version}, "
            f"{result.logical_bytes} bytes, dedup {result.dedup_ratio:.1%}, "
            f"{result.counters.get('containers_written')} containers, "
            f"{result.counters.get('bytes_scanned')} bytes scanned"
        )
    store.close()  # publishes the last inline G-node pass's clear
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
    for key in report.durability_orphans:
        print(f"  DURABILITY ORPHAN {key}", file=sys.stderr)
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
            f"{len(report.durability_divergent)} divergent copies, "
            f"{len(report.durability_orphans)} orphaned objects"
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


def _describe_policy(policy: ReplicationPolicy) -> str:
    return (
        f"{policy.replica_count}-way replication at >= {policy.hot_refs} refs, "
        f"RS({policy.data_shards},{policy.parity_shards}) erasure at >= "
        f"{policy.cold_refs} refs, {policy.fault_domains} fault domains"
    )


def _cmd_durability(args: argparse.Namespace) -> int:
    root = Path(args.repo)
    if args.enable:
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
        print(f"durability tier enabled: {_describe_policy(policy)}")
    elif args.disable:
        settings = _load_settings(root)
        if settings.pop("durability", None) is None:
            print("durability tier already disabled")
            return 0
        # Drop the whole durability keyspace — the primaries carry the data.
        store = open_repository(args.repo)
        oss = store.storage.oss
        bucket = store.storage.containers._bucket
        keys = oss.peek_keys(bucket, "durability/")
        oss.delete_objects(bucket, keys)
        _save_settings(root, settings)
        print(f"durability tier disabled, {len(keys)} replica/parity objects removed")
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
    classes = durability.classes()
    histogram: dict[str, int] = {}
    for klass in classes.values():
        histogram[klass] = histogram.get(klass, 0) + 1
    print(f"policy: {_describe_policy(durability.policy)}")
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
    store.close()  # publishes the last inline G-node pass's clear
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


@_tenant_handler
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


@_tenant_handler
def _cmd_tenant_backup(args: argparse.Namespace) -> int:
    import time

    sources = _source_files(args.files)
    if sources is None:
        return 2
    service = open_service(args.repo)
    for source in sources:
        logical_path = f"{args.prefix}{source.name}" if args.prefix else str(source)
        report = service.backup(
            args.tenant, logical_path, source.read_bytes(), timestamp=time.time()
        )
        result = report.result
        print(
            f"{args.tenant}/{logical_path}: v{report.version}, "
            f"{result.logical_bytes} bytes, dedup {result.dedup_ratio:.1%}"
        )
    service.close()  # publishes the last inline G-node pass's clear
    return 0


@_tenant_handler
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


@_tenant_handler
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


@_tenant_handler
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


@_tenant_handler
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


@_tenant_handler
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
    session.store.close()  # publishes the last inline G-node pass's clear
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
    session.store.close()  # publishes the last inline G-node pass's clear
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


def _arg(*flags: str, **spec) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as data."""
    return flags, spec


_REPO = _arg("repo")
_PATH = _arg("path")
_BACKUP_PATH = _arg("path", help="logical path of the backup")
_FILES = _arg("files", nargs="+", help="files to back up")
_PREFIX = _arg("--prefix", default="", help="logical path prefix")
_VERSION = _arg("--version", type=int, default=None,
                help="version number (default: latest)")
_OUTPUT = _arg("--output", default=None, help="output file")
_OUTPUT_OR_STDOUT = _arg("--output", default=None,
                          help="output file (default: raw stdout)")
_OFFSET = _arg("offset", type=int, help="start offset in bytes")
_TENANT = _arg("tenant")
_POLICY = ReplicationPolicy()

#: Sub-command groups: name -> help.  Each group's verbs are the rows of
#: :data:`_VERBS` naming it, parsed into ``<group>_command``.
_GROUPS = {
    "trace": "record or replay a workload trace (JSONL)",
    "browse": "random-access reads/writes on backup versions "
              "through the L-node block cache",
    "tenant": "manage a multi-tenant service repository",
}

#: Every verb, in ``--help`` order: (group, name, help, handler, arguments).
_VERBS = [
    (None, "backup", "back up files as new versions", _cmd_backup, [
        _arg("repo", help="repository directory"), _FILES, _PREFIX,
        _arg("--index-shards", type=int, default=None,
             help="global-index shard count (fixed at repo creation)"),
        _arg("--workers", type=int, default=None,
             help="wall-clock worker count for the scan + fingerprint "
                  "fan-out (0 = serial; persisted in repro.json)"),
        _arg("--fingerprint", choices=["sha1", "blake2b"], default=None,
             help="chunk fingerprint algorithm (pinned at repo creation; "
                  "attaching with a mismatch is refused)"),
    ]),
    (None, "restore", "restore a backup version", _cmd_restore, [
        _REPO, _BACKUP_PATH, _VERSION, _OUTPUT,
        _arg("--prefetch-threads", type=int, default=None,
             help="parallel OSS prefetch channels (0 disables)"),
        _arg("--whole-containers", action="store_true",
             help="read whole containers instead of ranged GETs"),
    ]),
    (None, "versions", "list live versions", _cmd_versions, [
        _REPO, _arg("path", nargs="?", default=None),
    ]),
    (None, "delete", "collect the oldest version", _cmd_delete, [
        _REPO, _PATH, _arg("version", type=int),
    ]),
    (None, "space", "show repository space usage", _cmd_space, [_REPO]),
    (None, "index", "show global-index shard stats", _cmd_index, [_REPO]),
    (None, "scrub", "verify repository integrity", _cmd_scrub, [
        _REPO, _arg("--repair", action="store_true",
                    help="heal corrupt chunks from healthy copies"),
    ]),
    (None, "fsck", "check crash consistency (journal, orphans, tombstones)",
     _cmd_fsck, [
        _REPO, _arg("--repair", action="store_true",
                    help="roll interrupted jobs forward/back and GC debris"),
    ]),
    (None, "durability", "show or manage the replication/erasure tier",
     _cmd_durability, [
        _REPO,
        _arg("--enable", action="store_true",
             help="enable the tier and persist the policy"),
        _arg("--disable", action="store_true",
             help="disable the tier and drop replica/parity bytes"),
        _arg("--retier", action="store_true",
             help="re-tier every container to the live refcounts"),
        _arg("--replicas", type=int, default=_POLICY.replica_count,
             help="copies for hot containers (with --enable)"),
        _arg("--hot-refs", type=int, default=_POLICY.hot_refs,
             help="refcount where replication starts"),
        _arg("--cold-refs", type=int, default=_POLICY.cold_refs,
             help="refcount where erasure coding starts"),
        _arg("--data-shards", type=int, default=_POLICY.data_shards,
             help="Reed-Solomon data shards per stripe"),
        _arg("--parity-shards", type=int, default=_POLICY.parity_shards,
             help="Reed-Solomon parity shards per stripe"),
        _arg("--fault-domains", type=int, default=_POLICY.fault_domains,
             help="simulated fault domains for placement"),
    ]),
    ("trace", "record", "generate a workload and write it as a trace file",
     _cmd_trace_record, [
        _arg("output", help="trace file to write (JSONL)"),
        _arg("--generator", required=True, choices=list(GENERATOR_NAMES),
             help="workload generator to record"),
        _arg("--seed", type=int, default=None,
             help="generator seed (default: the workload's)"),
        _arg("--versions", type=int, default=None,
             help="backup versions to generate"),
    ]),
    ("trace", "replay", "drive a trace file's backups into a repository",
     _cmd_trace_replay, [
        _arg("repo", help="repository directory"),
        _arg("trace", help="trace file to replay"),
        _arg("--verify", action="store_true",
             help="restore every replayed backup and check it against the "
                  "trace checksums"),
    ]),
    ("browse", "cat", "read a whole file at some version", _cmd_browse_cat, [
        _arg("repo", help="repository directory"), _BACKUP_PATH, _VERSION,
        _OUTPUT_OR_STDOUT,
    ]),
    ("browse", "read", "read a byte range without restoring the whole version",
     _cmd_browse_read, [
        _REPO, _PATH, _OFFSET, _arg("length", type=int, help="bytes to read"),
        _VERSION, _OUTPUT_OR_STDOUT,
    ]),
    ("browse", "write", "write a byte range back and commit a new version",
     _cmd_browse_write, [
        _REPO, _PATH, _OFFSET,
        _arg("input", help="file holding the bytes to write"),
        _arg("--no-flush", action="store_true",
             help="leave the write dirty in cache (no commit; for scripted "
                  "sessions)"),
    ]),
    ("browse", "flush", "commit dirtied files as new versions", _cmd_browse_flush, [
        _REPO, _arg("path", nargs="?", default=None,
                    help="flush only this path (default: all dirty)"),
    ]),
    ("browse", "stat", "show size/version/dirtiness of one file",
     _cmd_browse_stat, [_REPO, _PATH, _VERSION]),
    ("browse", "stats", "print the block-cache counters line", _cmd_browse_stats, [
        _REPO, _arg("path", nargs="?", default=None,
                    help="warm the cache with one full read first"),
        _VERSION,
    ]),
    ("tenant", "list", "list tenants with usage, weight and retention",
     _cmd_tenant_list, [_arg("repo", help="service repository directory")]),
    ("tenant", "backup", "back up files on behalf of a tenant", _cmd_tenant_backup, [
        _REPO, _arg("tenant", help="tenant name (lowercase)"), _FILES, _PREFIX,
    ]),
    ("tenant", "restore", "restore a tenant's backup version", _cmd_tenant_restore, [
        _REPO, _TENANT, _BACKUP_PATH, _VERSION, _OUTPUT,
    ]),
    ("tenant", "retention", "show or set a tenant's retention policy",
     _cmd_tenant_retention, [
        _REPO, _TENANT,
        _arg("--keep-last", type=int, default=None,
             help="protect the newest N versions per path"),
        _arg("--keep-days", type=float, default=None,
             help="protect versions younger than D days"),
        _arg("--clear", action="store_true",
             help="drop the policy (protect everything)"),
    ]),
    ("tenant", "apply-retention", "collect versions the policy no longer protects",
     _cmd_tenant_apply_retention, [_REPO, _TENANT]),
    ("tenant", "weight", "show or set a tenant's fair-share weight",
     _cmd_tenant_weight, [
        _REPO, _TENANT,
        _arg("value", type=float, nargs="?", default=None,
             help="new weight (positive; omit to show)"),
    ]),
    ("tenant", "remove", "remove a tenant account and reclaim its space",
     _cmd_tenant_remove, [_REPO, _TENANT]),
]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests), built from :data:`_VERBS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLIMSTORE: deduplicating multi-version backups",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {None: commands}
    for group, name, help_text, handler, arguments in _VERBS:
        if group not in groups:
            groups[group] = commands.add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest=f"{group}_command", required=True)
        verb = groups[group].add_parser(name, help=help_text)
        for flags, spec in arguments:
            verb.add_argument(*flags, **spec)
        verb.set_defaults(handler=handler)
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
