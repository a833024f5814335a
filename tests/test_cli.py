"""CLI smoke tests: the durable on-disk repository and ``repro fsck``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main, open_repository, open_service
from tests.conftest import random_bytes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(97531)


def test_backup_restore_roundtrip(tmp_path, rng):
    payload = random_bytes(rng, 64 * 1024)
    source = tmp_path / "accounts.tbl"
    source.write_bytes(payload)
    repo = tmp_path / "repo"

    assert main(["backup", str(repo), str(source)]) == 0
    out = tmp_path / "restored.tbl"
    assert main(["restore", str(repo), str(source), "--output", str(out)]) == 0
    assert out.read_bytes() == payload



class TestRepositoryVerbs:
    """One case per verb and flag the scenario tests below never run."""

    @pytest.fixture
    def repo(self, tmp_path, rng, capsys):
        payload = random_bytes(rng, 64 * 1024)
        source = tmp_path / "a.tbl"
        source.write_bytes(payload)
        repo = tmp_path / "repo"
        assert main(["backup", str(repo), str(source), "--prefix", "db/"]) == 0
        source.write_bytes(payload[:30000] + random_bytes(rng, 4096) + payload[30000:])
        assert main(["backup", str(repo), str(source), "--prefix", "db/"]) == 0
        capsys.readouterr()
        return repo

    def test_versions_lists_live_versions(self, repo, capsys):
        assert main(["versions", str(repo)]) == 0
        assert capsys.readouterr().out == "db/a.tbl: versions 0, 1\n"

    def test_delete_collects_the_oldest_version(self, repo, capsys):
        assert main(["delete", str(repo), "db/a.tbl", "0"]) == 0
        assert capsys.readouterr().out.startswith("deleted db/a.tbl@v0, reclaimed ")
        assert main(["versions", str(repo), "db/a.tbl"]) == 0
        assert capsys.readouterr().out == "db/a.tbl: versions 1\n"

    def test_delete_refuses_a_version_that_is_not_the_oldest(self, repo, capsys):
        assert main(["delete", str(repo), "db/a.tbl", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: backup version not found: db/a.tbl@v1\n"
        )

    def test_space_lines_sum_to_the_total(self, repo, capsys):
        assert main(["space", str(repo)]) == 0
        lines = capsys.readouterr().out.splitlines()
        sizes = [int(line.split()[-2]) for line in lines]
        assert lines[-1].startswith("total:")
        assert sizes[-1] == sum(sizes[:-1]) > 0

    def test_index_reports_every_shard(self, repo, capsys):
        assert main(["index", str(repo)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("shards: 4\n")
        assert out.count("  shard ") == 4

    def test_scrub_of_a_healthy_repository_is_clean(self, repo, capsys):
        assert main(["scrub", str(repo)]) == 0
        assert capsys.readouterr().out.endswith("repository is clean\n")

    def test_browse_flush_with_nothing_dirty(self, repo, capsys):
        assert main(["browse", "flush", str(repo)]) == 0
        assert capsys.readouterr().out == "nothing dirty\n"

    def test_durability_retier(self, repo, capsys):
        assert main(["durability", str(repo), "--retier"]) == 0
        assert capsys.readouterr().out == (
            "durability tier: disabled (enable with --enable)\n"
        )
        assert main(["durability", str(repo), "--enable"]) == 0
        capsys.readouterr()
        assert main(["durability", str(repo), "--retier"]) == 0
        assert "0 transitions" in capsys.readouterr().out.splitlines()[0]

    def test_restore_whole_containers(self, repo, tmp_path, capsys):
        out = tmp_path / "v0.tbl"
        assert main(["restore", str(repo), "db/a.tbl", "--version", "0",
                     "--whole-containers", "--output", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"restored db/a.tbl@v0 -> {out} (65536 bytes, 1 container reads)"
        assert lines[1].startswith("  whole-container reads: ")

    def test_restore_of_an_unknown_path_is_a_clean_error(self, repo, capsys):
        assert main(["restore", str(repo), "db/nope"]) == 1
        assert capsys.readouterr().err == "error: backup version not found: db/nope\n"

    def test_backup_with_a_missing_file_backs_up_nothing(self, tmp_path, rng, capsys):
        source = tmp_path / "a.tbl"
        source.write_bytes(random_bytes(rng, 16 * 1024))
        repo = tmp_path / "repo"
        missing = tmp_path / "missing.tbl"
        assert main(["backup", str(repo), str(source), str(missing)]) == 2
        assert main(["tenant", "backup", str(tmp_path / "svc"), "alice",
                     str(source), str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: not a file: {missing}\n" * 2
        assert main(["versions", str(repo)]) == 0
        assert main(["tenant", "list", str(tmp_path / "svc")]) == 0
        assert capsys.readouterr().out == "no tenants\n"

    def test_backup_verbs_leave_no_version_pending(self, tmp_path, rng, capsys):
        """Each verb that backs up publishes its inline G-node pass's clear
        before it exits, so the next process has nothing to drain."""
        source = tmp_path / "a.tbl"
        data = random_bytes(rng, 48 * 1024)
        for payload in (data, data[: 24 * 1024] + random_bytes(rng, 24 * 1024)):
            source.write_bytes(payload)
            assert main(["backup", str(tmp_path / "repo"), str(source)]) == 0
            assert main(["tenant", "backup", str(tmp_path / "svc"), "alice",
                         str(source)]) == 0
        assert open_repository(tmp_path / "repo").pending_versions() == []
        service = open_service(tmp_path / "svc")
        assert service.store_for("alice").pending_versions() == []

class TestFsck:
    def test_clean_repository_exits_zero(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 32 * 1024))

        assert main(["fsck", str(repo)]) == 0
        assert "repository is consistent" in capsys.readouterr().out

    def test_an_unstamped_repository_is_refused(self, tmp_path, rng, capsys):
        """A catalog whose first record lacks the format stamp: fsck exits 1
        naming the format, and writes nothing."""
        import json

        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 32 * 1024))
        store.close()
        record = repo / "slimstore" / "catalog" / "log" / "000000000000"
        ops = json.loads(record.read_bytes())
        assert ops[0][0] == "format"
        record.write_text(json.dumps(ops[1:]))
        before = sorted(str(path) for path in repo.rglob("*"))

        assert main(["fsck", str(repo)]) == 1
        err = capsys.readouterr().err
        assert "no format stamp" in err and "format 1" in err
        assert sorted(str(path) for path in repo.rglob("*")) == before

    def test_open_intent_fails_without_repair(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 32 * 1024))
        # Abandon an intent the way a crashed process would.
        store.storage.journal.begin(
            "backup", path="g", version=0,
            watermark=store.storage.containers.peek_next_id(),
        )

        assert main(["fsck", str(repo)]) == 1
        captured = capsys.readouterr()
        assert "1 open intents" in captured.out
        assert "OPEN intent" in captured.err
        assert "--repair" in captured.err

    def test_repair_recovers_and_fsck_comes_back_clean(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 32 * 1024)
        store = open_repository(repo)
        store.backup("f", payload)
        store.storage.journal.begin(
            "backup", path="g", version=0,
            watermark=store.storage.containers.peek_next_id(),
        )

        assert main(["fsck", str(repo), "--repair"]) == 0
        assert "repository recovered" in capsys.readouterr().out
        assert main(["fsck", str(repo)]) == 0

        # The committed version survived the repair.
        fresh = open_repository(repo)
        assert fresh.restore("f", 0).data == payload

    def test_ordinary_reopen_self_heals(self, tmp_path, rng):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 32 * 1024)
        store = open_repository(repo)
        store.backup("f", payload)
        store.storage.journal.begin(
            "backup", path="g", version=0,
            watermark=store.storage.containers.peek_next_id(),
        )

        # Any non-fsck command attaches with recovery enabled.
        fresh = open_repository(repo)
        assert fresh.last_recovery is not None
        assert fresh.storage.journal.open_intents() == []
        assert fresh.restore("f", 0).data == payload


    def test_interrupted_fold_is_reported_and_repaired(self, tmp_path, rng, capsys):
        """A node that died between a fold's checkpoint PUT and its batched
        DELETE leaves records the checkpoint already covers."""
        from repro.errors import SimulatedCrashError
        from repro.oss.faults import FaultPolicy

        repo = tmp_path / "repo"
        payload = random_bytes(rng, 32 * 1024)
        store = open_repository(repo)
        store.backup("f", payload)
        policy = FaultPolicy()
        policy.crash_after_writes(1)
        store.oss.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.fold_metadata()

        assert main(["fsck", str(repo)]) == 1
        captured = capsys.readouterr()
        assert "1 folded records left behind" in captured.out
        assert "catalog/log/000000000000" in captured.err
        assert main(["fsck", str(repo), "--repair"]) == 0
        capsys.readouterr()
        assert main(["fsck", str(repo)]) == 0
        assert "0 folded records left behind" in capsys.readouterr().out
        assert open_repository(repo).restore("f", 0).data == payload


class TestDurabilityCommand:
    def test_enable_persists_and_reopen_applies(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 96 * 1024)
        store = open_repository(repo)
        for _ in range(3):
            store.backup("f", payload)

        assert main([
            "durability", str(repo), "--enable",
            "--replicas", "3", "--hot-refs", "2", "--cold-refs", "1",
            "--fault-domains", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "durability tier enabled" in out

        # The persisted policy applies on every later open.
        fresh = open_repository(repo)
        assert fresh.storage.durability is not None
        assert fresh.storage.durability.policy.hot_refs == 2
        assert fresh.storage.durability.classes()

        # Status output reflects the live tier.
        assert main(["durability", str(repo)]) == 0
        status = capsys.readouterr().out
        assert "durability bytes:" in status
        assert "policy:" in status or "replication" in status

    def test_invalid_geometry_is_a_clean_error(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 32 * 1024))
        # k + m > domains * m: the policy validator must reject it
        # through the CLI's error path, not a traceback.
        assert main([
            "durability", str(repo), "--enable",
            "--data-shards", "7", "--parity-shards", "2",
            "--fault-domains", "3",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_disable_drops_replica_bytes(self, tmp_path, rng, capsys, monkeypatch):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 96 * 1024)
        store = open_repository(repo)
        for _ in range(3):
            store.backup("f", payload)
        assert main(["durability", str(repo), "--enable", "--hot-refs", "2"]) == 0
        enabled = open_repository(repo, run_recovery=False)
        keys = enabled.oss.peek_keys(enabled.storage.containers._bucket, "durability/")
        assert keys

        # The sweep is batched: one DELETE per 1,000 keys, counted from
        # the moment the command's attach returned.
        opened = []

        def spy(*args, **kwargs):
            store = open_repository(*args, **kwargs)
            opened.append((store, store.oss.stats.delete_requests))
            return store

        monkeypatch.setattr("repro.cli.open_repository", spy)
        assert main(["durability", str(repo), "--disable"]) == 0
        assert f"{len(keys)} replica/parity objects removed" in capsys.readouterr().out
        (store, deletes_at_attach), = opened
        sweep = store.oss.stats.delete_requests - deletes_at_attach
        assert 0 < sweep <= -(-len(keys) // 1000)

        fresh = open_repository(repo)
        assert fresh.storage.durability is None
        bucket = fresh.storage.containers._bucket
        assert list(fresh.oss.peek_keys(bucket, "durability/")) == []
        assert fresh.restore("f", 0).data == payload

    def test_fsck_reports_and_sweeps_durability_debris(self, tmp_path, rng, capsys):
        """An object under ``durability/`` that no log record names is what a
        tier step killed before its append leaves: fsck counts it on the
        ``durability:`` line and ``--repair`` deletes it."""
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 96 * 1024)
        store = open_repository(repo)
        for _ in range(3):
            store.backup("f", payload)
        assert main(["durability", str(repo), "--enable", "--hot-refs", "2"]) == 0
        debris = repo / "slimstore" / "durability" / "d1" / "000000000099.copy0"
        debris.parent.mkdir(parents=True, exist_ok=True)
        debris.write_bytes(b"replica bytes")
        capsys.readouterr()

        assert main(["fsck", str(repo)]) == 1
        captured = capsys.readouterr()
        assert "DURABILITY ORPHAN durability/d1/000000000099.copy0" in captured.err
        assert "divergent copies, 1 orphaned objects" in captured.out
        assert main(["fsck", str(repo), "--repair"]) == 0
        assert "1 replica orphans swept" in capsys.readouterr().out
        assert not debris.exists()
        assert main(["fsck", str(repo)]) == 0
        assert "0 orphaned objects" in capsys.readouterr().out

    def test_fsck_finds_and_repairs_divergent_copy(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 96 * 1024)
        store = open_repository(repo)
        for _ in range(3):
            store.backup("f", payload)
        assert main(["durability", str(repo), "--enable", "--hot-refs", "2"]) == 0

        # Rot one replica copy at rest: primary and record still agree,
        # so only the copies-agree-on-hash audit can see it.
        fresh = open_repository(repo)
        durability = fresh.storage.durability
        cid, record = next(
            (cid, record)
            for cid, record in sorted(durability._records.items())
            if record.get("copies")
        )
        key = record["copies"][0]["key"]
        bucket = fresh.storage.containers._bucket
        rotten = bytearray(fresh.oss.get_object(bucket, key))
        rotten[len(rotten) // 2] ^= 0x01
        fresh.oss.put_object(bucket, key, bytes(rotten))

        assert main(["fsck", str(repo)]) == 1
        captured = capsys.readouterr()
        assert "DIVERGENT" in captured.err
        assert main(["fsck", str(repo), "--repair"]) == 0
        assert "re-synced" in capsys.readouterr().out
        assert main(["fsck", str(repo)]) == 0

        healed = open_repository(repo)
        audit = healed.storage.durability.audit(healed.catalog.refcounts())
        assert not audit.divergent_copies
        assert healed.restore("f", 0).data == payload


class TestTraceCommand:
    def test_record_then_replay_verifies(self, tmp_path, capsys):
        trace = tmp_path / "srctree.jsonl"
        repo = tmp_path / "repo"

        assert main([
            "trace", "record", str(trace),
            "--generator", "srctree", "--seed", "11", "--versions", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded Src-Tree: 3 versions" in out
        assert trace.is_file()

        assert main(["trace", "replay", str(repo), str(trace), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "replayed Src-Tree: 3 versions" in out
        assert "verify OK" in out

    def test_replay_rejects_corrupted_trace(self, tmp_path, capsys):
        trace = tmp_path / "sdb.jsonl"
        assert main([
            "trace", "record", str(trace),
            "--generator", "sdb", "--seed", "5", "--versions", "2",
        ]) == 0
        capsys.readouterr()
        # Flip one payload character: the reader's checksum must refuse it.
        lines = trace.read_text().splitlines()
        for index, line in enumerate(lines):
            if '"record": "file"' in line:
                where = line.index('"data": "') + len('"data": "')
                flipped = "B" if line[where] != "B" else "C"
                lines[index] = line[:where] + flipped + line[where + 1:]
                break
        trace.write_text("\n".join(lines) + "\n")

        assert main(["trace", "replay", str(tmp_path / "repo"), str(trace)]) == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_record_same_seed_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for target in (first, second):
            assert main([
                "trace", "record", str(target),
                "--generator", "maillog", "--seed", "3", "--versions", "2",
            ]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestExecutionSettings:
    """``--workers`` and ``--fingerprint`` persistence in ``repro.json``."""

    def _seed_repo(self, tmp_path, rng, extra_args=()):
        payload = random_bytes(rng, 64 * 1024)
        source = tmp_path / "accounts.tbl"
        source.write_bytes(payload)
        repo = tmp_path / "repo"
        assert main(["backup", str(repo), str(source), *extra_args]) == 0
        return repo, source, payload

    def test_workers_persist_and_apply_on_reopen(self, tmp_path, rng):
        import json

        repo, source, payload = self._seed_repo(
            tmp_path, rng, ["--workers", "2"]
        )
        settings = json.loads((repo / "repro.json").read_text())
        assert settings["workers"] == 2

        # Reopen without the flag: the pinned count drives the executor.
        store = open_repository(repo)
        try:
            assert store.config.workers == 2
            assert store.executor is not None
            assert store.restore(str(source), 0).data == payload
        finally:
            store.close()

    def test_workers_mismatch_repins_instead_of_refusing(self, tmp_path, rng):
        import json

        repo, source, payload = self._seed_repo(
            tmp_path, rng, ["--workers", "4"]
        )
        assert main(["backup", str(repo), str(source), "--workers", "0"]) == 0
        settings = json.loads((repo / "repro.json").read_text())
        assert settings["workers"] == 0

    def test_restore_takes_no_workers_flag_and_leaves_the_pin(self, tmp_path, rng):
        import json

        repo, source, payload = self._seed_repo(
            tmp_path, rng, ["--workers", "4"]
        )
        out = tmp_path / "restored.tbl"
        assert main(["restore", str(repo), str(source), "--output", str(out)]) == 0
        assert out.read_bytes() == payload
        assert json.loads((repo / "repro.json").read_text())["workers"] == 4
        with pytest.raises(SystemExit):
            main(["restore", str(repo), str(source), "--workers", "0"])

    def test_parallel_and_serial_backups_restore_identically(self, tmp_path, rng):
        payload = random_bytes(rng, 96 * 1024)
        source = tmp_path / "report.doc"
        source.write_bytes(payload)
        for name, args in (("serial", []), ("parallel", ["--workers", "2"])):
            repo = tmp_path / name
            assert main(["backup", str(repo), str(source), *args]) == 0
            out = tmp_path / f"{name}.out"
            assert main([
                "restore", str(repo), str(source), "--output", str(out)
            ]) == 0
            assert out.read_bytes() == payload

    def test_fingerprint_attach_guard_refuses_mismatch(self, tmp_path, rng, capsys):
        repo, source, _ = self._seed_repo(
            tmp_path, rng, ["--fingerprint", "blake2b"]
        )
        assert main([
            "backup", str(repo), str(source), "--fingerprint", "sha1",
        ]) == 1
        err = capsys.readouterr().err
        assert "fingerprints chunks with blake2b" in err

    def test_legacy_repository_pins_sha1(self, tmp_path, rng):
        import json

        # A repo created before the setting existed: data, no record.
        repo, source, payload = self._seed_repo(tmp_path, rng)
        settings = json.loads((repo / "repro.json").read_text())
        settings.pop("fingerprint_algo")
        (repo / "repro.json").write_text(json.dumps(settings))

        with pytest.raises(Exception, match="predates configurable"):
            open_repository(repo, fingerprint="blake2b")

        store = open_repository(repo)
        try:
            assert store.config.fingerprint_algo == "sha1"
            assert store.restore(str(source), 0).data == payload
        finally:
            store.close()
        settings = json.loads((repo / "repro.json").read_text())
        assert settings["fingerprint_algo"] == "sha1"


class TestTenantCommands:
    def test_multi_tenant_lifecycle(self, tmp_path, rng, capsys):
        repo = tmp_path / "svc"
        alice_file = tmp_path / "a.tbl"
        bob_file = tmp_path / "b.tbl"
        alice_payload = random_bytes(rng, 48 * 1024)
        alice_file.write_bytes(alice_payload)
        bob_file.write_bytes(random_bytes(rng, 48 * 1024))

        assert main(["tenant", "backup", str(repo), "alice", str(alice_file),
                     "--prefix", "db/"]) == 0
        assert main(["tenant", "backup", str(repo), "bob", str(bob_file),
                     "--prefix", "db/"]) == 0
        capsys.readouterr()

        assert main(["tenant", "list", str(repo)]) == 0
        listing = capsys.readouterr().out
        assert "alice:" in listing and "bob:" in listing

        out = tmp_path / "restored.tbl"
        assert main(["tenant", "restore", str(repo), "alice", "db/a.tbl",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == alice_payload

        assert main(["tenant", "weight", str(repo), "alice", "2.5"]) == 0
        assert main(["tenant", "weight", str(repo), "alice"]) == 0
        assert "2.5" in capsys.readouterr().out

        assert main(["tenant", "remove", str(repo), "bob"]) == 0
        capsys.readouterr()
        assert main(["tenant", "list", str(repo)]) == 0
        listing = capsys.readouterr().out
        assert "bob" not in listing and "alice:" in listing

    def test_retention_collects_old_versions(self, tmp_path, rng, capsys):
        repo = tmp_path / "svc"
        source = tmp_path / "a.tbl"
        for _ in range(4):
            source.write_bytes(random_bytes(rng, 32 * 1024))
            assert main(["tenant", "backup", str(repo), "alice",
                         str(source), "--prefix", "db/"]) == 0
        capsys.readouterr()

        assert main(["tenant", "retention", str(repo), "alice",
                     "--keep-last", "2"]) == 0
        assert main(["tenant", "apply-retention", str(repo), "alice"]) == 0
        out = capsys.readouterr().out
        assert "deleted db/a.tbl@v0" in out
        assert "2 versions collected" in out

        # The survivors are still restorable after the collection.
        assert main(["tenant", "restore", str(repo), "alice", "db/a.tbl",
                     "--output", str(tmp_path / "out.tbl")]) == 0

    def test_mixed_case_tenant_is_a_clean_error(self, tmp_path, rng, capsys):
        repo = tmp_path / "svc"
        source = tmp_path / "a.tbl"
        source.write_bytes(random_bytes(rng, 16 * 1024))
        assert main(["tenant", "backup", str(repo), "Alice", str(source)]) == 2
        assert "lowercase" in capsys.readouterr().err


class TestBrowseCommands:
    def test_read_write_stat_lifecycle(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        payload = random_bytes(rng, 64 * 1024)
        store = open_repository(repo)
        store.backup("f", payload)

        assert main(["browse", "stat", str(repo), "f"]) == 0
        captured = capsys.readouterr()
        assert "version:       0" in captured.out
        assert "blockcache:" in captured.err

        out = tmp_path / "slice.bin"
        assert main(["browse", "read", str(repo), "f", "1000", "64",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == payload[1000:1064]

        full = tmp_path / "full.bin"
        assert main(["browse", "cat", str(repo), "f",
                     "--output", str(full)]) == 0
        assert full.read_bytes() == payload

        patch = tmp_path / "patch.bin"
        patch.write_bytes(b"PATCHED")
        assert main(["browse", "write", str(repo), "f", "2048",
                     str(patch)]) == 0
        assert "committed as v1" in capsys.readouterr().out

        expected = bytearray(payload)
        expected[2048:2055] = b"PATCHED"
        assert main(["browse", "cat", str(repo), "f",
                     "--output", str(full)]) == 0
        assert full.read_bytes() == bytes(expected)

    def test_read_past_eof_is_a_clean_error(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 1024))

        assert main(["browse", "read", str(repo), "f", "99999", "5"]) == 1
        assert "past EOF" in capsys.readouterr().err

    def test_fsck_reports_and_reaps_cache_debris(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 1024))
        store.oss.put_object(store.bucket, "browsecache/000000000009/00000000",
                             b"debris")

        assert main(["fsck", str(repo)]) == 1
        captured = capsys.readouterr()
        assert "CACHE DEBRIS" in captured.err
        assert "1 debris objects" in captured.out

        assert main(["fsck", str(repo), "--repair"]) == 0
        assert "1 cache staging objects reaped" in capsys.readouterr().out
        assert main(["fsck", str(repo)]) == 0

    def test_stats_command_prints_cache_line(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", random_bytes(rng, 8 * 1024))

        assert main(["browse", "stats", str(repo), "f"]) == 0
        line = capsys.readouterr().out
        assert "blockcache:" in line and "hit_ratio=" in line
