"""Durable repositories: recovery after process restart and the CLI."""

import pytest

from repro import SlimStore, SlimStoreConfig
from repro.cli import main, open_repository
from repro.core.system import VersionCatalog
from repro.oss.backend import FilesystemBackend
from repro.oss.object_store import ObjectStorageService
from tests.conftest import mutate, random_bytes

CONFIG = SlimStoreConfig(container_bytes=64 * 1024, segment_bytes=32 * 1024)


def durable_store(root) -> SlimStore:
    oss = ObjectStorageService(
        backend_factory=lambda bucket: FilesystemBackend(root / bucket)
    )
    store = SlimStore(CONFIG, oss)
    store.recover()
    return store


class TestCatalogSerialisation:
    def test_roundtrip(self):
        catalog = VersionCatalog()
        catalog.register("f", 0, {1, 2}, [])
        catalog.register("f", 1, {2, 3}, [])
        catalog.add_garbage("f", 0, [9])
        restored = VersionCatalog.from_json(catalog.to_json())
        assert restored.versions("f") == [0, 1]
        assert set(restored.drop_version("f", 0)) == {1, 9}

    def test_refcounts_rederived(self):
        catalog = VersionCatalog()
        catalog.register("a", 0, {7}, [])
        catalog.register("b", 0, {7}, [])
        restored = VersionCatalog.from_json(catalog.to_json())
        assert restored.drop_version("a", 0) == []
        assert restored.drop_version("b", 0) == [7]


class TestDurableRepository:
    def test_reattach_deduplicates_and_restores(self, tmp_path, rng):
        data = random_bytes(rng, 256 * 1024)
        first = durable_store(tmp_path)
        first.backup("f", data)

        # A brand-new process: everything rebuilt from disk.
        second = durable_store(tmp_path)
        assert second.versions("f") == [0]
        changed = mutate(rng, data, 2, 8192)
        report = second.backup("f", changed)
        assert report.version == 1
        assert report.dedup_ratio > 0.85
        assert second.restore("f", 0).data == data
        assert second.restore("f", 1).data == changed

    def test_reattach_preserves_container_id_space(self, tmp_path, rng):
        first = durable_store(tmp_path)
        report = first.backup("f", random_bytes(rng, 128 * 1024))
        highest = max(report.result.new_container_ids)
        second = durable_store(tmp_path)
        next_report = second.backup("g", random_bytes(rng, 64 * 1024))
        assert min(next_report.result.new_container_ids) > highest

    def test_reattach_recovers_global_index(self, tmp_path, rng):
        data = random_bytes(rng, 128 * 1024)
        first = durable_store(tmp_path)
        report = first.backup("f", data)
        meta = first.storage.containers.read_meta(report.result.new_container_ids[0])
        probe = meta.live_entries()[0].fp

        second = durable_store(tmp_path)
        assert second.storage.global_index.lookup(probe) is not None
        assert second.storage.global_index.maybe_contains(probe)

    def test_recover_on_empty_repo(self, tmp_path):
        store = durable_store(tmp_path)
        assert store.versions("anything") == []

    def test_delete_survives_reattach(self, tmp_path, rng):
        data = random_bytes(rng, 128 * 1024)
        first = durable_store(tmp_path)
        first.backup("f", data)
        first.backup("f", mutate(rng, data, 1, 4096))
        first.delete_version("f", 0)
        second = durable_store(tmp_path)
        assert second.versions("f") == [1]


class TestCLI:
    @pytest.fixture
    def sample_file(self, tmp_path, rng):
        path = tmp_path / "sample.bin"
        path.write_bytes(random_bytes(rng, 200 * 1024))
        return path

    def test_backup_restore_cycle(self, tmp_path, sample_file, capsys):
        repo = tmp_path / "repo"
        assert main(["backup", str(repo), str(sample_file), "--prefix", "data/"]) == 0
        out = tmp_path / "restored.bin"
        assert main([
            "restore", str(repo), "data/sample.bin", "--output", str(out)
        ]) == 0
        assert out.read_bytes() == sample_file.read_bytes()
        stdout = capsys.readouterr().out
        assert "v0" in stdout

    def test_versions_and_space(self, tmp_path, sample_file, capsys):
        repo = tmp_path / "repo"
        main(["backup", str(repo), str(sample_file)])
        assert main(["versions", str(repo)]) == 0
        assert main(["space", str(repo)]) == 0
        stdout = capsys.readouterr().out
        assert "versions 0" in stdout
        assert "total:" in stdout

    def test_delete_command(self, tmp_path, sample_file, capsys, rng):
        repo = tmp_path / "repo"
        main(["backup", str(repo), str(sample_file), "--prefix", "d/"])
        sample_file.write_bytes(random_bytes(rng, 210 * 1024))
        main(["backup", str(repo), str(sample_file), "--prefix", "d/"])
        assert main(["delete", str(repo), "d/sample.bin", "0"]) == 0
        main(["versions", str(repo)])
        assert "versions 1" in capsys.readouterr().out

    def test_backup_missing_file_errors(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        assert main(["backup", str(repo), str(tmp_path / "ghost")]) == 2
        assert "not a file" in capsys.readouterr().err

    def test_restore_unknown_path_exits_cleanly(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        assert main(["restore", str(repo), "never/backed/up"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_delete_wrong_order_exits_cleanly(self, tmp_path, sample_file, capsys):
        repo = tmp_path / "repo"
        main(["backup", str(repo), str(sample_file), "--prefix", "d/"])
        main(["backup", str(repo), str(sample_file), "--prefix", "d/"])
        assert main(["delete", str(repo), "d/sample.bin", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_open_repository_idempotent(self, tmp_path, sample_file):
        repo = tmp_path / "repo"
        store = open_repository(repo)
        store.backup("f", sample_file.read_bytes())
        again = open_repository(repo)
        assert again.versions("f") == [0]
