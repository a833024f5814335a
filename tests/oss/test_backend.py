"""Tests for the OSS storage backends."""

import pytest

from repro.oss.backend import FilesystemBackend, InMemoryBackend

KEYS = ("containers/7.data", "containers/10.meta", "containers.json", "journal/a/1", "j", "x/y/z")
PREFIXES = ("", "c", "containers", "containers/", "containers/1", "journal/", "journal/a/",
            "x/y/", "x/y/z", "missing/", "containers/7.data/", "../", "/x/", "./", "a//b/")


@pytest.mark.parametrize("kind", ["memory", "filesystem"])
def test_prefix_listing_filters_before_sorting(kind, tmp_path):
    backend = InMemoryBackend() if kind == "memory" else FilesystemBackend(tmp_path)
    for key in KEYS:
        backend.put(key, b"v")
    every = list(backend.keys())
    assert every == sorted(KEYS)
    for prefix in PREFIXES:
        assert list(backend.keys(prefix)) == [key for key in every if key.startswith(prefix)]


class TestInMemoryBackend:
    def test_put_get_roundtrip(self):
        backend = InMemoryBackend()
        backend.put("a/b", b"hello")
        assert backend.get("a/b") == b"hello"

    def test_get_missing_is_none(self):
        assert InMemoryBackend().get("nope") is None

    def test_overwrite(self):
        backend = InMemoryBackend()
        backend.put("k", b"v1")
        backend.put("k", b"v2")
        assert backend.get("k") == b"v2"

    def test_delete(self):
        backend = InMemoryBackend()
        backend.put("k", b"v")
        assert backend.delete("k") is True
        assert backend.delete("k") is False
        assert backend.get("k") is None

    def test_keys_sorted(self):
        backend = InMemoryBackend()
        for key in ("b", "a", "c"):
            backend.put(key, b"x")
        assert list(backend.keys()) == ["a", "b", "c"]

    def test_size_and_contains(self):
        backend = InMemoryBackend()
        backend.put("k", b"12345")
        assert backend.size("k") == 5
        assert backend.contains("k")
        assert not backend.contains("other")

    def test_total_bytes(self):
        backend = InMemoryBackend()
        backend.put("a", b"12")
        backend.put("b", b"345")
        assert backend.total_bytes() == 5

    def test_put_copies_input(self):
        backend = InMemoryBackend()
        payload = bytearray(b"abc")
        backend.put("k", bytes(payload))
        payload[0] = ord("z")
        assert backend.get("k") == b"abc"


class TestFilesystemBackend:
    def test_roundtrip(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("dir/key.bin", b"payload")
        assert backend.get("dir/key.bin") == b"payload"
        assert backend.size("dir/key.bin") == 7

    def test_keys_recursive_sorted(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("b/x", b"1")
        backend.put("a/y", b"2")
        assert list(backend.keys()) == ["a/y", "b/x"]

    def test_delete(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"v")
        assert backend.delete("k") is True
        assert backend.get("k") is None
        assert backend.delete("k") is False

    def test_rejects_unsafe_keys(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("../escape", b"x")
        with pytest.raises(ValueError):
            backend.put("/absolute", b"x")

    def test_rejects_empty_and_dot_keys(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("", b"x")
        with pytest.raises(ValueError):
            backend.put(".", b"x")
        with pytest.raises(ValueError):
            backend.get("")

    def test_total_bytes(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("a", b"12")
        backend.put("d/b", b"345")
        assert backend.total_bytes() == 5

    def test_failed_replace_cleans_up_tmp(self, tmp_path, monkeypatch):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.oss.backend.os.replace", broken_replace)
        with pytest.raises(OSError):
            backend.put("k", b"new")
        monkeypatch.undo()
        # The old object survives and no orphaned temp file remains.
        assert backend.get("k") == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_atomic_overwrite(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"old")
        backend.put("k", b"new")
        assert backend.get("k") == b"new"
        # No stray temp files left behind.
        assert list(backend.keys()) == ["k"]
