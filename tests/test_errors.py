"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.ObjectNotFoundError,
            errors.BucketNotFoundError,
            errors.ChunkingError,
            errors.RecipeError,
            errors.ContainerError,
            errors.RestoreError,
            errors.IntegrityError,
            errors.KVStoreError,
            errors.VersionNotFoundError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_class):
        assert issubclass(exc_class, errors.ReproError)

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(errors.ObjectNotFoundError, KeyError)
        assert issubclass(errors.BucketNotFoundError, KeyError)
        assert issubclass(errors.VersionNotFoundError, KeyError)

    def test_integrity_is_a_restore_error(self):
        assert issubclass(errors.IntegrityError, errors.RestoreError)

    def test_object_not_found_message(self):
        exc = errors.ObjectNotFoundError("bucket", "a/key")
        assert "oss://bucket/a/key" in str(exc)
        assert exc.bucket == "bucket"
        assert exc.key == "a/key"

    def test_version_not_found_with_and_without_version(self):
        with_version = errors.VersionNotFoundError("f", 3)
        assert "f@v3" in str(with_version)
        without = errors.VersionNotFoundError("f")
        assert without.version is None

    @pytest.mark.parametrize(
        ("exc", "message"),
        [
            (errors.ObjectNotFoundError("b", "k"), "object not found: oss://b/k"),
            (errors.BucketNotFoundError("b"), "bucket not found: b"),
            (errors.VersionNotFoundError("f", 3), "backup version not found: f@v3"),
        ],
    )
    def test_lookup_errors_print_their_bare_message(self, exc, message):
        # KeyError.__str__ would quote the message; ReproError must not.
        assert str(exc) == message
