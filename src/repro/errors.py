"""Exception hierarchy shared by every repro subpackage.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries while tests can assert on precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""

    def __str__(self) -> str:
        # The lookup errors are also KeyErrors, whose str() quotes the
        # message; a library error always prints as its bare message.
        return Exception.__str__(self)


class ObjectNotFoundError(ReproError, KeyError):
    """An OSS object (or a range of it) does not exist."""

    def __init__(self, bucket: str, key: str) -> None:
        super().__init__(f"object not found: oss://{bucket}/{key}")
        self.bucket = bucket
        self.key = key


class BucketNotFoundError(ReproError, KeyError):
    """The named OSS bucket was never created."""

    def __init__(self, bucket: str) -> None:
        super().__init__(f"bucket not found: {bucket}")
        self.bucket = bucket


class TransientOSSError(ReproError):
    """A single OSS request failed transiently (throttle, timeout, reset).

    Retrying the same request may succeed; the fault-injection layer
    raises this, the retry layer absorbs it.
    """

    def __init__(self, op: str, bucket: str, key: str, reason: str = "transient") -> None:
        super().__init__(f"transient OSS failure ({reason}): {op} oss://{bucket}/{key}")
        self.op = op
        self.bucket = bucket
        self.key = key
        self.reason = reason


class SimulatedCrashError(ReproError):
    """The node died at an OSS write (process-death fault injection).

    Deliberately *not* a :class:`TransientOSSError` subclass: a crash is
    not retryable — the retry layer and degraded-mode handlers must let
    it propagate so the job aborts exactly where the node would have
    died.  Recovery happens on the next attach, never in-line.
    """

    def __init__(self, op: str, bucket: str, key: str, write_index: int) -> None:
        super().__init__(
            f"simulated node crash at write #{write_index}: {op} oss://{bucket}/{key}"
        )
        self.op = op
        self.bucket = bucket
        self.key = key
        self.write_index = write_index


class RetryExhaustedError(ReproError):
    """Retries of a transiently failing OSS request ran out.

    Raised by the retry layer after its attempt cap or backoff budget is
    spent; ``last_error`` is the final :class:`TransientOSSError`.
    """

    def __init__(self, op: str, attempts: int, last_error: TransientOSSError) -> None:
        super().__init__(
            f"retries exhausted after {attempts} attempts: {last_error}"
        )
        self.op = op
        self.attempts = attempts
        self.last_error = last_error


class ChunkingError(ReproError):
    """A chunker was misconfigured or fed inconsistent state."""


class RecipeError(ReproError):
    """A recipe or recipe index is malformed or references missing data."""


class ContainerError(ReproError):
    """A container or its metadata is malformed."""


class RestoreError(ReproError):
    """A restore job could not reassemble the requested backup."""


class IntegrityError(RestoreError):
    """Restored bytes failed fingerprint verification."""


class BrowseError(ReproError):
    """A browse-session operation failed (bad handle, bad range, ...)."""


class CacheFullError(BrowseError):
    """Both block-cache tiers are full of un-uploaded dirty blocks.

    Eviction never drops dirty data, so once every resident block is
    dirty the only way forward is a flush; callers should flush and
    retry rather than lose acknowledged writes.
    """


class KVStoreError(ReproError):
    """The LSM key-value store hit an inconsistent state."""


class TraceError(ReproError):
    """A workload trace file is malformed or fails verification."""


class VersionNotFoundError(ReproError, KeyError):
    """The requested backup version does not exist for this file."""

    def __init__(self, path: str, version: int | None = None) -> None:
        what = f"{path}@v{version}" if version is not None else path
        super().__init__(f"backup version not found: {what}")
        self.path = path
        self.version = version


class RepositoryFormatError(ReproError):
    """A repository's catalog lacks the format stamp this code reads.

    ``found`` is the stamp the catalog carries (None when it has none) and
    ``supported`` the one this code writes; attach refuses the repository
    before any component reads its state.
    """

    def __init__(self, found: object, supported: int) -> None:
        stamp = "no format stamp" if found is None else f"format {found!r}"
        super().__init__(
            f"unsupported repository: its catalog carries {stamp}, "
            f"this version reads format {supported} only"
        )
        self.found = found
        self.supported = supported
