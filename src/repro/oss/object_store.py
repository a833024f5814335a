"""The simulated Object Storage Service.

Mirrors the API shape of Alibaba OSS / Amazon S3 at the granularity the
paper's system needs: buckets holding immutable objects, whole and ranged
reads, and multi-channel parallel GETs.  Every request charges virtual time
(latency + size/bandwidth) through the cost model and records traffic in
:class:`OssStats`, which is where the read-amplification and bandwidth
numbers in the restore experiments come from.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass

from repro.errors import BucketNotFoundError, ObjectNotFoundError, TransientOSSError
from repro.oss.backend import InMemoryBackend, StorageBackend
from repro.oss.faults import FaultPolicy
from repro.sim.clock import SimClock
from repro.sim.cost_model import CostModel
from repro.sim.metrics import TimeBreakdown


@dataclass
class OssStats:
    """Cumulative traffic accounting for one OSS endpoint."""

    get_requests: int = 0
    put_requests: int = 0
    delete_requests: int = 0
    list_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_seconds: float = 0.0
    write_seconds: float = 0.0
    faults_injected: int = 0
    retries_attempted: int = 0

    def snapshot(self) -> "OssStats":
        """An independent copy, for before/after diffing in experiments."""
        return OssStats(**vars(self))

    def diff(self, earlier: "OssStats") -> "OssStats":
        """Traffic accrued since ``earlier`` was snapshotted."""
        return OssStats(
            **{name: getattr(self, name) - getattr(earlier, name) for name in vars(self)}
        )


class OssMeter:
    """A window over one endpoint's running OSS totals.

    The one instrument that turns OSS traffic into job time::

        with oss.meter() as m:
            payload = containers.read_data(cid)
        read_trace.append(m.read_seconds)

    On entry it records the endpoint's ``read_seconds``,
    ``write_seconds`` and ``bytes_written``; on exit it holds what each
    grew by inside the block.  Nested windows are inclusive: an inner
    meter's seconds also count in its parent.  The window is exact
    because every OSS request is issued from the caller's thread.

    With a ``breakdown`` it also charges the read seconds to
    ``download`` and the write seconds to ``upload`` -- on a clean exit
    only: a block that raises charges nothing.
    """

    __slots__ = ("_stats", "_breakdown", "read_seconds", "write_seconds", "bytes_written")

    def __init__(self, stats: OssStats, breakdown: TimeBreakdown | None = None) -> None:
        self._stats = stats
        self._breakdown = breakdown
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.bytes_written = 0

    def __enter__(self) -> "OssMeter":
        stats = self._stats
        self.read_seconds = stats.read_seconds
        self.write_seconds = stats.write_seconds
        self.bytes_written = stats.bytes_written
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        stats = self._stats
        self.read_seconds = stats.read_seconds - self.read_seconds
        self.write_seconds = stats.write_seconds - self.write_seconds
        self.bytes_written = stats.bytes_written - self.bytes_written
        if self._breakdown is not None and exc_type is None:
            self._breakdown.charge("download", self.read_seconds)
            self._breakdown.charge("upload", self.write_seconds)


class ObjectStorageService:
    """Bucketed object storage with a virtual-time cost model.

    Parameters
    ----------
    cost_model:
        Prices for request latency and bandwidth.  Defaults to the
        calibrated model in :mod:`repro.sim.cost_model`.
    clock:
        Virtual clock charged by every request.  A private clock is created
        when none is supplied, so the store is usable standalone.
    backend_factory:
        Callable creating the byte storage for each new bucket.
    faults:
        Optional :class:`~repro.oss.faults.FaultPolicy` injecting
        transient errors, latency spikes, torn writes and corrupt reads
        into every object operation.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        clock: SimClock | None = None,
        backend_factory=InMemoryBackend,
        faults: FaultPolicy | None = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.clock = clock or SimClock()
        self.stats = OssStats()
        self.faults = faults
        self._backend_factory = backend_factory
        self._factory_takes_name = self._accepts_bucket_name(backend_factory)
        self._buckets: dict[str, StorageBackend] = {}
        # Clock advances and stats mutations are read-modify-write, so
        # every charge section serialises on this lock.  SlimStore itself
        # issues requests from one thread; the lock keeps an endpoint that
        # callers share across threads from losing a charge.
        self._mutex = threading.Lock()

    def meter(self, breakdown: TimeBreakdown | None = None) -> OssMeter:
        """An :class:`OssMeter` over this endpoint's totals."""
        return OssMeter(self.stats, breakdown)

    def set_fault_policy(self, faults: FaultPolicy | None) -> None:
        """Install (or remove, with None) the fault-injection policy."""
        self.faults = faults

    @staticmethod
    def _accepts_bucket_name(factory) -> bool:
        """True if ``factory`` can take the bucket name positionally.

        Inspected up front instead of probing with ``try/except
        TypeError`` so a ``TypeError`` raised *inside* the factory
        propagates instead of being silently retried without arguments.
        """
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            # Builtins without introspectable signatures: assume no-arg.
            return False
        return any(
            parameter.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.VAR_POSITIONAL,
            )
            for parameter in signature.parameters.values()
        )

    # --- bucket management -------------------------------------------------
    def create_bucket(self, bucket: str) -> None:
        """Create ``bucket``; creating an existing bucket is a no-op.

        The backend factory may accept the bucket name (so durable
        backends can give each bucket its own directory) or no arguments.
        """
        if bucket not in self._buckets:
            if self._factory_takes_name:
                backend = self._backend_factory(bucket)
            else:
                backend = self._backend_factory()
            self._buckets[bucket] = backend

    def bucket_names(self) -> list[str]:
        """Names of all buckets, sorted."""
        return sorted(self._buckets)

    def _backend(self, bucket: str) -> StorageBackend:
        backend = self._buckets.get(bucket)
        if backend is None:
            raise BucketNotFoundError(bucket)
        return backend

    # --- object operations ---------------------------------------------------
    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        channels: int = 1,
        piggyback: bool = False,
    ) -> None:
        """Upload ``data``; charges latency + size/bandwidth.

        ``piggyback`` marks a small companion object written on the same
        connection as the preceding PUT (e.g. container metadata next to
        its payload): only bandwidth is charged, not another round trip.
        """
        backend = self._backend(bucket)
        extra = self._fault_gate("put", bucket, key)
        torn = self.faults.torn_write_prefix(data) if self.faults is not None else None
        payload = data if torn is None else torn
        backend.put(key, payload)
        seconds = extra + len(payload) / min(
            self.cost_model.oss_write_bandwidth * channels,
            self.cost_model.node_nic_bandwidth,
        )
        if not piggyback:
            seconds += self.cost_model.oss_request_latency
        # A torn write: the connection dropped mid-upload, a truncated
        # object was persisted and the client sees a retryable failure.
        self._charge(seconds, "put", len(payload), faults=int(torn is not None))
        if torn is not None:
            raise TransientOSSError("put", bucket, key, reason="torn write")

    def get_object(
        self, bucket: str, key: str, channels: int = 1, piggyback: bool = False
    ) -> bytes:
        """Download a whole object; raises ObjectNotFoundError if missing.

        ``piggyback`` marks a small companion read on the same connection
        as the preceding GET (bandwidth cost only, no extra round trip).
        """
        backend = self._backend(bucket)
        extra = self._fault_gate("get", bucket, key)
        data = backend.get(key)
        if data is None:
            raise ObjectNotFoundError(bucket, key)
        data = self._filter_read(data)
        self._charge_read(len(data), channels, piggyback, extra)
        return data

    @staticmethod
    def _check_bounds(
        bucket: str, key: str, offset: int, length: int, size: int | None
    ) -> None:
        if size is None:
            raise ObjectNotFoundError(bucket, key)
        if offset < 0 or length < 0 or offset + length > size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside object of "
                f"{size} bytes: oss://{bucket}/{key}"
            )

    def get_range(
        self, bucket: str, key: str, offset: int, length: int, channels: int = 1
    ) -> bytes:
        """Ranged GET of ``length`` bytes starting at ``offset``."""
        backend = self._backend(bucket)
        extra = self._fault_gate("get", bucket, key)
        self._check_bounds(bucket, key, offset, length, backend.size(key))
        chunk = backend.get_range(key, offset, length)
        if chunk is None:
            raise ObjectNotFoundError(bucket, key)
        chunk = self._filter_read(chunk)
        self._charge_read(length, channels, extra=extra)
        return chunk

    def get_ranges(
        self, bucket: str, key: str, spans: list[tuple[int, int]], channels: int = 1
    ) -> list[bytes]:
        """Several ranged GETs against one object, issued back-to-back.

        Each span ``(offset, length)`` is its own request (OSS serves one
        byte range per GET) and charges its own round-trip latency plus
        bandwidth — coalescing adjacent chunk extents *before* calling
        this is what makes ranged restore reads cheaper than one GET per
        chunk.  Returns the span payloads in call order.
        """
        return [
            self.get_range(bucket, key, offset, length, channels)
            for offset, length in spans
        ]

    def delete_object(self, bucket: str, key: str) -> bool:
        """Delete ``key``; returns True if it existed."""
        backend = self._backend(bucket)
        extra = self._fault_gate("delete", bucket, key)
        existed = backend.delete(key)
        self._charge(self.cost_model.oss_request_latency + extra, "delete")
        return existed

    #: Keys one batched DELETE request may name (Alibaba OSS
    #: DeleteMultipleObjects).
    DELETE_BATCH_KEYS = 1000

    def delete_objects(self, bucket: str, keys: list[str]) -> None:
        """Batched DELETE: one request per ≤1,000 keys, in the order given.

        Each request passes the fault gate once (as one write, so a crash
        point lands before or after a whole batch, never inside one) and
        charges one round trip; a key that holds no object is skipped, as
        the real verb does, which makes the call idempotent.
        """
        backend = self._backend(bucket)
        for start in range(0, len(keys), self.DELETE_BATCH_KEYS):
            batch = keys[start : start + self.DELETE_BATCH_KEYS]
            extra = self._fault_gate("delete", bucket, batch[0])
            for key in batch:
                backend.delete(key)
            self._charge(self.cost_model.oss_request_latency + extra, "delete")

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        """Sorted keys in ``bucket`` starting with ``prefix``."""
        backend = self._backend(bucket)
        extra = self._fault_gate("list", bucket, prefix)
        self._charge(self.cost_model.oss_request_latency + extra, "list")
        return list(backend.keys(prefix))

    def head_object(self, bucket: str, key: str) -> int | None:
        """Size of ``key`` in bytes, or None if absent (no payload cost)."""
        backend = self._backend(bucket)
        extra = self._fault_gate("head", bucket, key)
        self._charge(self.cost_model.oss_request_latency + extra)
        return backend.size(key)

    def object_exists(self, bucket: str, key: str) -> bool:
        """True if ``key`` holds an object (charges one request latency)."""
        return self.head_object(bucket, key) is not None

    # --- accounting ---------------------------------------------------------
    def peek_size(self, bucket: str, key: str) -> int | None:
        """Object size without charging any virtual time (accounting only)."""
        return self._backend(bucket).size(key)

    def peek_keys(self, bucket: str, prefix: str = "") -> list[str]:
        """Keys under ``prefix`` without charging time (accounting only)."""
        return list(self._backend(bucket).keys(prefix))

    def bucket_bytes(self, bucket: str) -> int:
        """Total stored bytes in ``bucket`` (accounting only, free)."""
        backend = self._backend(bucket)
        return sum(backend.size(key) or 0 for key in backend.keys())

    def total_bytes(self) -> int:
        """Total stored bytes across all buckets (accounting only, free)."""
        return sum(self.bucket_bytes(name) for name in self._buckets)

    def _charge_read(
        self, nbytes: int, channels: int, piggyback: bool = False, extra: float = 0.0
    ) -> None:
        seconds = extra + nbytes / min(
            self.cost_model.oss_read_bandwidth * channels,
            self.cost_model.node_nic_bandwidth,
        )
        if not piggyback:
            seconds += self.cost_model.oss_request_latency
        self._charge(seconds, "get", nbytes)

    def _charge(
        self, seconds: float, verb: str | None = None, nbytes: int = 0, faults: int = 0
    ) -> None:
        """Advance the clock by ``seconds`` and count them against ``verb``.

        The one place the endpoint's clock and stats change, all under
        ``_mutex``.  ``verb`` is "get" or "put" (one request, its bytes
        and its seconds), "delete" or "list" (one request) or None (time
        alone: a HEAD, a timed-out request, or 0.0 to mirror ``faults``
        injected faults into the stats).
        """
        with self._mutex:
            self.clock.advance(seconds)
            stats = self.stats
            if verb == "get":
                stats.get_requests += 1
                stats.bytes_read += nbytes
                stats.read_seconds += seconds
            elif verb == "put":
                stats.put_requests += 1
                stats.bytes_written += nbytes
                stats.write_seconds += seconds
            elif verb == "delete":
                stats.delete_requests += 1
            elif verb == "list":
                stats.list_requests += 1
            stats.faults_injected += faults

    # --- fault injection -----------------------------------------------------
    def _fault_gate(self, op: str, bucket: str, key: str) -> float:
        """Consult the fault policy; returns extra latency to charge.

        A request scheduled to fail transiently still costs one round
        trip of virtual time (a timeout is not free) before the
        :class:`TransientOSSError` propagates.
        """
        if self.faults is None:
            return 0.0
        before = self.faults.stats.faults_injected
        try:
            extra = self.faults.before_request(op, bucket, key)
        except TransientOSSError:
            self._charge(self.cost_model.oss_request_latency)
            raise
        finally:
            # Mirror every injected fault into the endpoint stats — a
            # SimulatedCrashError propagates through here too (the node
            # died; no virtual time is charged for a request that never
            # left it).
            self._charge(0.0, faults=self.faults.stats.faults_injected - before)
        return extra

    def _filter_read(self, data: bytes) -> bytes:
        """Apply read-corruption faults, mirroring counts into OssStats.

        The single corruption path for every GET payload: whole-object
        reads and each ranged span all pass through here, so bit-flip
        injection coverage is identical regardless of access pattern.
        """
        if self.faults is None:
            return data
        before = self.faults.stats.corrupt_reads
        data = self.faults.filter_read(data)
        self._charge(0.0, faults=self.faults.stats.corrupt_reads - before)
        return data
