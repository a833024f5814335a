"""A retrying client over the object store.

Transient OSS failures (throttles, timeouts, connection resets) are the
normal case at cloud scale, so every component of the storage layer talks
to OSS through :class:`RetryingObjectStore`: a thin wrapper exposing the
same operation surface as :class:`~repro.oss.object_store.ObjectStorageService`
that absorbs :class:`~repro.errors.TransientOSSError` with capped
exponential backoff and decorrelated jitter (the AWS architecture-blog
scheme: each delay is drawn uniformly from ``[base, prev * 3]``, capped).

Backoff sleeps are charged to the virtual clock, so availability
experiments see retry storms as real elapsed time.  Every operation also
carries a backoff *budget*: once its cumulative sleep reaches the budget
the operation fails with :class:`~repro.errors.RetryExhaustedError` even
if attempts remain, bounding worst-case latency under a full outage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import RetryExhaustedError, TransientOSSError
from repro.sim.metrics import RetryStats


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient OSS failures."""

    #: Total tries per operation (first attempt included).
    max_attempts: int = 6
    #: Smallest backoff sleep in virtual seconds.
    base_delay: float = 0.05
    #: Cap on any single backoff sleep.
    max_delay: float = 2.0
    #: Cap on the *cumulative* backoff per operation (the retry budget).
    backoff_budget_seconds: float = 30.0
    #: Seed for the decorrelated jitter (deterministic runs).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}, {self.max_delay}"
            )
        if self.backoff_budget_seconds < 0:
            raise ValueError(
                f"backoff budget cannot be negative: {self.backoff_budget_seconds}"
            )


class RetryBudget:
    """A shared token bucket bounding fleet-wide retry amplification.

    When N concurrent jobs all hit the same degraded OSS endpoint, each
    one's private backoff schedule is individually polite but their
    *sum* is a retry storm: N× the offered load against a service that is
    already failing.  A RetryBudget is shared across every
    :class:`RetryingObjectStore` of a fleet: each retry attempt spends
    one token, tokens refill at ``refill_per_second`` of virtual time,
    and once the bucket runs dry further retries fail fast with
    :class:`~repro.errors.RetryExhaustedError` — pushing callers into
    degraded mode (which the dedup engine already survives) instead of
    amplifying the outage.
    """

    def __init__(self, capacity: float = 64.0, refill_per_second: float = 4.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        if refill_per_second < 0:
            raise ValueError(
                f"refill_per_second cannot be negative: {refill_per_second}"
            )
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._tokens = float(capacity)
        self._last_refill: float | None = None
        #: Retry attempts denied because the bucket was dry.
        self.denied = 0
        #: Retry attempts granted a token.
        self.granted = 0

    def _refill(self, now: float) -> None:
        if self._last_refill is None:
            self._last_refill = now
            return
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_second
            )
            self._last_refill = now

    def available(self, now: float) -> float:
        """Tokens available at virtual time ``now`` (refills first)."""
        self._refill(now)
        return self._tokens

    def try_spend(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False (and counted) otherwise."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            self.granted += 1
            return True
        self.denied += 1
        return False


class RetryingObjectStore:
    """Retry facade with the ObjectStorageService operation surface.

    Non-operation attributes (``stats``, ``clock``, ``cost_model``,
    bucket management, the ``peek_*`` accounting helpers) delegate to the
    wrapped endpoint, so the storage-layer components can use a
    RetryingObjectStore anywhere they used the raw service.

    With a shared :class:`RetryBudget`, every backoff sleep first spends
    a budget token; a dry budget turns the retry into an immediate
    :class:`~repro.errors.RetryExhaustedError` (degraded mode) so that a
    whole fleet's retries against a failing endpoint stay bounded.
    """

    def __init__(
        self,
        oss,
        policy: RetryPolicy | None = None,
        budget: "RetryBudget | None" = None,
    ) -> None:
        self._oss = oss
        self.policy = policy or RetryPolicy()
        self.budget = budget
        self.retry_stats = RetryStats()
        self._rng = random.Random(self.policy.seed)

    def __getattr__(self, name: str):
        return getattr(self._oss, name)

    # --- retried operations ----------------------------------------------
    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        channels: int = 1,
        piggyback: bool = False,
    ) -> None:
        """Retrying PUT; a torn write is healed by the next attempt."""
        return self._call(
            "put", lambda: self._oss.put_object(bucket, key, data, channels, piggyback)
        )

    def get_object(
        self, bucket: str, key: str, channels: int = 1, piggyback: bool = False
    ) -> bytes:
        """Retrying whole-object GET."""
        return self._call(
            "get", lambda: self._oss.get_object(bucket, key, channels, piggyback)
        )

    def get_range(
        self, bucket: str, key: str, offset: int, length: int, channels: int = 1
    ) -> bytes:
        """Retrying ranged GET."""
        return self._call(
            "get", lambda: self._oss.get_range(bucket, key, offset, length, channels)
        )

    def get_ranges(
        self, bucket: str, key: str, spans: list[tuple[int, int]], channels: int = 1
    ) -> list[bytes]:
        """Retrying multi-span ranged GET (each span retried on its own)."""
        return [
            self.get_range(bucket, key, offset, length, channels)
            for offset, length in spans
        ]

    def delete_object(self, bucket: str, key: str) -> bool:
        """Retrying DELETE."""
        return self._call("delete", lambda: self._oss.delete_object(bucket, key))

    def delete_objects(self, bucket: str, keys: list[str]) -> None:
        """Retrying batched DELETE (idempotent, so the batch retries whole)."""
        return self._call("delete", lambda: self._oss.delete_objects(bucket, keys))

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        """Retrying LIST."""
        return self._call("list", lambda: self._oss.list_objects(bucket, prefix))

    def head_object(self, bucket: str, key: str) -> int | None:
        """Retrying HEAD."""
        return self._call("head", lambda: self._oss.head_object(bucket, key))

    def object_exists(self, bucket: str, key: str) -> bool:
        """Retrying existence probe."""
        return self.head_object(bucket, key) is not None

    # --- the retry loop ----------------------------------------------------
    def _call(self, op: str, request):
        """Run ``request``, absorbing transient failures per the policy."""
        policy = self.policy
        self.retry_stats.operations += 1
        delay = policy.base_delay
        slept = 0.0
        attempts = 0
        while True:
            attempts += 1
            try:
                result = request()
            except TransientOSSError as error:
                if (
                    attempts >= policy.max_attempts
                    or slept >= policy.backoff_budget_seconds
                ):
                    self.retry_stats.exhausted_operations += 1
                    raise RetryExhaustedError(op, attempts, error) from error
                if self.budget is not None and not self.budget.try_spend(
                    self._oss.clock.now
                ):
                    self.retry_stats.exhausted_operations += 1
                    self.retry_stats.budget_denied += 1
                    raise RetryExhaustedError(op, attempts, error) from error
                delay = min(
                    policy.max_delay,
                    self._rng.uniform(policy.base_delay, max(policy.base_delay, delay * 3)),
                )
                delay = min(delay, policy.backoff_budget_seconds - slept)
                slept += delay
                self._oss.clock.advance(delay)
                self.retry_stats.retries += 1
                self.retry_stats.backoff_seconds += delay
                self._oss.stats.retries_attempted += 1
                continue
            if attempts > 1:
                self.retry_stats.recovered_operations += 1
            return result
