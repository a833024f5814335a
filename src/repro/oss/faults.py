"""Fault injection for the simulated OSS.

Real object stores throttle, time out, tear writes and rot bits; the seed
simulation was perfectly reliable.  :class:`FaultPolicy` decides — from a
seeded RNG, so every run is deterministic — whether each request fails
transiently, suffers a latency spike, persists only a prefix (torn write)
or returns bit-flipped payload (silent read corruption).  The policy is
installed on an :class:`~repro.oss.object_store.ObjectStorageService` and
consulted from inside every object operation; injected latency is charged
through the virtual clock so simulated time stays honest.

Two deterministic schedule controls exist beyond the per-operation rates:

* ``kill_after_requests`` — after N requests the endpoint is "down": every
  request raises :class:`~repro.errors.TransientOSSError` until
  :meth:`FaultPolicy.revive` is called (models a full outage);
* :meth:`FaultPolicy.outage` / :meth:`FaultPolicy.revive` — force the
  failure rate of selected operations to 1.0 and back (models a partial
  outage, e.g. reads failing while writes drain);  with ``domain=`` the
  outage is scoped to one simulated fault domain: only keys placed in
  that domain (container payloads by ``cid % fault_domains``, durability
  copies/parity by their ``durability/d<N>/`` prefix) fail, which is how
  the durability tier's replica placement is tested;
* :meth:`FaultPolicy.crash_after_writes` — process death: the N-th write
  request (PUT or DELETE, zero-based) raises
  :class:`~repro.errors.SimulatedCrashError` *before* the backend is
  touched, so exactly N writes landed when the node died.  Unlike a
  transient error the crash is terminal: every subsequent request on the
  endpoint also raises, modeling a dead node, until
  :meth:`FaultPolicy.clear_crash` (a fresh node attaching).  Iterating N
  over ``[0, writes_seen)`` of an uncrashed probe run visits every
  intermediate on-OSS state a job can leave behind — the crash-matrix
  harness in the tests is built on exactly this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import SimulatedCrashError, TransientOSSError
from repro.sim.metrics import FaultStats

#: Operations a policy can inject faults into.
FAULT_OPS = ("get", "put", "delete", "list", "head")


def key_fault_domain(key: str, domains: int) -> int | None:
    """The simulated fault domain an object key is placed in, or None.

    Data-plane placement mirrors the durability tier's layout:

    * container payloads ``containers/<cid>.data`` land on ``cid % domains``;
    * durability copies and parity under ``durability/d<N>/...`` land on
      domain ``N``.

    Everything else (metadata, journal, recipes, indexes, the durability
    tier's checkpoint and log) is control plane — replicated out-of-band in a real
    deployment — and returns None: a domain-scoped outage never touches
    it.
    """
    if domains <= 0:
        return None
    if key.startswith("containers/") and key.endswith(".data"):
        stem = key[len("containers/"):-len(".data")]
        if stem.isdigit():
            return int(stem) % domains
        return None
    if key.startswith("durability/d"):
        stem = key[len("durability/d"):]
        head, _, rest = stem.partition("/")
        if head.isdigit() and rest:
            return int(head) % domains
    return None


@dataclass
class FaultPolicy:
    """Seeded, per-operation fault schedule for one OSS endpoint.

    All ``*_error_rate`` fields are independent per-request probabilities
    in ``[0, 1]``.  The RNG is private and seeded, so a policy replayed
    against the same request sequence injects the same faults.
    """

    seed: int = 0
    #: Transient failure probability per operation type.
    get_error_rate: float = 0.0
    put_error_rate: float = 0.0
    delete_error_rate: float = 0.0
    list_error_rate: float = 0.0
    head_error_rate: float = 0.0
    #: Probability that a failing PUT first persists a prefix of the data
    #: (a torn write), leaving a corrupt object behind until retried.
    torn_write_rate: float = 0.0
    #: Probability that a successful GET returns bit-flipped payload.
    corrupt_read_rate: float = 0.0
    #: Probability of an added latency spike on an otherwise good request.
    latency_spike_rate: float = 0.0
    #: Virtual seconds one latency spike adds.
    latency_spike_seconds: float = 0.25
    #: After this many requests the endpoint fails everything until
    #: :meth:`revive` (None disables the kill switch).
    kill_after_requests: int | None = None
    #: Simulated fault domains for :meth:`outage`'s ``domain=`` scoping
    #: (0 disables domain mapping; see :func:`key_fault_domain`).
    fault_domains: int = 0

    stats: FaultStats = field(default_factory=FaultStats, repr=False)

    #: Operations that count as writes for crash-point scheduling.
    WRITE_OPS = ("put", "delete")

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._requests_seen = 0
        self._outage_ops: set[str] = set()
        self._domain_outages: dict[int, set[str]] = {}
        if self.fault_domains < 0:
            raise ValueError(f"fault_domains cannot be negative: {self.fault_domains}")
        self._writes_seen = 0
        self._crash_at_write: int | None = None
        self._crashed_at: int | None = None
        for op in FAULT_OPS:
            rate = getattr(self, f"{op}_error_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{op}_error_rate out of [0, 1]: {rate}")
        for name in ("torn_write_rate", "corrupt_read_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {rate}")

    # --- schedule controls -------------------------------------------------
    def outage(self, ops: set[str] | None = None, domain: int | None = None) -> None:
        """Fail every request of the given operations (default: all).

        With ``domain=`` the outage only hits requests whose key maps to
        that fault domain (see :func:`key_fault_domain`); ``fault_domains``
        must be set on the policy.  Endpoint-wide and per-domain outages
        stack independently.
        """
        bad = (ops or set(FAULT_OPS)) - set(FAULT_OPS)
        if bad:
            raise ValueError(f"unknown fault operations: {sorted(bad)}")
        affected = set(ops) if ops is not None else set(FAULT_OPS)
        if domain is None:
            self._outage_ops = affected
            return
        if self.fault_domains <= 0:
            raise ValueError("domain-scoped outage needs fault_domains > 0")
        if not 0 <= domain < self.fault_domains:
            raise ValueError(
                f"domain out of range [0, {self.fault_domains}): {domain}"
            )
        self._domain_outages[domain] = affected

    def revive(self, domain: int | None = None) -> None:
        """End an outage; with no ``domain``, everything is revived.

        ``revive()`` ends the endpoint-wide outage, every per-domain
        outage and the kill switch; ``revive(domain=n)`` lifts only that
        domain's outage.
        """
        if domain is not None:
            self._domain_outages.pop(domain, None)
            return
        self._outage_ops = set()
        self._domain_outages = {}
        self.kill_after_requests = None

    def crash_after_writes(self, surviving_writes: int) -> None:
        """Arm a crash point: the write with this zero-based index dies.

        ``crash_after_writes(n)`` lets the first ``n`` write requests
        (PUTs and DELETEs) persist and raises
        :class:`~repro.errors.SimulatedCrashError` on write ``n`` before
        it reaches the backend — the on-OSS state is exactly "n writes
        landed, then the node died".  Arming resets the write counter.
        """
        if surviving_writes < 0:
            raise ValueError(f"surviving_writes cannot be negative: {surviving_writes}")
        self._writes_seen = 0
        self._crash_at_write = surviving_writes
        self._crashed_at = None

    def clear_crash(self) -> None:
        """Disarm the crash point and resurrect a crashed endpoint."""
        self._crash_at_write = None
        self._crashed_at = None

    @property
    def writes_seen(self) -> int:
        """Write requests (PUT/DELETE) observed since the last arm/reset.

        A probe run with no crash point armed measures a job's total
        write count — the matrix the crash harness iterates over.
        """
        return self._writes_seen

    @property
    def has_crashed(self) -> bool:
        """True once the armed crash point fired (until cleared)."""
        return self._crashed_at is not None

    @property
    def is_killed(self) -> bool:
        """True once the kill switch has tripped (and until revived)."""
        return (
            self.kill_after_requests is not None
            and self._requests_seen > self.kill_after_requests
        )

    # --- hooks consulted by the object store -------------------------------
    def before_request(self, op: str, bucket: str, key: str) -> float:
        """Gate one request; returns extra latency seconds to charge.

        Raises :class:`TransientOSSError` when the request is scheduled to
        fail.  Called before the backend is touched, so a plain transient
        failure leaves storage untouched (torn writes are separate, see
        :meth:`torn_write_prefix`).
        """
        self._requests_seen += 1
        if self._crashed_at is not None:
            # The node is dead: nothing gets through until a new node
            # attaches (clear_crash).  Raising the crash error (not a
            # transient) keeps retry layers from resurrecting the job.
            self.stats.faults_injected += 1
            self.stats.crash_faults += 1
            raise SimulatedCrashError(op, bucket, key, self._crashed_at)
        if op in self.WRITE_OPS:
            write_index = self._writes_seen
            self._writes_seen += 1
            if self._crash_at_write is not None and write_index >= self._crash_at_write:
                self._crashed_at = write_index
                self.stats.faults_injected += 1
                self.stats.crash_faults += 1
                raise SimulatedCrashError(op, bucket, key, write_index)
        if self.is_killed or op in self._outage_ops:
            self.stats.faults_injected += 1
            if self.is_killed:
                self.stats.killed_requests += 1
            else:
                self.stats.transient_errors += 1
            raise TransientOSSError(op, bucket, key, reason="endpoint down")
        if self._domain_outages:
            domain = key_fault_domain(key, self.fault_domains)
            if domain is not None and op in self._domain_outages.get(domain, ()):
                self.stats.faults_injected += 1
                self.stats.transient_errors += 1
                raise TransientOSSError(
                    op, bucket, key, reason=f"fault domain {domain} down"
                )
        extra = 0.0
        if self.latency_spike_rate and self._rng.random() < self.latency_spike_rate:
            self.stats.faults_injected += 1
            self.stats.latency_spikes += 1
            self.stats.latency_injected_seconds += self.latency_spike_seconds
            extra = self.latency_spike_seconds
        rate = getattr(self, f"{op}_error_rate", 0.0)
        if rate and self._rng.random() < rate:
            self.stats.faults_injected += 1
            self.stats.transient_errors += 1
            raise TransientOSSError(op, bucket, key)
        return extra

    def torn_write_prefix(self, data: bytes) -> bytes | None:
        """Length-truncated payload if this PUT should tear, else None.

        The caller persists the returned prefix and then raises a
        :class:`TransientOSSError`; a retried PUT overwrites the torn
        object with the full payload.
        """
        if len(data) < 2 or not self.torn_write_rate:
            return None
        if self._rng.random() >= self.torn_write_rate:
            return None
        self.stats.faults_injected += 1
        self.stats.torn_writes += 1
        cut = self._rng.randrange(1, len(data))
        return data[:cut]

    def filter_read(self, data: bytes) -> bytes:
        """Possibly bit-flip one byte of a GET payload (bit rot in flight)."""
        if not data or not self.corrupt_read_rate:
            return data
        if self._rng.random() >= self.corrupt_read_rate:
            return data
        self.stats.faults_injected += 1
        self.stats.corrupt_reads += 1
        flipped = bytearray(data)
        position = self._rng.randrange(len(flipped))
        flipped[position] ^= 1 << self._rng.randrange(8)
        return bytes(flipped)
