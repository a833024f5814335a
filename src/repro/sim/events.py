"""A minimal discrete-event simulation kernel.

The one clock for restores and cluster schedules: every restore duration
(Table II, Fig 8(d)) and every Fig 10 scaling point is read off an
explicit event-driven schedule — jobs arriving at a cluster, queueing for
node slots, sharing NIC bandwidth, prefetch reads contending for OSS
channels.

The kernel is deliberately tiny: a time-ordered event queue and a
``SlotResource`` with FIFO queueing.  Processes are plain callbacks.

On top of the kernel sits the restore prefetch pipeline (Section V-B):
``prefetch_threads`` OSS channels issue the planned container reads ahead
of the restore consumer, which blocks only when the read holding its next
chunk has not completed.  :func:`simulate_restore_pipeline` runs one job on
private channels; :class:`RestorePipelineProcess` is the reusable process
so many jobs can contend for one shared :class:`ChannelPool` (the
multi-job restore half of Fig 10).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)


class EventLoop:
    """A time-ordered event queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._queue: list[_Event] = []
        self._sequence = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: {delay}")
        heapq.heappush(
            self._queue, _Event(self.now + delay, next(self._sequence), action)
        )

    def run(self, until: float | None = None) -> float:
        """Drain the queue; returns the completion time.

        With ``until``, stop before executing any event scheduled after
        that time (the event stays queued and ``now`` advances to
        ``until``), so a caller can interleave inspection or external
        actions with the schedule — the control-plane horizon pattern.
        """
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = max(self.now, until)
                return self.now
            event = heapq.heappop(self._queue)
            self.now = event.time
            event.action()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending(self) -> int:
        """Events still queued."""
        return len(self._queue)


class SlotResource:
    """A counted resource (e.g. job slots on one node) with FIFO queueing."""

    def __init__(self, loop: EventLoop, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"need at least one slot, got {slots}")
        self._loop = loop
        self._free = slots
        self._waiting: list[Callable[[], None]] = []
        self.capacity = slots

    def acquire(self, on_granted: Callable[[], None]) -> None:
        """Request one slot; ``on_granted`` fires when it is available."""
        if self._free > 0:
            self._free -= 1
            self._loop.schedule(0.0, on_granted)
        else:
            self._waiting.append(on_granted)

    def release(self) -> None:
        """Return one slot, handing it to the next waiter if any."""
        if self._waiting:
            self._loop.schedule(0.0, self._waiting.pop(0))
        else:
            self._free += 1
            if self._free > self.capacity:
                raise RuntimeError("released more slots than acquired")

    @property
    def busy(self) -> int:
        """Slots currently held."""
        return self.capacity - self._free

    @property
    def queued(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiting)


class ChannelPool:
    """A pool of identified OSS channels with per-channel busy accounting.

    A thin layer over :class:`SlotResource` that hands out a concrete
    channel id with each grant, so callers can charge per-channel busy
    seconds (the Table II per-thread utilisation view).
    """

    def __init__(self, loop: EventLoop, channels: int) -> None:
        self._loop = loop
        self._slots = SlotResource(loop, channels)
        self._free_ids = list(range(channels - 1, -1, -1))
        self.busy_seconds = [0.0] * channels

    @property
    def capacity(self) -> int:
        """Number of channels in the pool."""
        return self._slots.capacity

    def acquire(self, on_granted: Callable[[int], None]) -> None:
        """Request a channel; ``on_granted(channel_id)`` fires when free."""
        self._slots.acquire(lambda: on_granted(self._free_ids.pop()))

    def release(self, channel_id: int) -> None:
        """Return a channel to the pool."""
        self._free_ids.append(channel_id)
        self._slots.release()

    def occupy(self, channel_id: int, seconds: float) -> None:
        """Charge ``seconds`` of busy time to one channel."""
        self.busy_seconds[channel_id] += seconds


@dataclass
class PipelineStats:
    """Outcome of one simulated restore pipeline."""

    elapsed_seconds: float = 0.0
    #: Times the consumer blocked on an incomplete prefetch read.
    stall_count: int = 0
    #: Total virtual seconds the consumer spent blocked.
    stall_seconds: float = 0.0
    #: Busy seconds per prefetch channel (empty with 0 threads).
    channel_busy_seconds: list[float] = field(default_factory=list)
    #: Seconds of demand reads the consumer issued itself (plan misses).
    demand_seconds: float = 0.0


class RestorePipelineProcess:
    """One restore job's prefetch pipeline as an event-driven process.

    The prefetcher walks the planner's read schedule in order, keeping at
    most ``max_parallel`` reads in flight on the (possibly shared)
    :class:`ChannelPool`.  The consumer walks the chunk records: record
    ``i`` needs read ``record_reads[i]`` completed (−1 for cache hits),
    then spends ``record_cpu[i]`` CPU seconds splicing.  Demand reads
    (``demand_seconds[i]``: plan misses resolved synchronously, e.g. a
    redirect the planner could not see) block the consumer for their full
    duration — they are never prefetched.
    """

    def __init__(
        self,
        loop: EventLoop,
        channels: ChannelPool,
        read_seconds: Sequence[float],
        record_reads: Sequence[int],
        record_cpu: Sequence[float],
        demand_seconds: Sequence[float] | None = None,
        max_parallel: int | None = None,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        if len(record_reads) != len(record_cpu):
            raise ValueError("record_reads and record_cpu must align")
        if any(d < 0 for d in read_seconds):
            raise ValueError("read durations must be non-negative")
        for read in record_reads:
            if read >= len(read_seconds):
                raise ValueError(f"record references unknown read {read}")
        self._loop = loop
        self._channels = channels
        self._reads = list(read_seconds)
        self._record_reads = list(record_reads)
        self._record_cpu = list(record_cpu)
        self._demand = list(demand_seconds) if demand_seconds else None
        self._limit = max_parallel if max_parallel is not None else channels.capacity
        if self._limit < 1:
            raise ValueError(f"max_parallel must be >= 1, got {self._limit}")
        self._on_done = on_done
        self._completed = [False] * len(self._reads)
        self._waiters: list[Callable[[], None] | None] = [None] * len(self._reads)
        self._next_read = 0
        self._in_flight = 0
        self._started_at = 0.0
        self.stats = PipelineStats()

    def start(self) -> None:
        """Begin prefetching and consuming at the current loop time."""
        self._started_at = self._loop.now
        self._issue_more()
        self._consume(0)

    # --- prefetcher ------------------------------------------------------
    def _issue_more(self) -> None:
        while self._in_flight < self._limit and self._next_read < len(self._reads):
            position = self._next_read
            self._next_read += 1
            self._in_flight += 1
            self._channels.acquire(
                lambda channel_id, position=position: self._run_read(
                    position, channel_id
                )
            )

    def _run_read(self, position: int, channel_id: int) -> None:
        duration = self._reads[position]
        self._channels.occupy(channel_id, duration)
        self._loop.schedule(duration, lambda: self._finish_read(position, channel_id))

    def _finish_read(self, position: int, channel_id: int) -> None:
        self._completed[position] = True
        self._channels.release(channel_id)
        self._in_flight -= 1
        self._issue_more()
        waiter, self._waiters[position] = self._waiters[position], None
        if waiter is not None:
            waiter()

    # --- consumer --------------------------------------------------------
    def _consume(self, index: int) -> None:
        while index < len(self._record_cpu):
            read = self._record_reads[index]
            if read >= 0 and not self._completed[read]:
                self.stats.stall_count += 1
                stalled_at = self._loop.now

                def resume(index=index, stalled_at=stalled_at) -> None:
                    self.stats.stall_seconds += self._loop.now - stalled_at
                    self._consume(index)

                self._waiters[read] = resume
                return
            delay = self._record_cpu[index]
            if self._demand is not None:
                demand = self._demand[index]
                self.stats.demand_seconds += demand
                delay += demand
            if delay > 0:
                self._loop.schedule(delay, lambda index=index: self._consume(index + 1))
                return
            index += 1
        self.stats.elapsed_seconds = self._loop.now - self._started_at
        if self._on_done is not None:
            self._on_done()


def simulate_restore_pipeline(
    read_seconds: Sequence[float],
    record_reads: Sequence[int],
    record_cpu: Sequence[float],
    threads: int,
    demand_seconds: Sequence[float] | None = None,
    setup_seconds: float = 0.0,
) -> PipelineStats:
    """Run one restore job's pipeline on private prefetch channels.

    With ``threads == 0`` there are no prefetch channels: every read is a
    consumer stall and the job serialises (``cpu + download``, term for
    term).  With ``threads >= 1`` up to ``threads`` reads run ahead of the
    consumer; startup and tail effects keep the schedule above the
    idealised ``max(cpu, download/threads)``.  ``setup_seconds`` is the
    serial prefix (recipe fetch + planning) paid before the pipeline
    starts.
    """
    if threads < 0:
        raise ValueError(f"threads cannot be negative: {threads}")
    if setup_seconds < 0:
        raise ValueError(f"setup cannot be negative: {setup_seconds}")
    if threads == 0:
        stats = PipelineStats()
        stats.stall_count = len(read_seconds)
        stats.stall_seconds = float(sum(read_seconds))
        stats.demand_seconds = float(sum(demand_seconds)) if demand_seconds else 0.0
        stats.elapsed_seconds = (
            setup_seconds
            + stats.stall_seconds
            + float(sum(record_cpu))
            + stats.demand_seconds
        )
        return stats
    loop = EventLoop()
    pool = ChannelPool(loop, threads)
    process = RestorePipelineProcess(
        loop,
        pool,
        read_seconds,
        record_reads,
        record_cpu,
        demand_seconds=demand_seconds,
        max_parallel=threads,
    )
    process.start()
    loop.run()
    stats = process.stats
    stats.elapsed_seconds += setup_seconds
    stats.channel_busy_seconds = list(pool.busy_seconds)
    return stats


@dataclass
class UploadStats:
    """Outcome of one batch of overlapped staging uploads."""

    elapsed_seconds: float = 0.0
    #: Busy seconds per upload channel.
    channel_busy_seconds: list[float] = field(default_factory=list)

    @property
    def serial_seconds(self) -> float:
        """Duration the same uploads would take on a single channel."""
        return sum(self.channel_busy_seconds)


def simulate_upload_channels(
    upload_seconds: Sequence[float], channels: int
) -> UploadStats:
    """Overlap independent uploads over ``channels`` background channels.

    The browse cache's write-back flush stages each dirty block as one
    OSS put; the endpoint charges those puts serially, so this schedule
    converts the measured per-block durations into the wall time a pool
    of concurrent upload channels would take (greedy FIFO assignment,
    the same discipline as the restore prefetcher).
    """
    if channels < 1:
        raise ValueError(f"need at least one upload channel, got {channels}")
    stats = UploadStats()
    if not upload_seconds:
        stats.channel_busy_seconds = [0.0] * channels
        return stats
    loop = EventLoop()
    pool = ChannelPool(loop, channels)
    for duration in upload_seconds:
        if duration < 0:
            raise ValueError(f"upload duration cannot be negative: {duration}")

        def start(channel_id: int, duration: float = duration) -> None:
            pool.occupy(channel_id, duration)
            loop.schedule(duration, lambda cid=channel_id: pool.release(cid))

        pool.acquire(start)
    stats.elapsed_seconds = loop.run()
    stats.channel_busy_seconds = list(pool.busy_seconds)
    return stats
