"""Tests for the simulated Object Storage Service."""

import pytest

from repro.errors import (
    BucketNotFoundError,
    ObjectNotFoundError,
    SimulatedCrashError,
    TransientOSSError,
)
from repro.oss.backend import InMemoryBackend
from repro.oss.faults import FaultPolicy
from repro.oss.object_store import ObjectStorageService
from repro.oss.retry import RetryingObjectStore, RetryPolicy
from repro.sim.cost_model import CostModel
from repro.sim.metrics import TimeBreakdown


@pytest.fixture
def store() -> ObjectStorageService:
    service = ObjectStorageService(CostModel())
    service.create_bucket("test")
    return service


class TestBuckets:
    def test_create_is_idempotent(self, store):
        store.create_bucket("test")
        assert store.bucket_names() == ["test"]

    def test_missing_bucket_raises(self, store):
        with pytest.raises(BucketNotFoundError):
            store.get_object("ghost", "k")


class TestObjectOperations:
    def test_put_get_roundtrip(self, store):
        store.put_object("test", "key", b"data")
        assert store.get_object("test", "key") == b"data"

    def test_get_missing_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get_object("test", "missing")

    def test_get_range(self, store):
        store.put_object("test", "key", b"0123456789")
        assert store.get_range("test", "key", 2, 3) == b"234"

    def test_get_range_bounds_checked(self, store):
        store.put_object("test", "key", b"0123")
        with pytest.raises(ValueError):
            store.get_range("test", "key", 2, 10)
        with pytest.raises(ValueError):
            store.get_range("test", "key", -1, 2)

    def test_delete(self, store):
        store.put_object("test", "key", b"data")
        assert store.delete_object("test", "key") is True
        assert store.delete_object("test", "key") is False

    def test_list_with_prefix(self, store):
        store.put_object("test", "a/1", b"x")
        store.put_object("test", "a/2", b"x")
        store.put_object("test", "b/1", b"x")
        assert store.list_objects("test", "a/") == ["a/1", "a/2"]

    def test_a_listing_is_one_request_and_a_peek_is_none(self, store):
        store.put_object("test", "b/1", b"x")
        store.put_object("test", "a/1", b"x")
        before = store.stats.snapshot()
        clock = store.clock.now
        assert store.list_objects("test", "b/") == ["b/1"]
        assert store.stats.diff(before).list_requests == 1
        assert store.clock.now == clock + store.cost_model.oss_request_latency
        assert store.peek_keys("test", "a") == ["a/1"]
        assert store.list_objects("test", "c/") == []
        assert store.stats.diff(before).list_requests == 2

    def test_head_and_exists(self, store):
        store.put_object("test", "key", b"12345")
        assert store.head_object("test", "key") == 5
        assert store.object_exists("test", "key")
        assert not store.object_exists("test", "other")


class TestBatchedDelete:
    """``delete_objects`` is OSS DeleteMultipleObjects: one request, one
    fault-gate decision and one crash-matrix write per ≤1,000 keys."""

    @staticmethod
    def _fill(store, count: int) -> list[str]:
        keys = [f"log/{i:06d}" for i in range(count)]
        for key in keys:
            store.put_object("test", key, b"x")
        return keys

    def test_one_request_deletes_the_batch_and_tolerates_missing_keys(self, store):
        keys = self._fill(store, 5)
        store.put_object("test", "keep", b"x")
        before = store.stats.snapshot()
        clock = store.clock.now
        store.delete_objects("test", ["log/ghost", *keys])
        assert store.peek_keys("test") == ["keep"]
        assert store.stats.diff(before).delete_requests == 1
        assert store.clock.now - clock == pytest.approx(
            store.cost_model.oss_request_latency
        )
        # Idempotent: every key is missing now.
        store.delete_objects("test", keys)
        assert store.stats.diff(before).delete_requests == 2

    def test_no_keys_is_no_request(self, store):
        clock = store.clock.now
        store.delete_objects("test", [])
        assert store.stats.delete_requests == 0
        assert store.clock.now == clock

    def test_one_request_per_thousand_keys(self, store):
        keys = self._fill(store, 2001)
        store.delete_objects("test", keys)
        assert store.stats.delete_requests == 3
        assert store.peek_keys("test") == []

    def test_one_fault_gate_call_and_one_crash_write_per_request(self, store):
        keys = self._fill(store, 1500)
        policy = FaultPolicy()
        store.set_fault_policy(policy)
        gated = []
        original = policy.before_request

        def recording(op, bucket, key):
            gated.append((op, key))
            return original(op, bucket, key)

        policy.before_request = recording
        store.delete_objects("test", keys)
        assert gated == [("delete", keys[0]), ("delete", keys[1000])]
        assert policy.writes_seen == 2

    def test_crash_lands_between_batches_never_inside_one(self, store):
        keys = self._fill(store, 1500)
        policy = FaultPolicy()
        policy.crash_after_writes(1)
        store.set_fault_policy(policy)
        with pytest.raises(SimulatedCrashError):
            store.delete_objects("test", keys)
        assert store.peek_keys("test") == keys[1000:]

    def test_retrying_client_retries_the_batch_whole(self, store):
        keys = self._fill(store, 4)
        policy = FaultPolicy()
        store.set_fault_policy(policy)
        failures = iter([True, False])
        original = policy.before_request

        def flaky(op, bucket, key):
            if op == "delete" and next(failures):
                raise TransientOSSError(op, bucket, key)
            return original(op, bucket, key)

        policy.before_request = flaky
        client = RetryingObjectStore(store, RetryPolicy(base_delay=0.01, max_delay=0.02))
        client.delete_objects("test", keys)
        assert store.peek_keys("test") == []
        assert client.retry_stats.retries == 1
        assert store.stats.delete_requests == 1


class TestVirtualTimeCharging:
    def test_put_advances_clock(self, store):
        before = store.clock.now
        store.put_object("test", "key", b"x" * (1 << 20))
        model = store.cost_model
        expected = model.oss_request_latency + (1 << 20) / model.oss_write_bandwidth
        assert store.clock.now - before == pytest.approx(expected)

    def test_piggyback_put_charges_no_latency(self, store):
        store.put_object("test", "main", b"x")
        before = store.clock.now
        store.put_object("test", "meta", b"y" * 1000, piggyback=True)
        charged = store.clock.now - before
        assert charged == pytest.approx(1000 / store.cost_model.oss_write_bandwidth)

    def test_get_advances_clock(self, store):
        store.put_object("test", "key", b"x" * (1 << 20))
        before = store.clock.now
        store.get_object("test", "key")
        model = store.cost_model
        expected = model.oss_request_latency + (1 << 20) / model.oss_read_bandwidth
        assert store.clock.now - before == pytest.approx(expected)

    def test_multichannel_get_is_faster(self, store):
        store.put_object("test", "key", b"x" * (4 << 20))
        t0 = store.clock.now
        store.get_object("test", "key", channels=1)
        single = store.clock.now - t0
        t1 = store.clock.now
        store.get_object("test", "key", channels=4)
        quad = store.clock.now - t1
        assert quad < single / 2

    def test_peek_is_free(self, store):
        store.put_object("test", "key", b"data")
        before = store.clock.now
        assert store.peek_size("test", "key") == 4
        assert store.peek_keys("test") == ["key"]
        assert store.clock.now == before


class TestStats:
    def test_traffic_accounting(self, store):
        store.put_object("test", "k", b"x" * 100)
        store.get_object("test", "k")
        store.get_range("test", "k", 0, 10)
        assert store.stats.put_requests == 1
        assert store.stats.get_requests == 2
        assert store.stats.bytes_written == 100
        assert store.stats.bytes_read == 110

    def test_snapshot_diff(self, store):
        store.put_object("test", "k", b"x" * 100)
        snapshot = store.stats.snapshot()
        store.get_object("test", "k")
        delta = store.stats.diff(snapshot)
        assert delta.get_requests == 1
        assert delta.put_requests == 0
        assert delta.bytes_read == 100

    def test_total_bytes(self, store):
        store.put_object("test", "a", b"12")
        store.put_object("test", "b", b"345")
        assert store.total_bytes() == 5
        assert store.bucket_bytes("test") == 5


class TestMeter:
    """``oss.meter()`` is a window over the endpoint's running totals."""

    @staticmethod
    def _mixed_traffic(store) -> None:
        store.put_object("test", "a", b"x" * 5000)
        store.put_object("test", "b", b"y" * 300, piggyback=True)
        store.get_object("test", "a")
        store.get_object("test", "b", piggyback=True)
        store.get_range("test", "a", 100, 900)
        store.get_ranges("test", "a", [(0, 10), (4000, 1000)])
        store.put_object("test", "c", b"z" * 70_000, channels=4)
        store.delete_objects("test", ["a", "b", "ghost"])

    @staticmethod
    def _fields(record) -> tuple[float, float, int]:
        return record.read_seconds, record.write_seconds, record.bytes_written

    def test_fields_equal_the_stats_diff(self, store):
        store.put_object("test", "warm", b"w" * 123)
        before = store.stats.snapshot()
        with store.meter() as meter:
            self._mixed_traffic(store)
        delta = store.stats.diff(before)
        assert self._fields(meter) == self._fields(delta)
        assert meter.read_seconds > 0 and meter.write_seconds > 0

    def test_nested_meter_counts_in_its_parent(self, store):
        with store.meter() as outer:
            store.put_object("test", "a", b"x" * 2000)
            with store.meter() as inner:
                store.get_object("test", "a")
                store.put_object("test", "b", b"y" * 10)
            store.get_range("test", "a", 0, 100)
        assert 0 < inner.read_seconds < outer.read_seconds
        assert 0 < inner.write_seconds < outer.write_seconds
        assert inner.bytes_written == 10 and outer.bytes_written == 2010
        with store.meter() as again:
            with store.meter() as only:
                store.get_object("test", "a")
        assert self._fields(again) == self._fields(only)

    def test_breakdown_gets_reads_as_download_and_writes_as_upload(self, store):
        breakdown = TimeBreakdown()
        with store.meter(breakdown) as meter:
            self._mixed_traffic(store)
        assert breakdown.download == meter.read_seconds > 0
        assert breakdown.upload == meter.write_seconds > 0
        assert breakdown.cpu_seconds() == 0

    def test_a_block_that_raises_charges_nothing(self, store):
        breakdown = TimeBreakdown()
        with pytest.raises(ObjectNotFoundError):
            with store.meter(breakdown) as meter:
                store.put_object("test", "a", b"x" * 100)
                store.get_object("test", "a")
                store.get_object("test", "missing")
        assert breakdown.download == 0 and breakdown.upload == 0
        # The window itself still closed over what the block spent.
        assert meter.read_seconds > 0 and meter.write_seconds > 0

    def test_retrying_meter_counts_the_torn_attempt_and_its_retry(self, store):
        policy = FaultPolicy()
        torn = iter([True, False])
        policy.torn_write_prefix = lambda data: data[:3] if next(torn) else None
        store.set_fault_policy(policy)
        client = RetryingObjectStore(store, RetryPolicy(base_delay=0.01, max_delay=0.02))
        before = store.stats.snapshot()
        with client.meter() as meter:
            client.put_object("test", "key", b"p" * 1000)
        delta = store.stats.diff(before)
        assert store.get_object("test", "key") == b"p" * 1000
        assert delta.put_requests == 2 and delta.faults_injected == 1
        assert client.retry_stats.retries == 1
        assert meter.bytes_written == 3 + 1000
        assert self._fields(meter) == self._fields(delta)


class TestBackendFactory:
    def test_named_factory_receives_bucket_name(self):
        seen = []

        def factory(name):
            seen.append(name)
            return InMemoryBackend()

        store = ObjectStorageService(backend_factory=factory)
        store.create_bucket("alpha")
        assert seen == ["alpha"]

    def test_no_arg_factory_supported(self):
        store = ObjectStorageService(backend_factory=InMemoryBackend)
        store.create_bucket("alpha")
        store.put_object("alpha", "k", b"v")
        assert store.get_object("alpha", "k") == b"v"

    def test_factory_type_errors_propagate(self):
        def factory(name):
            raise TypeError("broken factory internals")

        store = ObjectStorageService(backend_factory=factory)
        with pytest.raises(TypeError, match="broken factory internals"):
            store.create_bucket("alpha")
