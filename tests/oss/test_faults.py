"""Fault injection and the retrying client, under deterministic schedules."""

import pytest

from repro.errors import ObjectNotFoundError, RetryExhaustedError, TransientOSSError
from repro.oss.faults import FAULT_OPS, FaultPolicy
from repro.oss.object_store import ObjectStorageService
from repro.oss.retry import RetryBudget, RetryingObjectStore, RetryPolicy
from repro.sim.cost_model import CostModel


def make_store(policy: FaultPolicy | None = None) -> ObjectStorageService:
    store = ObjectStorageService(CostModel(), faults=policy)
    store.create_bucket("b")
    return store


class TestFaultPolicyValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPolicy(get_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(torn_write_rate=-0.1)

    def test_outage_rejects_unknown_ops(self):
        policy = FaultPolicy()
        with pytest.raises(ValueError):
            policy.outage({"mutate"})

    def test_fault_ops_cover_policy_fields(self):
        policy = FaultPolicy()
        for op in FAULT_OPS:
            assert hasattr(policy, f"{op}_error_rate")


class TestTransientErrors:
    def test_certain_failure_raises_transient(self):
        store = make_store(FaultPolicy(get_error_rate=1.0))
        with pytest.raises(TransientOSSError):
            store.get_object("b", "k")

    def test_failure_charges_one_round_trip(self):
        store = make_store(FaultPolicy(put_error_rate=1.0))
        before = store.clock.now
        with pytest.raises(TransientOSSError):
            store.put_object("b", "k", b"data")
        assert store.clock.now == pytest.approx(
            before + store.cost_model.oss_request_latency
        )
        # Nothing was persisted by a plain transient failure.
        assert store.peek_size("b", "k") is None

    def test_stats_mirrored_into_oss_stats(self):
        store = make_store(FaultPolicy(get_error_rate=1.0))
        with pytest.raises(TransientOSSError):
            store.get_object("b", "k")
        assert store.faults.stats.transient_errors == 1
        assert store.stats.faults_injected == 1

    def test_no_policy_means_no_faults(self):
        store = make_store(None)
        store.put_object("b", "k", b"data")
        assert store.get_object("b", "k") == b"data"
        assert store.stats.faults_injected == 0


class TestDeterminism:
    def run_schedule(self, seed: int) -> tuple[list[str], int]:
        policy = FaultPolicy(seed=seed, get_error_rate=0.3, put_error_rate=0.2)
        store = make_store(policy)
        outcomes = []
        for i in range(50):
            try:
                store.put_object("b", f"k{i}", b"x" * 32)
                outcomes.append("put-ok")
            except TransientOSSError:
                outcomes.append("put-fail")
            try:
                store.get_object("b", f"k{i}")
                outcomes.append("get-ok")
            except (TransientOSSError, ObjectNotFoundError):
                outcomes.append("get-fail")
        return outcomes, policy.stats.faults_injected

    def test_same_seed_same_schedule(self):
        first, faults_first = self.run_schedule(seed=7)
        second, faults_second = self.run_schedule(seed=7)
        assert first == second
        assert faults_first == faults_second
        assert faults_first > 0

    def test_different_seed_different_schedule(self):
        first, _ = self.run_schedule(seed=7)
        second, _ = self.run_schedule(seed=8)
        assert first != second


class TestTornWrites:
    def test_torn_put_persists_prefix_and_raises(self):
        store = make_store(FaultPolicy(torn_write_rate=1.0))
        data = bytes(range(256))
        with pytest.raises(TransientOSSError):
            store.put_object("b", "k", data)
        assert store.faults.stats.torn_writes == 1
        torn = store.peek_size("b", "k")
        assert torn is not None and 0 < torn < len(data)
        # A retried PUT (no tear this time) heals the truncated object.
        store.set_fault_policy(None)
        store.put_object("b", "k", data)
        assert store.get_object("b", "k") == data

    def test_tiny_payloads_never_tear(self):
        store = make_store(FaultPolicy(torn_write_rate=1.0))
        store.put_object("b", "k", b"x")
        assert store.get_object("b", "k") == b"x"


class TestCorruptReads:
    def test_read_is_bit_flipped_not_truncated(self):
        store = make_store(None)
        data = bytes(range(256))
        store.put_object("b", "k", data)
        store.set_fault_policy(FaultPolicy(corrupt_read_rate=1.0))
        got = store.get_object("b", "k")
        assert len(got) == len(data)
        assert got != data
        # Exactly one bit differs.
        diff = [a ^ b for a, b in zip(got, data) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1
        assert store.faults.stats.corrupt_reads == 1
        assert store.stats.faults_injected == 1
        # The stored object itself is untouched.
        store.set_fault_policy(None)
        assert store.get_object("b", "k") == data

    def test_ranged_reads_also_corrupt(self):
        store = make_store(None)
        store.put_object("b", "k", bytes(range(128)))
        store.set_fault_policy(FaultPolicy(corrupt_read_rate=1.0))
        got = store.get_range("b", "k", 16, 64)
        assert len(got) == 64
        assert got != bytes(range(16, 80))

    def test_get_ranges_spans_share_the_corruption_path(self):
        """Regression: multi-span GETs run each span through the same
        bit-flip filter as whole-object GETs — spans are not a loophole."""
        store = make_store(None)
        data = bytes(range(256))
        store.put_object("b", "k", data)
        store.set_fault_policy(FaultPolicy(corrupt_read_rate=1.0))
        spans = [(0, 64), (64, 64), (200, 56)]
        chunks = store.get_ranges("b", "k", spans)
        assert [len(chunk) for chunk in chunks] == [64, 64, 56]
        # Every span is independently flipped: one bit each, right length.
        for (offset, length), chunk in zip(spans, chunks):
            expected = data[offset : offset + length]
            diff = [a ^ b for a, b in zip(chunk, expected) if a != b]
            assert len(diff) == 1 and bin(diff[0]).count("1") == 1
        assert store.faults.stats.corrupt_reads == len(spans)
        # The stored object is untouched once the policy is lifted.
        store.set_fault_policy(None)
        assert store.get_ranges("b", "k", spans) == [
            data[o : o + n] for o, n in spans
        ]


class TestLatencySpikes:
    def test_spike_charged_to_virtual_clock(self):
        spike = 0.25
        plain = make_store(None)
        spiky = make_store(
            FaultPolicy(latency_spike_rate=1.0, latency_spike_seconds=spike)
        )
        for store in (plain, spiky):
            store.put_object("b", "k", b"x" * 1024)
        assert spiky.clock.now == pytest.approx(plain.clock.now + spike)
        assert spiky.faults.stats.latency_spikes == 1
        assert spiky.faults.stats.latency_injected_seconds == pytest.approx(spike)


class TestKillSwitchAndOutage:
    def test_kill_after_n_requests(self):
        store = make_store(FaultPolicy(kill_after_requests=2))
        store.put_object("b", "k0", b"x")
        store.put_object("b", "k1", b"x")
        assert not store.faults.is_killed
        with pytest.raises(TransientOSSError):
            store.put_object("b", "k2", b"x")
        assert store.faults.is_killed
        assert store.faults.stats.killed_requests == 1
        store.faults.revive()
        store.put_object("b", "k2", b"x")
        assert store.get_object("b", "k2") == b"x"

    def test_partial_outage_fails_only_selected_ops(self):
        store = make_store(FaultPolicy())
        store.put_object("b", "k", b"x")
        store.faults.outage({"get"})
        with pytest.raises(TransientOSSError):
            store.get_object("b", "k")
        store.put_object("b", "k2", b"y")  # writes still drain
        store.faults.revive()
        assert store.get_object("b", "k") == b"x"


class TestFaultDomains:
    def test_key_fault_domain_mapping(self):
        from repro.oss.faults import key_fault_domain

        # Container payloads land on cid % domains.
        assert key_fault_domain("containers/000000000004.data", 3) == 1
        assert key_fault_domain("containers/000000000006.data", 3) == 0
        # Durability copies and parity land on their d<N>/ prefix.
        assert key_fault_domain("durability/d2/000000000007.copy0", 3) == 2
        assert key_fault_domain("durability/d1/stripe00000003.p0", 3) == 1
        # Control plane (meta, journal, manifests) has no domain.
        assert key_fault_domain("containers/000000000004.meta", 3) is None
        assert key_fault_domain("durability/records/000000000004.json", 3) is None
        assert key_fault_domain("durability/state.json", 3) is None
        assert key_fault_domain("durability/log/000000000004", 3) is None
        assert key_fault_domain("journal/000001.json", 3) is None
        # Disabled mapping: everything is domainless.
        assert key_fault_domain("containers/000000000004.data", 0) is None

    def test_domain_outage_only_fails_that_domain(self):
        policy = FaultPolicy(fault_domains=3)
        store = make_store(policy)
        for cid in range(3):
            store.put_object("b", f"containers/{cid:012d}.data", b"x")
            store.put_object("b", f"containers/{cid:012d}.meta", b"m")
        policy.outage({"get"}, domain=1)
        # Domain 1's payload is down; other domains and the control
        # plane (.meta keys map to no domain) keep serving.
        with pytest.raises(TransientOSSError):
            store.get_object("b", "containers/000000000001.data")
        assert store.get_object("b", "containers/000000000000.data") == b"x"
        assert store.get_object("b", "containers/000000000002.data") == b"x"
        assert store.get_object("b", "containers/000000000001.meta") == b"m"
        # Writes into the domain still fail only for the chosen ops.
        store.put_object("b", "containers/000000000001.data", b"y")

    def test_domain_outages_stack_and_revive_individually(self):
        policy = FaultPolicy(fault_domains=3)
        store = make_store(policy)
        store.put_object("b", "durability/d0/000000000001.copy0", b"a")
        store.put_object("b", "durability/d1/000000000001.copy1", b"b")
        policy.outage({"get"}, domain=0)
        policy.outage({"get"}, domain=1)
        with pytest.raises(TransientOSSError):
            store.get_object("b", "durability/d0/000000000001.copy0")
        with pytest.raises(TransientOSSError):
            store.get_object("b", "durability/d1/000000000001.copy1")
        policy.revive(domain=0)
        assert store.get_object("b", "durability/d0/000000000001.copy0") == b"a"
        with pytest.raises(TransientOSSError):
            store.get_object("b", "durability/d1/000000000001.copy1")
        policy.revive()  # bare revive lifts everything
        assert store.get_object("b", "durability/d1/000000000001.copy1") == b"b"

    def test_domain_outage_validation(self):
        policy = FaultPolicy()  # fault_domains defaults to 0
        with pytest.raises(ValueError):
            policy.outage({"get"}, domain=0)
        scoped = FaultPolicy(fault_domains=3)
        with pytest.raises(ValueError):
            scoped.outage({"get"}, domain=3)
        with pytest.raises(ValueError):
            scoped.outage({"get"}, domain=-1)
        with pytest.raises(ValueError):
            FaultPolicy(fault_domains=-1)


class TestRetryPolicyValidation:
    def test_bad_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_bad_delays(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_budget_seconds=-1.0)


class TestRetryingObjectStore:
    def test_absorbs_intermittent_faults(self):
        store = make_store(FaultPolicy(seed=3, get_error_rate=0.3, put_error_rate=0.3))
        client = RetryingObjectStore(store, RetryPolicy(seed=3))
        for i in range(60):
            client.put_object("b", f"k{i}", bytes([i]) * 64)
        for i in range(60):
            assert client.get_object("b", f"k{i}") == bytes([i]) * 64
        assert client.retry_stats.retries > 0
        assert client.retry_stats.recovered_operations > 0
        assert client.retry_stats.exhausted_operations == 0
        assert store.stats.retries_attempted == client.retry_stats.retries

    def test_torn_writes_healed_by_retry(self):
        store = make_store(FaultPolicy(seed=5, torn_write_rate=0.4))
        client = RetryingObjectStore(store, RetryPolicy(seed=5))
        payloads = {f"k{i}": bytes([i]) * 256 for i in range(40)}
        for key, data in payloads.items():
            client.put_object("b", key, data)
        assert store.faults.stats.torn_writes > 0
        store.set_fault_policy(None)
        for key, data in payloads.items():
            assert client.get_object("b", key) == data

    def test_exhaustion_raises_with_cause(self):
        store = make_store(FaultPolicy(get_error_rate=1.0))
        client = RetryingObjectStore(store, RetryPolicy(max_attempts=4))
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.get_object("b", "k")
        assert excinfo.value.attempts == 4
        assert isinstance(excinfo.value.__cause__, TransientOSSError)
        assert client.retry_stats.exhausted_operations == 1

    def test_backoff_charged_to_virtual_clock(self):
        store = make_store(FaultPolicy(get_error_rate=1.0))
        client = RetryingObjectStore(
            store, RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)
        )
        with pytest.raises(RetryExhaustedError):
            client.get_object("b", "k")
        slept = client.retry_stats.backoff_seconds
        assert slept >= 4 * 0.1  # four backoffs between five attempts
        failed_latency = 5 * store.cost_model.oss_request_latency
        assert store.clock.now == pytest.approx(slept + failed_latency)

    def test_backoff_budget_bounds_total_sleep(self):
        store = make_store(FaultPolicy(get_error_rate=1.0))
        client = RetryingObjectStore(
            store,
            RetryPolicy(
                max_attempts=1000,
                base_delay=0.5,
                max_delay=2.0,
                backoff_budget_seconds=1.0,
            ),
        )
        with pytest.raises(RetryExhaustedError):
            client.get_object("b", "k")
        assert client.retry_stats.backoff_seconds <= 1.0 + 1e-9
        assert client.retry_stats.retries < 1000

    def test_delegates_non_operations(self):
        store = make_store(None)
        client = RetryingObjectStore(store)
        client.create_bucket("other")
        assert client.bucket_names() == ["b", "other"]
        assert client.clock is store.clock
        assert client.stats is store.stats

    def test_not_found_is_not_retried(self):
        store = make_store(None)
        client = RetryingObjectStore(store)
        with pytest.raises(ObjectNotFoundError):
            client.get_object("b", "missing")
        assert client.retry_stats.retries == 0


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0)
        with pytest.raises(ValueError):
            RetryBudget(refill_per_second=-1.0)

    def test_spend_and_refill(self):
        budget = RetryBudget(capacity=2.0, refill_per_second=1.0)
        assert budget.try_spend(0.0)
        assert budget.try_spend(0.0)
        assert not budget.try_spend(0.0)  # dry
        assert budget.denied == 1
        assert budget.try_spend(1.5)  # 1.5 tokens refilled
        assert budget.available(1.5) == pytest.approx(0.5)
        # Refill caps at capacity.
        assert budget.available(1000.0) == pytest.approx(2.0)

    def test_exhaustion_fails_fast_into_degraded_mode(self):
        """A dry budget turns the next retry into an immediate
        RetryExhaustedError instead of a backoff sleep — the degraded-mode
        signal the dedup engine already survives."""
        store = make_store(FaultPolicy(get_error_rate=1.0))
        budget = RetryBudget(capacity=3.0, refill_per_second=0.0)
        client = RetryingObjectStore(
            store, RetryPolicy(max_attempts=100), budget=budget
        )
        before = store.clock.now
        with pytest.raises(RetryExhaustedError):
            client.get_object("b", "k")  # spends all 3 tokens, then denied
        assert client.retry_stats.retries == 3
        with pytest.raises(RetryExhaustedError):
            client.get_object("b", "k")  # budget dry: no retries at all
        assert client.retry_stats.retries == 3
        assert client.retry_stats.budget_denied == 2
        assert client.retry_stats.exhausted_operations == 2
        assert budget.denied == 2
        # The denied operation paid only its own request latency, no backoff.
        assert store.clock.now - before < 3 * 2.0 + 2 * store.cost_model.oss_request_latency

    def test_budget_shared_across_clients(self):
        """N clients hammering one degraded endpoint drain ONE bucket:
        aggregate retry volume is bounded by the budget, not N times it."""
        store = make_store(FaultPolicy(get_error_rate=1.0))
        budget = RetryBudget(capacity=5.0, refill_per_second=0.0)
        clients = [
            RetryingObjectStore(store, RetryPolicy(max_attempts=100, seed=i), budget=budget)
            for i in range(4)
        ]
        for client in clients:
            with pytest.raises(RetryExhaustedError):
                client.get_object("b", "k")
        total_retries = sum(c.retry_stats.retries for c in clients)
        assert total_retries == 5
        # Every operation ended on a budget denial (the drainer's last
        # attempt included), so aggregate retries stayed at the budget.
        assert sum(c.retry_stats.budget_denied for c in clients) == 4

    def test_refill_uses_virtual_time(self):
        """Tokens come back as the virtual clock advances, so a budget
        throttles bursts without permanently disabling retries."""
        store = make_store(FaultPolicy(seed=7, get_error_rate=0.4))
        budget = RetryBudget(capacity=2.0, refill_per_second=10.0)
        client = RetryingObjectStore(
            store, RetryPolicy(seed=7, base_delay=0.1), budget=budget
        )
        store.put_object("b", "k", b"x" * 64)
        store.set_fault_policy(FaultPolicy(seed=7, get_error_rate=0.4))
        for _ in range(50):
            assert client.get_object("b", "k") == b"x" * 64
        assert client.retry_stats.retries > 0
        assert client.retry_stats.budget_denied == 0  # refill kept pace

    def test_unbudgeted_client_unchanged(self):
        store = make_store(FaultPolicy(seed=3, get_error_rate=0.3))
        client = RetryingObjectStore(store, RetryPolicy(seed=3))
        for i in range(30):
            client.put_object("b", f"k{i}", bytes([i]) * 64)
        assert client.retry_stats.budget_denied == 0
        assert client.retry_stats.exhausted_operations == 0


class TestCrashPoints:
    def test_crash_fires_at_the_armed_write_index(self):
        from repro.errors import SimulatedCrashError

        policy = FaultPolicy()
        store = make_store(policy)
        policy.crash_after_writes(2)
        store.put_object("b", "k0", b"a")
        store.put_object("b", "k1", b"b")
        with pytest.raises(SimulatedCrashError) as excinfo:
            store.put_object("b", "k2", b"c")
        assert excinfo.value.write_index == 2
        # The crashing write never reached the backend.
        assert store.peek_size("b", "k2") is None
        assert store.peek_size("b", "k1") == 1

    def test_deletes_count_as_writes(self):
        from repro.errors import SimulatedCrashError

        policy = FaultPolicy()
        store = make_store(policy)
        store.put_object("b", "victim", b"x")
        policy.crash_after_writes(0)
        with pytest.raises(SimulatedCrashError):
            store.delete_object("b", "victim")
        assert store.peek_size("b", "victim") == 1

    def test_dead_node_fails_every_subsequent_request(self):
        from repro.errors import SimulatedCrashError

        policy = FaultPolicy()
        store = make_store(policy)
        store.put_object("b", "k", b"x")
        policy.crash_after_writes(0)
        with pytest.raises(SimulatedCrashError):
            store.put_object("b", "k2", b"y")
        assert policy.has_crashed
        # Reads die too: the process is gone, not just one write.
        with pytest.raises(SimulatedCrashError):
            store.get_object("b", "k")
        policy.clear_crash()
        assert store.get_object("b", "k") == b"x"

    def test_crash_is_not_a_transient_error(self):
        from repro.errors import SimulatedCrashError

        policy = FaultPolicy()
        store = make_store(policy)
        client = RetryingObjectStore(store, RetryPolicy(max_attempts=5))
        policy.crash_after_writes(0)
        # The retry layer must not absorb node death and retry into it.
        assert not issubclass(SimulatedCrashError, TransientOSSError)
        with pytest.raises(SimulatedCrashError):
            client.put_object("b", "k", b"x")
        assert client.retry_stats.retries == 0

    def test_probe_run_counts_writes_without_crashing(self):
        policy = FaultPolicy()
        store = make_store(policy)
        store.put_object("b", "k0", b"a")
        store.get_object("b", "k0")  # reads do not advance the write index
        store.delete_object("b", "k0")
        assert policy.writes_seen == 2
        assert not policy.has_crashed

    def test_crash_does_not_charge_virtual_time(self):
        from repro.errors import SimulatedCrashError

        policy = FaultPolicy()
        store = make_store(policy)
        policy.crash_after_writes(0)
        before = store.clock.now
        with pytest.raises(SimulatedCrashError):
            store.put_object("b", "k", b"x")
        assert store.clock.now == before
        assert policy.stats.crash_faults == 1
        assert store.stats.faults_injected == 1
