"""Tests for the Bloom filters, including hypothesis properties."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.bloom import BloomFilter, _positions, optimal_parameters
from tests.kvstore.counting_bloom import CountingBloomFilter


class TestOptimalParameters:
    def test_more_items_need_more_bits(self):
        small, _ = optimal_parameters(100, 0.01)
        large, _ = optimal_parameters(10000, 0.01)
        assert large > small

    def test_lower_fp_rate_needs_more_bits(self):
        loose, _ = optimal_parameters(1000, 0.1)
        tight, _ = optimal_parameters(1000, 0.001)
        assert tight > loose

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(100, 1.5)


class TestBloomFilter:
    def test_added_items_are_found(self):
        filt = BloomFilter(100)
        items = [f"item{i}".encode() for i in range(50)]
        filt.update(items)
        assert all(item in filt for item in items)

    def test_absent_items_mostly_rejected(self):
        filt = BloomFilter(1000, 0.01)
        filt.update(f"in{i}".encode() for i in range(1000))
        false_positives = sum(
            1 for i in range(1000) if f"out{i}".encode() in filt
        )
        assert false_positives < 50  # 1% target with generous slack

    def test_len_counts_insertions(self):
        filt = BloomFilter(10)
        filt.add(b"a")
        filt.add(b"b")
        assert len(filt) == 2

    def test_serialisation_roundtrip(self):
        filt = BloomFilter(100)
        filt.update(f"x{i}".encode() for i in range(40))
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert all(f"x{i}".encode() in restored for i in range(40))
        assert len(restored) == 40
        assert restored.bit_count == filt.bit_count

    def test_corrupt_payload_rejected(self):
        filt = BloomFilter(10)
        filt.add(b"a")
        payload = filt.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(payload[:-1])

    @given(st.sets(st.binary(min_size=1, max_size=32), max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives(self, items):
        filt = BloomFilter(max(1, len(items)))
        filt.update(items)
        assert all(item in filt for item in items)

    def test_one_digest_per_touch(self, bloom_digests):
        filt = BloomFilter(1000, 0.001)  # k = 10
        filt.add(b"present")
        assert len(bloom_digests) == 1
        assert b"present" in filt
        assert len(bloom_digests) == 2
        assert b"absent" not in filt
        assert len(bloom_digests) == 3


class TestPersistedFormat:
    KEYS = (b"alpha", b"beta", b"gamma")
    #: scheme 1 | 29 bits | 7 hashes | 3 items | 4 bytes of bits
    GOLDEN = bytes.fromhex("01" "000000000000001d" "0007" "0000000000000003" "fe72c811")

    def test_golden_payload(self):
        filt = BloomFilter(3, 0.01)
        filt.update(self.KEYS)
        assert filt.to_bytes() == self.GOLDEN
        reopened = BloomFilter.from_bytes(self.GOLDEN)
        assert all(key in reopened for key in self.KEYS)
        assert b"delta" not in reopened
        assert reopened.to_bytes() == self.GOLDEN

    @pytest.mark.parametrize("legacy", [False, True])
    def test_truncated_payload_rejected(self, legacy):
        """``legacy``: a payload from before the scheme byte, whose first
        byte (the high byte of its bit count) is 0, is refused whole too."""
        payload = bytes(1) + self.GOLDEN[1:] if legacy else self.GOLDEN
        cuts = (len(payload), len(payload) - 1, 12, 1) if legacy else (len(payload) - 1, 12, 1, 0)
        for cut in cuts:
            with pytest.raises(ValueError):
                BloomFilter.from_bytes(payload[:cut])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            BloomFilter.from_bytes(b"\x02" + self.GOLDEN[1:])


class TestPositions:
    def test_first_two_slots_always_differ(self):
        """``step`` is never 0 mod m, down to the smallest filter allowed."""
        rand = random.Random(5)
        for m in (8, 15, 29, 1 << 10, 1 << 20):
            for _ in range(2000):
                first, second = _positions(rand.randbytes(20), 2, m)
                assert first != second
                assert 0 <= first < m and 0 <= second < m

    def test_positions_are_the_documented_progression(self):
        key = b"\x07" * 20
        digest = hashlib.blake2b(key, digest_size=16).digest()
        first = int.from_bytes(digest[:8], "big")
        step = int.from_bytes(digest[8:], "big") % 9973 or 1
        assert _positions(key, 10, 9973) == [(first + i * step) % 9973 for i in range(10)]


def random_keys(rand: random.Random, count: int) -> list[bytes]:
    return [rand.randbytes(20) for _ in range(count)]


def sequential_keys(start: int, count: int) -> list[bytes]:
    return [(start + i).to_bytes(8, "big") for i in range(count)]


class TestFilterQuality:
    """Double hashing must not cost accuracy: at design load the measured
    false-positive rate stays within 2x the target, also for sequential
    integers (the worst input for a weak mix)."""

    ITEMS = 5000
    ABSENT = 20000

    @pytest.mark.parametrize("rate", [0.01, 0.001])  # k = 7, k = 10
    @pytest.mark.parametrize("keys", ["random", "sequential"])
    @pytest.mark.parametrize("kind", [BloomFilter, CountingBloomFilter])
    def test_false_positive_rate_at_design_load(self, kind, keys, rate):
        assert optimal_parameters(self.ITEMS, rate)[1] == {0.01: 7, 0.001: 10}[rate]
        if keys == "random":
            rand = random.Random(11)
            present = random_keys(rand, self.ITEMS)
            absent = random_keys(rand, self.ABSENT)
        else:
            present = sequential_keys(0, self.ITEMS)
            absent = sequential_keys(self.ITEMS, self.ABSENT)
        filt = kind(self.ITEMS, rate)
        for key in present:
            filt.add(key)
        assert all(key in filt for key in present)
        false_positives = sum(1 for key in absent if key in filt)
        assert false_positives <= 2 * rate * self.ABSENT


def self_colliding_key() -> tuple[bytes, list[int]]:
    """A key whose probe sequence revisits a slot of the smallest counting
    filter at the paper-model rate (15 slots, k = 10), by search."""
    slots, hashes = optimal_parameters(1, 0.001)
    for index in range(10000):
        key = f"key{index}".encode()
        positions = _positions(key, hashes, slots)
        if len(set(positions)) < hashes:
            return key, positions
    raise AssertionError("no self-colliding key found")


class TestCountingBloomFilter:
    def test_count_tracks_references(self):
        cbf = CountingBloomFilter(100)
        cbf.add(b"chunk", times=3)
        assert cbf.count(b"chunk") >= 3
        cbf.remove(b"chunk")
        assert cbf.count(b"chunk") >= 2

    def test_remove_to_zero(self):
        cbf = CountingBloomFilter(100)
        cbf.add(b"chunk")
        cbf.remove(b"chunk")
        assert b"chunk" not in cbf

    def test_remove_absent_raises(self):
        cbf = CountingBloomFilter(100)
        with pytest.raises(KeyError):
            cbf.remove(b"never added")

    def test_add_rejects_non_positive_times(self):
        cbf = CountingBloomFilter(100)
        with pytest.raises(ValueError):
            cbf.add(b"x", times=0)

    def test_contains(self):
        cbf = CountingBloomFilter(100)
        assert b"x" not in cbf
        cbf.add(b"x")
        assert b"x" in cbf

    def test_one_digest_per_touch(self, bloom_digests):
        cbf = CountingBloomFilter(1000, 0.001)  # k = 10
        cbf.add(b"chunk", times=2)
        assert len(bloom_digests) == 1
        assert cbf.count(b"chunk") == 2
        assert len(bloom_digests) == 2
        assert cbf.remove(b"chunk") == 1
        assert len(bloom_digests) == 3
        with pytest.raises(KeyError):
            cbf.remove(b"never added")
        assert len(bloom_digests) == 4

    def test_remove_returns_remaining_count(self):
        cbf = CountingBloomFilter(100)
        cbf.add(b"chunk", times=3)
        assert cbf.remove(b"chunk") == 2 == cbf.count(b"chunk")
        assert cbf.remove(b"chunk") == 1 == cbf.count(b"chunk")
        assert cbf.remove(b"chunk") == 0 == cbf.count(b"chunk")

    def test_remove_reads_back_when_slots_collide(self):
        """An item whose probe sequence revisits a slot decrements it
        twice, so the remaining count is not ``before - 1``."""
        cbf = CountingBloomFilter(1, 0.001)
        key, positions = self_colliding_key()
        cbf.add(key)
        # A neighbour shares every slot the key probes once.
        for position in set(positions):
            if positions.count(position) == 1:
                cbf._counters[position] += 1
        before = cbf.count(key)
        assert before == 2
        remaining = cbf.remove(key)
        assert remaining == cbf.count(key) == 0
        assert remaining != before - 1

    def test_remove_underflow_on_a_revisited_slot_changes_nothing(self):
        """A slot the item probes twice but that holds 1 (a neighbour's
        false-positive removal ate the other reference) is an underflow,
        not a counter wrapped below zero."""
        cbf = CountingBloomFilter(1, 0.001)
        key, positions = self_colliding_key()
        cbf.add(key)
        for position in set(positions):
            if positions.count(position) > 1:
                cbf._counters[position] = 1
        before = list(cbf._counters)
        with pytest.raises(KeyError):
            cbf.remove(key)
        assert list(cbf._counters) == before

    def test_remove_after_a_false_positive_removal(self):
        """A neighbour removed through a false positive eats shared slots;
        ``remove`` still returns what ``count`` reads next, or underflows."""
        rand = random.Random(3)
        cbf = CountingBloomFilter(8, 0.1)  # 39 slots, k = 3
        added = random_keys(rand, 12)
        for key in added:
            cbf.add(key)
        impostor = next(
            key for key in random_keys(rand, 10000) if key in cbf and key not in added
        )
        cbf.remove(impostor)
        outcomes = set()
        for key in added:
            try:
                assert cbf.remove(key) == cbf.count(key)
                outcomes.add("removed")
            except KeyError:
                assert cbf.count(key) == 0
                outcomes.add("underflow")
        assert "removed" in outcomes

    @given(
        st.dictionaries(
            st.binary(min_size=4, max_size=16),
            st.integers(min_value=1, max_value=5),
            max_size=32,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_are_upper_bounds(self, reference_counts):
        cbf = CountingBloomFilter(max(8, len(reference_counts) * 4), 0.001)
        for item, count in reference_counts.items():
            cbf.add(item, times=count)
        for item, count in reference_counts.items():
            assert cbf.count(item) >= count

    @given(st.lists(st.binary(min_size=4, max_size=16), min_size=1, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_add_remove_symmetry(self, items):
        cbf = CountingBloomFilter(max(8, len(items) * 4), 0.001)
        for item in items:
            cbf.add(item)
        for item in items:
            cbf.remove(item)
        # After perfectly balanced add/remove, every slot is zero again.
        assert all(count == 0 for count in cbf._counters)
