"""Scrubbing and failure injection: the repository under damage."""

from collections import Counter

import pytest

from repro import SlimStore
from repro.cli import main
from repro.core.scrub import RepositoryScrubber
from repro.errors import RestoreError, RetryExhaustedError
from tests.conftest import (
    SMALL_CONFIG as CONFIG,
    make_chaos_store as chaos_store,
    mutate,
    random_bytes,
)


def live_copies_of_stored(store: SlimStore, result) -> set[int]:
    """How many live copies each chunk a backup job stored now has."""
    new = set(result.new_container_ids)
    containers = store.storage.containers
    live = Counter(
        entry.fp
        for cid in containers.container_ids()
        for entry in containers.read_meta(cid).live_lookup_entries()
    )
    return {
        live[record.fp]
        for record in result.recipe.all_records()
        if record.container_id in new
    }


class TestScrubClean:
    def test_healthy_repository_scrubs_clean(self, aged_store):
        store, _ = aged_store
        report = store.scrub()
        assert report.clean
        assert report.containers_checked > 0
        assert report.chunks_verified > 0
        assert report.recipes_checked == 6
        assert not report.corrupt_chunks
        assert not report.unresolvable_records

    def test_redirects_counted_not_flagged(self, aged_store):
        store, _ = aged_store
        report = store.scrub()
        # G-node moved chunks: old recipes legitimately redirect.
        assert report.redirected_records >= 0
        assert report.unresolvable_records == []

    def test_container_pass_without_catalog(self, aged_store):
        store, _ = aged_store
        report = RepositoryScrubber(store.storage).scrub(None)
        assert report.containers_checked > 0
        assert report.recipes_checked == 0


class TestScrubDetectsDamage:
    def test_detects_flipped_bits(self, aged_store):
        store, _ = aged_store
        cid = store.storage.containers.container_ids()[0]
        payload = bytearray(store.storage.containers.read_data(cid))
        payload[len(payload) // 2] ^= 0xFF
        store.oss.put_object("slimstore", f"containers/{cid:012d}.data", bytes(payload))
        report = store.scrub()
        assert not report.clean
        assert any(found_cid == cid for found_cid, _ in report.corrupt_chunks)

    def test_detects_dangling_records(self, aged_store):
        store, _ = aged_store
        # Nuke a container referenced by the oldest recipe.
        recipe = store.storage.recipes.get_recipe("f", 0)
        victim = sorted(recipe.referenced_containers())[0]
        store.storage.containers.delete(victim)
        report = store.scrub()
        assert not report.clean
        assert any(path == "f" for path, _v, _fp in report.unresolvable_records)

    def test_cli_scrub_exit_codes(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        sample = tmp_path / "s.bin"
        sample.write_bytes(random_bytes(rng, 64 * 1024))
        main(["backup", str(repo), str(sample)])
        assert main(["scrub", str(repo)]) == 0
        assert "clean" in capsys.readouterr().out
        # Corrupt a container object on disk and scrub again.
        container = next((repo / "slimstore" / "containers").glob("*.data"))
        blob = bytearray(container.read_bytes())
        blob[100] ^= 0xFF
        container.write_bytes(bytes(blob))
        assert main(["scrub", str(repo)]) == 1
        assert "CORRUPT" in capsys.readouterr().err


class TestFaultTolerance:
    def test_restore_other_versions_despite_one_bad_container(self, aged_store):
        """Damage to one version's container leaves other versions intact."""
        store, payloads = aged_store
        latest = store.versions("f")[-1]
        latest_recipe = store.storage.recipes.get_recipe("f", latest)
        latest_cids = latest_recipe.referenced_containers()
        # Corrupt a container NOT referenced by the latest version.
        for cid in store.storage.containers.container_ids():
            if cid not in latest_cids:
                payload = bytearray(store.storage.containers.read_data(cid))
                payload[0] ^= 0xFF
                store.oss.put_object(
                    "slimstore", f"containers/{cid:012d}.data", bytes(payload)
                )
                break
        assert store.restore("f", latest).data == payloads[latest]

    def test_verified_restore_refuses_corrupt_data(self, aged_store):
        store, _ = aged_store
        latest = store.versions("f")[-1]
        recipe = store.storage.recipes.get_recipe("f", latest)
        cid = sorted(recipe.referenced_containers())[-1]
        payload = bytearray(store.storage.containers.read_data(cid))
        payload[1] ^= 0xFF
        store.oss.put_object("slimstore", f"containers/{cid:012d}.data", bytes(payload))
        with pytest.raises(RestoreError):
            store.restore("f", latest, verify=True)


# ---------------------------------------------------------------------------
# Fault injection, degraded-mode dedup and scrub repair
# ---------------------------------------------------------------------------

def find_duplicate_chunk(store):
    """A fingerprint with two live physical copies, or None."""
    containers = store.storage.containers
    seen = {}
    for cid in containers.container_ids():
        meta = containers.read_meta(cid)
        for entry in meta.entries:
            if entry.alias or entry.deleted:
                continue
            key = (entry.fp, entry.size)
            if key in seen and seen[key][0] != cid:
                return seen[key], (cid, entry)
            seen.setdefault(key, (cid, entry))
    return None


def corrupt_chunk(store, cid, entry):
    payload = bytearray(store.storage.containers.read_data(cid))
    payload[entry.offset + entry.size // 2] ^= 0x01
    store.oss.put_object("slimstore", f"containers/{cid:012d}.data", bytes(payload))


class TestRetryExhaustion:
    def test_full_outage_aborts_backup(self, rng):
        store, faults = chaos_store()
        faults.outage()
        with pytest.raises(RetryExhaustedError):
            store.backup("f", random_bytes(rng, 64 * 1024))

    def test_backup_succeeds_after_revive(self, rng):
        store, faults = chaos_store()
        data = random_bytes(rng, 64 * 1024)
        faults.outage()
        with pytest.raises(RetryExhaustedError):
            store.backup("f", data)
        faults.revive()
        report = store.backup("f", data)
        assert not report.degraded
        assert store.restore("f").data == data


class TestDegradedBackup:
    def test_get_outage_degrades_instead_of_aborting(self, rng):
        store, faults = chaos_store()
        v0 = random_bytes(rng, 256 * 1024)
        store.backup("f", v0)
        v1 = mutate(rng, v0, runs=2, run_bytes=8 * 1024)

        faults.outage({"get"})  # dedup lookups fail, writes still drain
        report = store.backup("f", v1)
        faults.revive()

        assert report.degraded
        assert report.result.counters.get("degraded_events") > 0
        assert report.result.counters.get("degraded_chunks") > 0
        assert store.pending_versions() == [("f", 1)]
        # The degraded version restored byte-identically all along.
        assert store.restore("f", 1).data == v1
        assert store.restore("f", 0).data == v0

    def test_reclaim_degraded_recovers_the_space(self, rng):
        store, faults = chaos_store()
        v0 = random_bytes(rng, 256 * 1024)
        store.backup("f", v0)
        v1 = mutate(rng, v0, runs=2, run_bytes=8 * 1024)
        faults.outage({"get"})
        degraded = store.backup("f", v1).result
        faults.revive()

        report = store.drain()
        assert report is not None
        assert report.duplicates_removed > 0
        assert live_copies_of_stored(store, degraded) == {1}
        assert store.pending_versions() == []
        # Reclamation must not damage either version.
        assert store.restore("f", 0).data == v0
        assert store.restore("f", 1).data == v1

    def test_reclaim_without_degraded_versions_is_none(self, rng):
        store, _ = chaos_store()
        store.backup("f", random_bytes(rng, 64 * 1024))
        assert store.drain() is None

    def test_degraded_flag_survives_catalog_roundtrip(self, rng):
        store, faults = chaos_store()
        v0 = random_bytes(rng, 128 * 1024)
        store.backup("f", v0)
        faults.outage({"get"})
        store.backup("f", mutate(rng, v0, runs=1, run_bytes=4 * 1024))
        faults.revive()

        attached = SlimStore(CONFIG, store.oss)
        attached.recover()
        assert attached.pending_versions() == [("f", 1)]


class TestScrubRepair:
    def test_repair_heals_from_duplicate_copy(self, rng):
        store, faults = chaos_store()
        v0 = random_bytes(rng, 256 * 1024)
        store.backup("f", v0)
        v1 = mutate(rng, v0, runs=2, run_bytes=8 * 1024)
        faults.outage({"get"})
        store.backup("f", v1)  # degraded: shared chunks stored twice
        faults.revive()
        store.oss.set_fault_policy(None)

        duplicate = find_duplicate_chunk(store)
        assert duplicate is not None
        _first, (cid, entry) = duplicate
        corrupt_chunk(store, cid, entry)
        assert not store.scrub().clean

        report = store.scrub(repair=True)
        assert report.chunks_repaired >= 1
        assert report.containers_rewritten >= 1
        assert not report.quarantined_chunks
        assert report.fully_repaired
        assert store.scrub().clean
        assert store.restore("f", 0).data == v0
        assert store.restore("f", 1).data == v1

    def test_unrecoverable_chunk_is_quarantined(self, rng):
        store = SlimStore(CONFIG)
        store.backup("f", random_bytes(rng, 64 * 1024))
        cid = store.storage.containers.container_ids()[0]
        meta = store.storage.containers.read_meta(cid)
        entry = next(e for e in meta.entries if not e.alias)
        corrupt_chunk(store, cid, entry)

        report = store.scrub(repair=True)
        assert (cid, entry.fp) in report.quarantined_chunks
        assert not report.fully_repaired
        # Quarantined chunks are out of circulation: the container pass no
        # longer flags them, but the recipe pass surfaces the data loss.
        after = store.scrub()
        assert not after.corrupt_chunks
        assert any(fp == entry.fp for _p, _v, fp in after.unresolvable_records)

    def test_cli_scrub_repair_flag(self, tmp_path, rng, capsys):
        repo = tmp_path / "repo"
        sample = tmp_path / "s.bin"
        sample.write_bytes(random_bytes(rng, 64 * 1024))
        main(["backup", str(repo), str(sample)])
        assert main(["scrub", str(repo), "--repair"]) == 0
        assert "clean" in capsys.readouterr().out
        container = next((repo / "slimstore" / "containers").glob("*.data"))
        blob = bytearray(container.read_bytes())
        blob[100] ^= 0xFF
        container.write_bytes(bytes(blob))
        # Single copy of every chunk: repair can only quarantine.
        assert main(["scrub", str(repo), "--repair"]) == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.out
        assert "QUARANTINED" in captured.err


class TestSeededChaos:
    """The acceptance scenario: six versions under ~5% transient faults."""

    def test_six_version_cycle_with_faults_degradation_and_repair(self, rng):
        store, faults = chaos_store(
            seed=2026,
            get_error_rate=0.05,
            put_error_rate=0.05,
            torn_write_rate=0.05,
            latency_spike_rate=0.02,
            latency_spike_seconds=0.1,
        )
        payloads = [random_bytes(rng, 256 * 1024)]
        store.backup("f", payloads[0])
        for _ in range(2):
            payloads.append(mutate(rng, payloads[-1], runs=2, run_bytes=8 * 1024))
            store.backup("f", payloads[-1])

        # Version 3 lands during a read outage: backed up in degraded mode.
        payloads.append(mutate(rng, payloads[-1], runs=2, run_bytes=8 * 1024))
        faults.outage({"get"})
        degraded_report = store.backup("f", payloads[-1])
        faults.revive()
        assert degraded_report.degraded
        assert degraded_report.result.counters.get("degraded_chunks") > 0
        client = store.storage.oss
        # Only the outage could exhaust retries (that is what degraded
        # mode absorbed); the ~5% transient schedule never does.
        exhausted_by_outage = client.retry_stats.exhausted_operations
        assert exhausted_by_outage > 0

        for _ in range(2):
            payloads.append(mutate(rng, payloads[-1], runs=2, run_bytes=8 * 1024))
            store.backup("f", payloads[-1])

        # The retrying client absorbed the fault schedule.
        assert faults.stats.faults_injected > 0
        assert client.retry_stats.retries > 0
        assert client.retry_stats.exhausted_operations == exhausted_by_outage

        # Every version restores byte-identically, faults still active.
        for version, expected in enumerate(payloads):
            assert store.restore("f", version).data == expected

        # Quiesce the endpoint, then heal an injected bit flip from the
        # duplicate copy the degraded backup left behind.
        store.oss.set_fault_policy(None)
        duplicate = find_duplicate_chunk(store)
        assert duplicate is not None
        _first, (cid, entry) = duplicate
        corrupt_chunk(store, cid, entry)
        repair_report = store.scrub(repair=True)
        assert repair_report.chunks_repaired >= 1
        assert repair_report.fully_repaired
        assert store.scrub().clean

        # The out-of-line G-node pass settles the degraded version's debt.
        assert store.pending_versions() == [("f", 3)]
        drained = store.drain()
        assert drained is not None
        assert drained.duplicates_removed > 0
        assert live_copies_of_stored(store, degraded_report.result) == {1}
        assert store.pending_versions() == []

        for version, expected in enumerate(payloads):
            assert store.restore("f", version).data == expected
        assert store.scrub().clean
