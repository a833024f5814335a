"""Crash matrix for the write-back flush: kill the node at every OSS
write of a browse edit + flush, recover, and assert visible-or-nothing.

The flush state machine under test (see :mod:`repro.core.browse`): the
``cache_flush`` intent lands first, dirty blocks stage under
``browsecache/{seq}/``, the intent is marked ``staged=True``, then the
normal backup pipeline publishes the new version.  The contract after a
crash anywhere in that stream:

* the file is at exactly the base version set or base + the new version
  — never a torn mix;
* once staging completed, recovery **rolls the upload forward** from the
  staged blocks, so the acknowledged flush is not lost;
* zero orphaned cache bytes: no ``browsecache/`` key survives recovery.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.browse import STAGE_PREFIX, BrowseSession
from repro.core.system import SlimStore
from tests.conftest import SMALL_CONFIG, random_bytes
from tests.integration.test_crash_matrix import (
    assert_exactly_visible,
    assert_zero_debris,
    attach,
    clone_state,
    run_matrix,
)

pytestmark = pytest.mark.slow

BROWSE_CONFIG = replace(
    SMALL_CONFIG,
    browse_block_bytes=8 * 1024,
    browse_cache_memory_bytes=64 * 1024,
    browse_cache_disk_bytes=128 * 1024,
    browse_readahead_blocks=1,
)


def assert_no_cache_bytes(survivor: SlimStore) -> None:
    """No staged browse block survives recovery."""
    leftovers = survivor.oss.peek_keys(survivor.bucket, STAGE_PREFIX)
    assert not leftovers, f"orphaned cache bytes: {leftovers}"


class TestBrowseFlushCrashMatrix:
    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(60606)
        store = attach(config=BROWSE_CONFIG)
        payloads = [random_bytes(rng, 96 * 1024)]
        edited = bytearray(payloads[0])
        edited[30_000:34_000] = random_bytes(rng, 4_000)
        edited.extend(b"tail growth")
        payloads.append(bytes(edited))
        store.backup("f", payloads[0])
        return clone_state(store.oss), payloads

    def test_crash_at_every_write_index(self, base):
        base_state, payloads = base
        patch = payloads[1][30_000:34_000]

        def action(store: SlimStore) -> None:
            session = BrowseSession(store)
            handle = session.open("f")
            handle.write(30_000, patch)
            handle.write(len(payloads[0]), b"tail growth")
            handle.flush()

        def verify(survivor: SlimStore, crash_at: int) -> None:
            versions = survivor.versions("f")
            assert versions in ([0], [0, 1]), (crash_at, versions)
            assert_exactly_visible(survivor, "f", versions)
            for version in versions:
                assert survivor.restore("f", version).data == payloads[version], (
                    crash_at,
                    version,
                )
            assert_zero_debris(survivor)
            assert_no_cache_bytes(survivor)

        total = run_matrix(base_state, action, verify, config=BROWSE_CONFIG)
        # Wide enough to cross staging, the staged=True update and the
        # nested backup commit — i.e. both discard and roll-forward arms.
        assert total > 6

    def test_roll_forward_from_staged_blocks(self, base):
        """A crash *after* staging completed but *before* the backup's
        catalog put must still publish the flush (upload rolled forward)."""
        base_state, payloads = base
        patch = payloads[1][30_000:34_000]

        seen_rolled_forward = []

        def action(store: SlimStore) -> None:
            session = BrowseSession(store)
            handle = session.open("f")
            handle.write(30_000, patch)
            handle.write(len(payloads[0]), b"tail growth")
            handle.flush()

        def verify(survivor: SlimStore, crash_at: int) -> None:
            # Attach publishes what recovery did, a rolled-forward backup's
            # inline clear included.
            assert not survivor.catalog.pending, crash_at
            if survivor.versions("f") == [0, 1]:
                recovery = survivor.last_recovery
                if recovery is not None and any(
                    kind == "cache_flush" for _, kind in recovery.rolled_forward
                ):
                    seen_rolled_forward.append(crash_at)
                assert survivor.restore("f", 1).data == payloads[1]

        run_matrix(base_state, action, verify, config=BROWSE_CONFIG)
        # The matrix must have hit the staged-but-uncommitted window.
        assert seen_rolled_forward
