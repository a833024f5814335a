#!/usr/bin/env python3
"""Quickstart: back up three versions of a file and restore them.

Demonstrates the core SLIMSTORE loop — incremental multi-version backup
with online deduplication, then byte-exact restore of any version — plus
the headline statistics each job reports.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import SlimStore


def make_data(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def edit(rng: np.random.Generator, data: bytes, edits: int = 3) -> bytes:
    """A new version: a few localized 8 KB overwrites, like a real file."""
    out = bytearray(data)
    for _ in range(edits):
        start = int(rng.integers(0, len(out) - 8192))
        out[start : start + 8192] = make_data(rng, 8192)
    return bytes(out)


def main() -> None:
    rng = np.random.default_rng(seed=7)
    store = SlimStore()  # simulated OSS + L-node + G-node, all defaults

    print("== Backing up three versions of db/accounts.tbl ==")
    versions = [make_data(rng, 2 << 20)]
    for _ in range(2):
        versions.append(edit(rng, versions[-1]))

    for data in versions:
        report = store.backup("db/accounts.tbl", data)
        result = report.result
        print(
            f"  v{report.version}: {result.logical_bytes >> 20} MiB in, "
            f"dedup ratio {result.dedup_ratio:.1%}, "
            f"throughput {result.throughput_mb_s:.0f} MB/s (virtual), "
            f"{result.counters.get('containers_written')} containers written"
        )

    print("\n== Restoring every version ==")
    for version, original in enumerate(versions):
        restored = store.restore("db/accounts.tbl", version)
        status = "OK" if restored.data == original else "MISMATCH"
        print(
            f"  v{version}: {status}, {restored.containers_read} container reads, "
            f"{restored.throughput_mb_s:.0f} MB/s with "
            f"{restored.prefetch_threads} prefetch threads"
        )

    space = store.space_report()
    logical = sum(len(v) for v in versions)
    print(
        f"\n== Space ==\n  logical {logical >> 20} MiB across versions, "
        f"stored {space.container_bytes >> 20} MiB of chunks "
        f"({space.container_bytes / logical:.1%} of logical)"
    )


if __name__ == "__main__":
    main()
