"""Smoke test of the e2e benchmark (not part of tier-1; run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``).

Runs every workload at the ``--smoke`` scale, which is refused for recorded
results, and checks the contract between ``run.py`` and ``BENCHMARK.json``:
the declared names and units, repeatability of the exact metrics, and that
traced layer self times add up to the phase they were measured in.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Metrics that repeat exactly for one seed (counts and the virtual clock).
EXACT = [
    "stored_bytes_per_logical_byte",
    "backup_oss_bytes_per_byte",
    "backup_oss_requests_per_mib",
    "restore_oldest_oss_bytes_per_byte",
    "virtual_backup_mib_s",
    "virtual_restore_latest_mib_s",
]


def run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, check=False, timeout=300,
    )


def smoke(workload: str, seed: int, trace: int) -> dict:
    done = run("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line["metrics"]


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_units_and_exact_metrics(workload):
    first = smoke(workload, seed=1, trace=0)
    assert {n: m["unit"] for n, m in first.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in first.values())
    again = smoke(workload, seed=1, trace=0)
    other = smoke(workload, seed=2, trace=0)
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"], name
    assert any(first[name]["value"] != other[name]["value"] for name in EXACT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_names_units_and_self_times_sum_to_phase(workload):
    metrics = smoke(workload, seed=1, trace=1)
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")

    spans = json.loads((HERE / "out" / f"trace_{workload}_smoke.json").read_text())["spans"]
    raw = json.loads(
        (HERE / "out" / f"run_{workload}_seed1_trace_smoke.json").read_text()
    )["raw"]
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    for phase, harness_s in raw["traced_phase_s"].items():
        self_s = sum(
            span["end"] - span["start"] - covered[span["id"]]
            for span in spans
            if span["phase"] == phase and span["main"]
        )
        assert self_s == pytest.approx(harness_s, rel=0.01), phase

    # The engine path belongs to vmfleet_par alone.
    on_exec = metrics["exec.chunk_fp_self_s"]["value"] > 0
    assert on_exec == (workload == "vmfleet_par")


def test_smoke_results_are_not_recorded(tmp_path):
    done = run("--workload", WORKLOADS[0], "--smoke", "--record", str(tmp_path / "x.json"))
    assert done.returncode == 2
    assert not (tmp_path / "x.json").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=target / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
