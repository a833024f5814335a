"""Repeatability evidence: two interleaved sets of runs of every workload.

For each end-to-end metric and workload this prints both sets' medians and
quartiles and checks them against the metric's bound in ``BENCHMARK.json``,
the way the benchmark is gated:

* *spread* — the distance between the first and third quartile of one set's
  values (``statistics.quantiles(values, n=4)``) as a share of their median
  must stay within the bound (``setup_s`` excepted);
* *drift* — the second set's median must not be worse than the first's by
  more than the bound.

Every run gets a seed of its own, so the spread includes what the seed does
to the bytes.  The sets are interleaved (A1 B1 A2 B2 ...) so slow drift of
the host lands on both.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_once(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    """One workload run in a fresh process; returns its result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), *(extra or ("--trace", "0"))],
        capture_output=True, text=True, check=False, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(runs: int, seconds: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    # values[workload][metric] = ([set A values], [set B values])
    values = {w: {m["name"]: ([], []) for m in spec["end_to_end"]} for w in workloads}
    for index in range(runs):
        for which in (0, 1):
            seed = 1 + index + which * runs
            for workload in workloads:
                line = run_once(workload, seed, seconds)
                if not line["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: {line['failed']} ops failed")
                for name, metric in line["metrics"].items():
                    values[workload][name][which].append(metric["value"])
                print(f"run {index + 1}/{runs} set {'AB'[which]} {workload} seed {seed} done",
                      flush=True)

    ok = True
    report = {"runs_per_set": runs, "seconds": seconds, "cells": []}
    header = (f"{'workload':20s} {'metric':34s} {'A q1/med/q3':>34s} {'B q1/med/q3':>34s} "
              f"{'spread':>7s} {'drift':>7s} {'bound':>6s}")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values[workload][name]
            qa, qb = quartiles(a), quartiles(b)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            worse = (qb[1] - qa[1]) if metric["better"] == "lower" else (qa[1] - qb[1])
            drift = worse / qa[1]
            passed = drift <= bound and (name == "setup_s" or spread <= bound)
            ok = ok and passed
            print(f"{workload:20s} {name:34s} "
                  f"{'/'.join(f'{v:.5g}' for v in qa):>34s} {'/'.join(f'{v:.5g}' for v in qb):>34s} "
                  f"{spread:7.4f} {drift:+7.4f} {bound:6.3f} {'PASS' if passed else 'FAIL'}")
            report["cells"].append(
                {"workload": workload, "metric": name, "unit": metric["unit"], "bound": bound,
                 "set_a": a, "set_b": b, "quartiles_a": qa, "quartiles_b": qb,
                 "spread": spread, "drift": drift, "pass": passed}
            )
    report["pass"] = ok
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "selfcheck.json").write_text(json.dumps(report, indent=1))
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def baseline(seed: int, seconds: float) -> int:
    """Every workload in both modes, merged into ``results/baseline.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    ).stdout.strip()
    merged = {"commit": commit or None, "seed": seed, "seconds": seconds, "workloads": {}}
    scratch = HERE / "out" / "baseline_run.json"
    scratch.parent.mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        entry = merged["workloads"][workload] = {}
        for trace in ("0", "1"):
            run_once(workload, seed, seconds, "--trace", trace, "--record", str(scratch))
            result = json.loads(scratch.read_text())
            merged["host"] = result["host"]
            section = "per_layer" if trace == "1" else "end_to_end"
            entry[section] = {
                name: {"value": value, "unit": unit} for name, (value, unit) in result[section].items()
            }
            entry[f"raw_trace{trace}"] = result["raw"]
            entry[f"ops_trace{trace}"] = {"attempted": result["attempted"], "failed": result["failed"]}
            print(f"{workload} --trace {trace} done in {result['wall_s']:.1f} s", flush=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "baseline.json").write_text(json.dumps(merged, indent=1))
    return 0
