#!/usr/bin/env python3
"""End-to-end + per-layer wall-clock benchmark of the SLIMSTORE reproduction.

    python3 benchmarks/e2e/run.py --workload sdb_serial --seed 1 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --selfcheck --runs 5

One run = one workload in this process: build the dataset from the seed,
drive ``SlimStore`` through backup -> G-node -> restore -> browse -> attach,
verify every byte that comes back, print every metric with its unit, and end
with one JSON line (``correct``/``attempted``/``failed``/``metrics``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See README.md beside this file.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="sdb_serial | srctree_smallfiles | vmfleet_par")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny scale for tests; results are not recorded"
    )
    parser.add_argument("--record", metavar="FILE", help="also write the full result as JSON")
    parser.add_argument(
        "--selfcheck", action="store_true", help="two interleaved sets of runs of every workload"
    )
    parser.add_argument("--runs", type=int, default=5, help="runs per set for --selfcheck")
    parser.add_argument(
        "--baseline", action="store_true", help="run every workload in both modes, write results/baseline.json"
    )
    return parser.parse_args(argv)


def host_block() -> dict:
    import os

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # The benchmark's own modules and the program's source tree, not an
    # installed copy of either.
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    if args.selfcheck or args.baseline:
        import selfcheck

        if args.baseline:
            return selfcheck.baseline(args.seed, args.seconds)
        return selfcheck.main(args.runs, args.seconds)

    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.smoke and args.record:
        print("error: --smoke results are not recorded", file=sys.stderr)
        return 2

    suffix = "_smoke" if args.smoke else ""
    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        PROCESS_START,
        trace_path=OUT / f"trace_{args.workload}{suffix}.json",
    )
    result.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        host=host_block(),
        wall_s=time.perf_counter() - PROCESS_START,
    )

    reported = result["per_layer"] if args.trace else result["end_to_end"]
    for name, (value, unit) in reported.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    incr = result["raw"]["backup_incr_calls"]
    print(f"samples: backup_call_p50_ms over {incr} calls; ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']}; wall {result['wall_s']:.1f} s")

    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    raw_path = OUT / f"run_{args.workload}_seed{args.seed}_{mode}{suffix}.json"
    raw_path.write_text(json.dumps(result, indent=1))
    if args.record:
        Path(args.record).write_text(json.dumps(result, indent=1))

    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
