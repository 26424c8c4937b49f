"""Benchmark `formacheck check` on one workload; run from the repository root.

    python3 perfbench/run.py --workload sphere-product --seed 1 --seconds 35 --trace 0

With `--trace 0` it prints the end-to-end metrics (median wall and CPU time
and peak RSS of one `check` child, and the median set-up time); with
`--trace 1` it prints the per-layer metrics of a traced run instead.  Times
are scaled to a nominal CPU speed (see harness.py); the lines above the
result give the op wall times as measured too.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.SRC, "formacheck", "cli.py")):
        print(f"error: no formacheck sources under {harness.SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))  # before run_workload pins the run to one CPU
    workload = harness.WORKLOADS[args.workload]
    work_root = os.path.join(harness.HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), cwd)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"env: python {platform.python_version()}, nproc {nproc}, "
          f"pinned to CPU {min(os.sched_getaffinity(0))}, loadavg {load}")
    walls = sorted(result.walls)
    print(f"{workload.name}: seed {args.seed}, closed loop, one client, "
          f"{len(walls)} untraced ops, {len(result.traced_walls)} traced ops, "
          f"{len(result.setups)} set-ups")
    print(f"  op wall s as measured: min {walls[0]:.4f}, median {statistics.median(walls):.4f}, "
          f"max {walls[-1]:.4f}; scaled to the nominal speed: median "
          f"{statistics.median(result.scaled_walls):.4f}")
    probes = sorted(result.probes)
    print(f"  {len(probes)} speed probes, s ({harness.PROBE_NOMINAL_S} nominal): "
          f"min {probes[0]:.5f}, median {statistics.median(probes):.5f}, "
          f"max {probes[-1]:.5f}; "
          f"scaled set-up s: min {min(result.setups):.4f}, "
          f"median {statistics.median(result.setups):.4f}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if result.traced_walls:
        # self times add up without double counting, so per-module sums are
        # shares of the traced op (the rest is interpreter start and import)
        traced = statistics.median(result.traced_walls)
        shares = {}
        for name in harness.CHECK_SPANS:
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + result.metrics[f"{name}_s"][0] / traced
        print("  self time share of the median traced op: "
              + ", ".join(f"{m} {v:.1%}" for m, v in shares.items()))
    print(f"  fail_ratio {result.failed / result.attempted:.6g} "
          f"({result.failed}/{result.attempted})")
    for error in result.errors[:5]:
        print(f"failed {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
