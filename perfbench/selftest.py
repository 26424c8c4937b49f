"""Self-test of the benchmark harness; run from the repository root.

    python3 perfbench/selftest.py

Runs a small version of each workload through the same harness path,
traced and untraced, and checks that:
  - every op passes its closed-form expectation;
  - the closed forms agree with the brute-force sympy oracle in
    tests/oracles.py (brute_model_dims) on the seeded inputs;
  - a deliberately wrong expectation makes every op count as failed;
  - the same seed gives the same input and another seed another one;
  - the speed probe scales by the mean speed over an interval;
  - BENCHMARK.json names the workloads and metrics this harness prints.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import sys
import tempfile
import time

import harness

sys.path[:0] = [harness.SRC, os.path.join(harness.ROOT, "tests")]
import formacheck as fc
from oracles import brute_model_dims


def oracle_dims(path: str, cap: int) -> tuple[list[int], list[int]]:
    """Model cohomology dims from the sympy oracle, and H's dims."""
    h = fc.parse_algebra(path)
    gens = fc.choose_generators(h)
    model = fc.build_model(h, gens, fc.good_objects(h, gens))
    return brute_model_dims(model, cap), [h.dim_in_degree(n) for n in range(cap + 1)]


def check_small(w: harness.Workload, root: str):
    for trace in (False, True):
        cwd = tempfile.mkdtemp(dir=root)
        result = harness.run_workload(w, 1, 0, trace, cwd)
        yield (result.failed == 0 and result.attempted >= harness.MIN_OPS,
               f"{w.name} small ({w.why}), trace={int(trace)}: "
               f"{result.failed}/{result.attempted} failed {result.errors[:1]}")
    cap = len(w.expected.rows) - 1
    model, target = oracle_dims(os.path.join(cwd, harness.INPUT), cap)
    expected_model, expected_target, _ = zip(*w.expected.rows)
    yield (model == list(expected_model) and target == list(expected_target),
           f"{w.name} small: closed form matches brute_model_dims {model}")

    wrong = dataclasses.replace(w, expected=dataclasses.replace(
        w.expected, rows=((2, 1, 1),) + w.expected.rows[1:]))
    result = harness.run_workload(wrong, 1, 0, False, tempfile.mkdtemp(dir=root))
    yield (result.attempted > 0 and result.failed == result.attempted,
           f"{w.name} small: a wrong expectation fails every op "
           f"({result.failed}/{result.attempted})")


def check_seeding(root: str):
    w = harness.SMALL["validate-dim27"]
    cwd = tempfile.mkdtemp(dir=root)
    harness.build_inputs(w, cwd, time.perf_counter() + harness.RUN_DEADLINE_S, False)
    obj = harness.read_json(os.path.join(cwd, w.steps[-1][0]))
    one = harness.rebase(obj, random.Random("x:1"))
    yield (one == harness.rebase(obj, random.Random("x:1"))
           and one != harness.rebase(obj, random.Random("x:2")),
           "rebase: same seed gives the same input, another seed another one")


def check_probe():
    probe = harness.SpeedProbe()
    nominal = harness.PROBE_NOMINAL_S
    # a probe at the nominal speed before the interval, then one at half and
    # one at full speed inside it: the mean speed inside is 3/4 of nominal
    probe.samples = [(0.0, nominal), (1.0, 1.0 + 2 * nominal), (2.0, 2.0 + nominal)]
    yield (math.isclose(probe.scale(0.5, 3.0), 0.75)
           and math.isclose(probe.scale(0.5, 0.9), 1.0),
           "speed probe: the scale is the mean speed inside the interval, "
           "or the last probe's before it")


def check_manifest():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    yield (sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS),
           "BENCHMARK.json workloads match the harness")
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        yield (listed == list(table), f"BENCHMARK.json {key} metrics match the harness")


def main() -> int:
    root = os.path.join(harness.HERE, ".work")
    os.makedirs(root, exist_ok=True)
    root = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        checks = [check_manifest(), check_seeding(root), check_probe()]
        checks += [check_small(w, root) for w in harness.SMALL.values()]
        failures = 0
        for check in checks:
            for ok, what in check:
                failures += not ok
                print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
