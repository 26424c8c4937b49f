"""Closed-loop benchmark of `formacheck check` on seeded inputs.

One client: every timed `check` runs in a fresh child process, started only
after the previous one has exited.  A fresh child per op matters because
`differential_matrix` and `_monomials_cached` are module-level caches that
would turn a repeated in-process check into cache hits.  Each child's CPU
time and peak RSS come from `os.wait4` on that child alone
(`RUSAGE_CHILDREN` keeps the maximum over every child so far).

Inputs are built by `formacheck corpus` children and then put through a
change of basis drawn from the seed, which keeps every rank and verdict, so
each op is checked against a closed-form answer.

The speed of a CPU on a shared host changes from second to second and from
minute to minute, by up to a factor of two, with what other tenants run.
So the benchmark and its children are pinned to one CPU, a thread of the
benchmark times a small fixed reference loop on that CPU every PROBE_GAP_S,
and each child's times are scaled to a nominal speed: multiplied by the
mean of PROBE_NOMINAL_S / t over the probes t taken while it ran.  The work
done in an interval is its length times the mean speed over it, so this is
the time the child would take at the speed where one probe takes
PROBE_NOMINAL_S.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.abspath(tracer.__file__)
CLI = "from formacheck.cli import entrypoint; entrypoint()"
INPUT = "input.json"
CERT = "cert.json"
SPANS = "spans.json"

SETUP_REPEATS = 7
MIN_OPS = 3
RUN_DEADLINE_S = 150.0  # children still running this long after the start are killed
PROBE_GAP_S = 0.05  # the speed probe runs the reference loop this often
PROBE_NOMINAL_S = 0.001  # time of one reference loop at the nominal speed

# (name, unit, better) as listed in BENCHMARK.json
END_TO_END = (
    ("check_s", "s", "lower"),
    ("check_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
CORPUS_SPANS = tuple(name for _, _, name in tracer.SPANNED if name.startswith("corpus."))
CHECK_SPANS = tuple(name for _, _, name in tracer.SPANNED if name not in CORPUS_SPANS)
PER_LAYER = tuple((f"{name}_s", "s", "lower") for name in CHECK_SPANS) + (
    ("algebra.validate_calls", "count", "lower"),
    ("algebra.mul_calls", "count", "lower"),
    ("model.good_objects", "count", "lower"),
    ("model.basis_max", "count", "lower"),
    ("model.basis_total", "count", "lower"),
    ("model.differential_cache_hit_ratio", "ratio", "higher"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.cells_eliminated", "count", "lower"),
    ("linalg.max_matrix_cells", "count", "lower"),
    ("cohomology.degree_s_max", "s", "lower"),
    ("formats.input_bytes", "bytes", "lower"),
    ("cli.certificate_bytes", "bytes", "lower"),
    ("corpus.build_s", "s", "lower"),
    ("corpus.validate_s", "s", "lower"),
    ("corpus.validate_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


# ---------------------------------------------------------------- answers

@dataclass(frozen=True)
class Expected:
    exit_code: int
    rows: tuple[tuple[int, int, int], ...]  # degree 0..cap: model dim, target dim, rank
    first_failure: Optional[int]


def poly_power(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = [sum(out[i] * p[n - i] for i in range(len(out)) if 0 <= n - i < len(p))
               for n in range(len(out) + len(p) - 1)]
    return out


def formal(poincare: list[int], cap: int) -> Expected:
    """A formal product: model cohomology, H and the induced map all have the
    Poincare coefficients as dimensions, and every degree is bijective."""
    coeff = [poincare[n] if n < len(poincare) else 0 for n in range(cap + 1)]
    return Expected(0, tuple((c, c, c) for c in coeff), None)


def sphere_wedge(k: int) -> Expected:
    """Wedge of k copies of S^2 at its default cap 5: the model has
    H^5 = k*C(k+1,2) - C(k+2,3) classes (x_i * w_jk over the cubes they
    hit) where H is zero, so degree 5 fails and the exit code is 4."""
    model = {0: 1, 2: k, 5: k * comb(k + 1, 2) - comb(k + 2, 3)}
    target = {0: 1, 2: k}
    rows = tuple((model.get(n, 0), target.get(n, 0), target.get(n, 0)) for n in range(6))
    return Expected(4, rows, 5)


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[tuple[str, tuple[str, ...]], ...]  # corpus arguments -> output file
    cap: Optional[int]  # None: the default cap, 2 * top degree + 1
    expected: Expected


S2 = ("s2.json", ("even_sphere", "2"))
CP2 = ("cp2.json", ("truncated_poly", "2", "3"))

WORKLOADS = {w.name: w for w in (
    Workload("sphere-product",
             "(S^2)^4 at cap 13: model and exact linear algebra dominate "
             "(dense Fraction matrices up to 334x264); validation is small",
             (S2, ("s2x2.json", ("product", "s2.json", "s2.json")),
              ("s2x4.json", ("product", "s2x2.json", "s2x2.json"))),
             13, formal(poly_power([1, 0, 1], 4), 13)),
    Workload("validate-dim27",
             "(CP^2)^3 (dim 27) at cap 12: the O(dim^3) validator runs twice per "
             "check and dominates; the model layer is negligible",
             (CP2, ("cp2x2.json", ("product", "cp2.json", "cp2.json")),
              ("cp2x3.json", ("product", "cp2x2.json", "cp2.json"))),
             12, formal(poly_power([1, 0, 1, 0, 1], 3), 12)),
    Workload("sphere-wedge",
             "wedge of 8 S^2 at the default cap: 36 odd generators and an "
             "exterior-heavy basis; the check ends in a degree-5 discrepancy",
             (S2, ("w2.json", ("wedge", "s2.json", "s2.json")),
              ("w4.json", ("wedge", "w2.json", "w2.json")),
              ("w8.json", ("wedge", "w4.json", "w4.json"))),
             None, sphere_wedge(8)),
)}

# Small versions of each workload, for the self-test.
SMALL = {w.name: w for w in (
    Workload("sphere-product", "(S^2)^2",
             (S2, ("s2x2.json", ("product", "s2.json", "s2.json"))),
             None, formal(poly_power([1, 0, 1], 2), 9)),
    Workload("validate-dim27", "CP^2 x S^2",
             (S2, CP2, ("cp2s2.json", ("product", "cp2.json", "s2.json"))),
             None, formal([1, 0, 2, 0, 2, 0, 1], 13)),
    Workload("sphere-wedge", "wedge of 2 S^2",
             (S2, ("w2.json", ("wedge", "s2.json", "s2.json"))),
             None, sphere_wedge(2)),
)}


# ------------------------------------------------------------ seeded input

SCALES = tuple(s * Fraction(p, q) for p, q in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3),
                                               (3, 2), (2, 3)) for s in (1, -1))


def rebase(obj: dict, rng: random.Random) -> dict:
    """Seeded change of basis that keeps every rank and verdict.

    Permutes the basis within each degree, scales each non-unit basis
    element e_i to c_i e_i (so m_ijk becomes c_i c_j m_ijk / c_k), and
    shuffles the product list.
    """
    basis = obj["basis"]
    positions: dict[int, list[int]] = {}
    for pos, b in enumerate(basis):
        positions.setdefault(b["degree"], []).append(pos)
    order = list(basis)
    for slots in positions.values():
        for slot, src in zip(slots, rng.sample(slots, len(slots))):
            order[slot] = basis[src]
    where = {b["label"]: i for i, b in enumerate(order)}
    degree = {b["label"]: b["degree"] for b in basis}
    scale = {b["label"]: Fraction(1) if b["label"] == obj["unit"] else rng.choice(SCALES)
             for b in basis}
    products = []
    for p in obj["products"]:
        left, right = p["left"], p["right"]
        sign = 1
        if where[left] > where[right]:
            left, right = right, left
            sign = -1 if degree[left] % 2 and degree[right] % 2 else 1
        factor = sign * scale[left] * scale[right]
        value = [{"label": t["label"],
                  "coeff": str(factor * Fraction(t["coeff"]) / scale[t["label"]])}
                 for t in p["value"]]
        products.append({"left": left, "right": right, "value": value})
    rng.shuffle(products)
    return {"name": obj["name"], "basis": order, "unit": obj["unit"], "products": products}


# ------------------------------------------------------------ CPU speed

def reference_loop() -> int:
    """Fixed work like formacheck's own: Gauss-Jordan elimination of a 6x6
    matrix of Fractions, about a millisecond.  Returns its rank, 6."""
    n = 6
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)]
            for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the speed probe
    and the children it scales share that CPU's speed."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Times the reference loop every PROBE_GAP_S on a thread of its own,
    while the main thread waits for a child."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            reference_loop()
            self.samples.append((start, time.perf_counter()))
            if self._stop.wait(PROBE_GAP_S):
                return

    def times(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def scale(self, start: float, end: float) -> float:
        """The factor that takes a time spent in [start, end] to the nominal
        speed: the mean of PROBE_NOMINAL_S / t over the probes inside the
        interval, or over the last one before it if none fits inside."""
        inside = [e - s for s, e in self.samples if start <= s and e <= end]
        times = inside or [e - s for s, e in self.samples if e <= end][-1:]
        if not times:
            raise BenchError("the speed probe has not run")
        return statistics.mean(PROBE_NOMINAL_S / t for t in times)


# --------------------------------------------------------------- children

@dataclass(frozen=True)
class Child:
    code: int  # negative: killed by that signal
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(args: list[str], cwd: str, deadline: float) -> Child:
    """Run `python3 <args>` and wait for it; killed at `deadline`."""
    env = {k: v for k, v in os.environ.items() if k != "FORMACHECK_THREADS"}
    env["PYTHONPATH"] = SRC
    with open(os.path.join(cwd, "child.err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_error(cwd: str) -> str:
    with open(os.path.join(cwd, "child.err"), encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def formacheck_args(command: list[str], traced: bool, op: int) -> list[str]:
    if traced:
        return [TRACER, SPANS, str(op), "--", *command]
    return ["-c", CLI, *command]


def build_inputs(w: Workload, cwd: str, deadline: float, traced: bool):
    """Run the corpus children; returns (wall seconds, trace records)."""
    records = []
    start = time.perf_counter()
    for out, args in w.steps:
        child = run_child(formacheck_args(["corpus", *args, "-o", out], traced, len(records)),
                          cwd, deadline)
        if child.code != 0:
            raise BenchError(f"corpus {' '.join(args)} exited with {child.code}: "
                             f"{child_error(cwd)}")
        if traced:
            records.append(read_json(os.path.join(cwd, SPANS)))
    return time.perf_counter() - start, records


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------------ checks

def check_certificate(code: int, cwd: str, expected: Expected):
    """(error or None, certificate digest without `generated_at`, certificate)."""
    if code != expected.exit_code:
        return f"exit code {code}, expected {expected.exit_code}: {child_error(cwd)}", None, None
    try:
        cert = read_json(os.path.join(cwd, CERT))
    except (OSError, ValueError) as exc:
        return f"unreadable certificate: {exc}", None, None
    cert.pop("generated_at", None)
    digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
    try:
        quasi = cert["quasi_isomorphism"]
        table = [(d["degree"], d["model_cohomology_dim"], d["target_dim"], d["induced_map_rank"])
                 for d in quasi["degrees"]]
        first_failure = quasi["first_failure"]
    except (KeyError, TypeError) as exc:
        return f"malformed certificate: {exc!r}", digest, cert
    expected_table = [(n, *row) for n, row in enumerate(expected.rows)]
    if table != expected_table:
        return f"degree table {table}, expected {expected_table}", digest, cert
    if first_failure != expected.first_failure:
        return f"first failure {first_failure}, expected {expected.first_failure}", digest, cert
    if cert.get("exit_code") != expected.exit_code:
        return f"certificate exit code {cert.get('exit_code')}", digest, cert
    return None, digest, cert


# ------------------------------------------------------------------ traces

def self_times(spans: list) -> tuple[Counter, Counter]:
    """Self time and call count per span name; a span's self time excludes
    the time covered by its child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        seconds[name] += (end - start) - covered[i]
        calls[name] += 1
    return seconds, calls


def op_layers(record: dict, cert: dict, cwd: str) -> dict[str, float]:
    seconds, calls = self_times(record["spans"])
    hits, misses = record["differential_cache"]
    basis = [size for _, size in record["basis"]]
    out = {f"{name}_s": seconds[name] for name in CHECK_SPANS}
    out.update({
        "algebra.validate_calls": calls["algebra.validate"],
        "algebra.mul_calls": record["mul_calls"],
        "model.good_objects": len(cert.get("good_objects") or ()),
        "model.basis_max": max(basis, default=0),
        "model.basis_total": sum(basis),
        "model.differential_cache_hit_ratio": hits / max(hits + misses, 1),
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.cells_eliminated": record["cells_eliminated"],
        "linalg.max_matrix_cells": record["max_matrix_cells"],
        "cohomology.degree_s_max": max((end - start for name, start, end, _, _
                                        in record["spans"]
                                        if name == "cohomology.induced_map"), default=0.0),
        "formats.input_bytes": os.path.getsize(os.path.join(cwd, INPUT)),
        "cli.certificate_bytes": os.path.getsize(os.path.join(cwd, CERT)),
    })
    return out


def corpus_layers(records: list[dict]) -> dict[str, float]:
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for record in records:
        s, c = self_times(record["spans"])
        seconds.update(s)
        calls.update(c)
    return {
        "corpus.build_s": sum(seconds[name] for name in CORPUS_SPANS),
        "corpus.validate_s": seconds["algebra.validate"],
        "corpus.validate_calls": calls["algebra.validate"],
    }


# -------------------------------------------------------------------- run

@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    walls: list[float]  # untraced op wall times as measured, in run order
    scaled_walls: list[float]  # the same, scaled to the nominal speed
    traced_walls: list[float]  # scaled
    setups: list[float]  # scaled
    probes: list[float]  # speed probe times, in run order
    errors: list[str]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, cwd: str) -> Result:
    """Build the inputs, then run `check` ops in a closed loop for `seconds`.

    Untraced, the set-up is repeated SETUP_REPEATS times, spread over the
    run.  Traced, it runs once through the tracer, and every second op is
    traced.  Every op and set-up is scaled to the nominal speed.
    """
    pin_to_one_cpu()
    with SpeedProbe() as probe:
        return run_probed(w, seed, seconds, trace, cwd, probe)


def run_probed(w: Workload, seed: int, seconds: float, trace: bool, cwd: str,
               probe: SpeedProbe) -> Result:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups: list[float] = []
    digests = set()

    def set_up():
        start = time.perf_counter()
        wall, records = build_inputs(w, cwd, deadline, trace)
        scale = probe.scale(start, time.perf_counter())
        setups.append(wall * scale)
        digests.add(file_digest(os.path.join(cwd, w.steps[-1][0])))
        return records, scale

    records, setup_scale = set_up()
    rng = random.Random(f"{w.name}:{seed}")
    with open(os.path.join(cwd, INPUT), "w", encoding="utf-8") as fh:
        json.dump(rebase(read_json(os.path.join(cwd, w.steps[-1][0])), rng), fh, indent=2)

    command = ["check", INPUT, "--report", CERT]
    if w.cap is not None:
        command += ["--cap", str(w.cap)]
    untraced: list[tuple[Child, float]] = []  # (child, scale)
    traced: list[tuple[Child, float]] = []
    layers: list[dict] = []
    errors: list[str] = []
    reference = None
    start = time.perf_counter()
    op = 0
    while (len(untraced) < MIN_OPS or (trace and len(traced) < MIN_OPS)
           or time.perf_counter() - start < seconds):
        if time.perf_counter() >= deadline:
            break
        is_traced = trace and op % 2 == 1
        for name in (CERT, SPANS):
            if os.path.exists(os.path.join(cwd, name)):
                os.remove(os.path.join(cwd, name))
        op_start = time.perf_counter()
        child = run_child(formacheck_args(command, is_traced, op), cwd, deadline)
        scale = probe.scale(op_start, time.perf_counter())
        (traced if is_traced else untraced).append((child, scale))
        error, digest, cert = check_certificate(child.code, cwd, w.expected)
        if error is None and reference is not None and digest != reference:
            error = "certificate differs from the first op's"
        reference = reference or digest
        if error is None and is_traced:
            layers.append(scaled(op_layers(read_json(os.path.join(cwd, SPANS)), cert, cwd),
                                 scale))
        if error is not None:
            errors.append(f"op {op}: {error}")
        op += 1
        # Host contention comes and goes over seconds, so the set-up repeats
        # are spread over the run rather than taken back to back.
        if (not trace and len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            set_up()
    while not trace and len(setups) < SETUP_REPEATS:
        set_up()
    if len(digests) != 1:
        raise BenchError("corpus output differs between set-up repeats")
    if not untraced:
        raise BenchError(f"no op finished within {RUN_DEADLINE_S:.0f} s")

    median = statistics.median
    if trace:
        values = {name: median(m[name] for m in layers) for name in layers[0]} if layers else {}
        values.update(scaled(corpus_layers(records), setup_scale))
        values["trace.overhead_ratio"] = (median(c.wall_s * k for c, k in traced)
                                          / median(c.wall_s * k for c, k in untraced))
        metrics = {name: (values.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "check_s": (median(c.wall_s * k for c, k in untraced), "s"),
            "check_cpu_s": (median(c.cpu_s * k for c, k in untraced), "s"),
            "peak_rss_mb": (median(c.rss_mb for c, _ in untraced), "MB"),
            "setup_s": (median(setups), "s"),
        }
    return Result(op, len(errors), metrics, [c.wall_s for c, _ in untraced],
                  [c.wall_s * k for c, k in untraced], [c.wall_s * k for c, k in traced],
                  setups, probe.times(), errors)


SECONDS_METRICS = {name for name, unit, _ in PER_LAYER if unit == "s"}


def scaled(values: dict[str, float], scale: float) -> dict[str, float]:
    """Per-layer values with the times among them scaled to the nominal speed."""
    return {name: v * scale if name in SECONDS_METRICS else v for name, v in values.items()}
