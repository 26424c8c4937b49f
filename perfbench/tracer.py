"""Run one formacheck CLI command in-process, with spans around each layer.

    python3 perfbench/tracer.py SPANS_OUT OP_ID -- <formacheck arguments>

The tracer wraps, from outside the program, the public functions that the
`check` and `corpus` paths call, in every module that binds them (`validate`
is bound in `formacheck.cli` and `formacheck.formats`, `rref` in `linalg`,
`cohomology` and `formality`).  A span records (name, start, end, parent
span index, op id); spans and counters stay in memory and are written to
SPANS_OUT as JSON after the command returns.  The process exits with the
command's exit code.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (module, function, span name); span names are the per-layer metric names
# without their `_s` suffix.
SPANNED = (
    ("cli", "run_check", "cli.certificate"),
    ("formats", "load_algebra_file", "formats.load"),
    ("algebra", "validate", "algebra.validate"),
    ("algebra", "choose_generators", "algebra.choose_generators"),
    ("model", "compute_E", "model.compute_E"),
    ("model", "good_objects", "model.good_objects"),
    ("model", "build_model", "model.build_model"),
    ("model", "monomials_of_degree", "model.monomials"),
    ("model", "differential_matrix", "model.differential"),
    ("model", "phi_tilde", "model.phi_tilde"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("cohomology", "verify_quasi_iso", "cohomology.verify"),
    ("cohomology", "cohomology_basis", "cohomology.basis"),
    ("cohomology", "induced_map", "cohomology.induced_map"),
    ("formality", "render_verdict", "formality.render_verdict"),
    ("corpus", "product", "corpus.product"),
    ("corpus", "wedge", "corpus.wedge"),
)


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.mul_calls = 0
        self.cells_eliminated = 0
        self.max_matrix_cells = 0
        self.basis: dict[int, int] = {}  # degree -> size of the monomial basis
        self.originals: dict[str, object] = {}

    def span(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op])
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid][1:3] = start, end
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def note_rref(self, args, _result):
        cells = args[0].rows * args[0].cols
        self.cells_eliminated += cells
        self.max_matrix_cells = max(self.max_matrix_cells, cells)

    def note_monomials(self, args, result):
        self.basis[args[1]] = len(result)

    def install(self):
        """Replace every binding of each spanned function inside formacheck."""
        importlib.import_module("formacheck.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "formacheck" or name.startswith("formacheck.")]
        notes = {"linalg.rref": self.note_rref, "model.monomials": self.note_monomials}
        for module, attr, name in SPANNED:
            original = getattr(importlib.import_module(f"formacheck.{module}"), attr)
            self.originals[name] = original
            wrapped = self.span(name, original, notes.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

        algebra = importlib.import_module("formacheck.algebra")
        mul = algebra.GradedAlgebra.mul

        def counted_mul(h, a, b):
            self.mul_calls += 1
            return mul(h, a, b)

        algebra.GradedAlgebra.mul = counted_mul


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT OP_ID -- <formacheck arguments>", file=sys.stderr)
        return 2
    out, op, command = argv[0], int(argv[1]), argv[3:]
    sys.path.insert(0, SRC)
    package = importlib.import_module("formacheck")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        print(f"formacheck was imported from {package.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = Tracer(op)
    tracer.install()
    code = importlib.import_module("formacheck.cli").main(command)
    info = tracer.originals["model.differential"].cache_info()
    record = {
        "op": op,
        "exit_code": code,
        "spans": tracer.spans,
        "mul_calls": tracer.mul_calls,
        "cells_eliminated": tracer.cells_eliminated,
        "max_matrix_cells": tracer.max_matrix_cells,
        "basis": sorted(tracer.basis.items()),
        "differential_cache": [info.hits, info.misses],
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
