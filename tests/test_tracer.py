"""The traced benchmark (`perfbench/tracer.py`) looks up functions in
`formacheck` by name; these tests fail as soon as a change under `src/`
removes or renames one of them, instead of only in the benchmark's own
self-test."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import formacheck as fc
from formacheck.corpus import truncated_poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_tracer().SPANNED)
def test_spanned_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"formacheck.{module}"), attr)), span


def test_differential_cache_info_exists():
    info = fc.model.differential_matrix.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_traced_check_runs(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(truncated_poly(2, 3)), encoding="utf-8")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, TRACER, str(spans), "0", "--", "check", str(path),
         "--report", str(tmp_path / "cert.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    names = {span[0] for span in record["spans"]}
    assert {"cli.certificate", "model.compute_E", "model.good_objects",
            "cohomology.verify"} <= names
    assert record["mul_calls"] > 0
