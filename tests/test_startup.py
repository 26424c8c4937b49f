"""What a `check` process loads: `import formacheck.cli`, and a whole
`check` run, pull in the modules the check path runs and nothing else.
The degree-by-degree `reference` stays out of every command, `duality`
included, though the names of it that the tracer looks up still resolve
at their old addresses.  OpenSSL stays out too: `formats` takes its sha256 from
`_sha256` where Python has it, and from `hashlib` otherwise, with the same
digests.  The certificate's timestamp comes from `time`, not
`datetime`.  No command loads argparse (or the gettext it brings): `cli`
reads the command line by hand.  And how it ends: `cli.entrypoint` flushes
and leaves by `os._exit`, so no `atexit` hook runs, with `main`'s exit code
and all of its output."""

import datetime
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import formacheck as fc
import formacheck.reference as reference
from formacheck.cli import main
from formacheck.corpus import even_sphere, truncated_poly, wedge
from formacheck.formats import load_algebra_file

from test_tracer import load_tracer
from util import (cp2_power_3, dependent_family, s2_power_4, serialize_algebra,
                  sphere_wedge_8)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))

CHECK_PATH = ["formacheck", "formacheck.algebra", "formacheck.cli", "formacheck.cohomology",
              "formacheck.formality", "formacheck.formats", "formacheck.linalg",
              "formacheck.model"]
# stdlib modules no command needs
UNNEEDED = ("argparse", "dataclasses", "datetime", "gettext", "inspect")
# OpenSSL's modules, which no command needs where `_sha256` exists
OPENSSL = ("_hashlib", "hashlib")
LEAN_DIGEST = importlib.util.find_spec("_sha256") is not None


def loaded(code, watched=UNNEEDED):
    """The `formacheck` and `watched` modules loaded after running `code` in a fresh process."""
    code += ("; import json, sys; print(json.dumps(sorted(name for name in sys.modules "
             f"if name.startswith('formacheck') or name in {watched!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_imports_only_the_check_path():
    assert loaded("import formacheck.cli") == CHECK_PATH


# the three benchmark workloads' algebras, with their caps
WORKLOADS = {"sphere-product": (s2_power_4, 13), "validate-dim27": (cp2_power_3, 12),
             "sphere-wedge": (sphere_wedge_8, None)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_run_loads_only_the_check_path(tmp_path, workload):
    make, cap = WORKLOADS[workload]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(serialize_algebra(make())), encoding="utf-8")
    report = tmp_path / "cert.json"
    argv = ["check", str(path), "--report", str(report)]
    argv += ["--cap", str(cap)] if cap is not None else []
    names = loaded(f"from formacheck.cli import main; assert main({argv!r}) in (0, 4)",
                   UNNEEDED + OPENSSL)
    assert json.loads(report.read_text(encoding="utf-8"))["input_sha256"]
    assert [name for name in names if name.startswith("formacheck")] == CHECK_PATH
    assert not set(names) & set(UNNEEDED)
    if LEAN_DIGEST:
        assert not set(names) & set(OPENSSL)


def test_corpus_run_loads_no_unneeded_stdlib_module(tmp_path):
    out = str(tmp_path / "s2.json")
    names = loaded(f"from formacheck.cli import main; main(['corpus', 'even_sphere', '2', "
                   f"'-o', {out!r}])", UNNEEDED + OPENSSL)
    assert "formacheck.corpus" in names
    assert not set(names) & set(UNNEEDED)
    if LEAN_DIGEST:
        assert not set(names) & set(OPENSSL)


def test_duality_run_loads_no_reference(tmp_path):
    # a three-term complex, so that the square of its boundary is formed too
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dims": [1, 2, 1], "boundaries": [[["1", "-1"]], [["1"], ["1"]]]}),
                    encoding="utf-8")
    names = loaded(f"from formacheck.cli import main; assert main(['duality', {str(path)!r}]) == 0",
                   UNNEEDED + OPENSSL)
    assert "formacheck.duality" in names
    assert "formacheck.reference" not in names
    assert not set(names) & set(UNNEEDED)
    if LEAN_DIGEST:
        assert not set(names) & set(OPENSSL)


# the public names that moved to `reference`, by the module they used to be in
MOVED = {
    "formacheck": ("MatQ", "RowSpace", "cohomology_basis", "differential_matrix",
                   "induced_map", "kernel_basis", "monomials_of_degree", "phi_tilde", "rref"),
    "formacheck.linalg": ("MatQ", "RowSpace", "RrefResult", "as_vec", "kernel_basis", "rref",
                          "unit_vec", "vec_is_zero", "zero_vec"),
    "formacheck.model": ("blocks_of_degree", "differential_matrix", "differentiate",
                         "monomials_of_degree", "multidegree", "phi_tilde"),
    "formacheck.cohomology": ("cohomology_basis", "induced_map"),
}
# the public names defined in `reference`
DEFINED = sorted(name for name, value in vars(reference).items()
                 if not name.startswith("_")
                 and getattr(value, "__module__", None) == reference.__name__)
OLD_HOMES = tuple(MOVED)
# the old addresses of those names that `perfbench/tracer.py` looks up
TRACED = sorted((f"formacheck.{module}", name) for module, name, _ in load_tracer().SPANNED
                if name in DEFINED)


def test_every_public_name_of_the_reference_has_an_old_address():
    assert set(DEFINED) == {name for names in MOVED.values() for name in names}
    assert {name for _, name in TRACED} <= set(DEFINED)
    assert all(name in MOVED[module] for module, name in TRACED)


def test_reference_names_resolve_only_at_the_tracers_old_addresses():
    for module in OLD_HOMES:
        old = importlib.import_module(module)
        assert [name for name in DEFINED if hasattr(old, name)] == \
            [name for home, name in TRACED if home == module]


@pytest.mark.parametrize("module, name", [(module, name) for module, names in MOVED.items()
                                          for name in names])
def test_moved_name_resolves_at_its_old_address(module, name):
    """An old address the tracer looks up still gives the `reference` object,
    by attribute and by `from`-import; any other is gone, and fails as an
    unknown name does, while the name itself lives on in `reference`."""
    old = importlib.import_module(module)
    assert callable(getattr(reference, name))
    if (module, name) in TRACED:
        assert getattr(old, name) is getattr(reference, name)
        namespace = {}
        exec(f"from {module} import {name}", namespace)
        assert namespace[name] is getattr(reference, name)
    else:
        with pytest.raises(AttributeError, match=re.escape(f"module {module!r} has no attribute")):
            getattr(old, name)
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module", OLD_HOMES)
def test_unknown_name_still_raises(module):
    old = importlib.import_module(module)
    for name in ("no_such_name", "_merge_even", "_monomials_cached", "_coerce"):
        with pytest.raises(AttributeError, match=re.escape(f"module {module!r} has no attribute")):
            getattr(old, name)
        assert not hasattr(old, name)
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def digests(paths, fallback):
    """`formats`' digest of each file's `input_sha256` and of DIGEST_LENGTHS
    byte strings, in a fresh process; `fallback` hides `_sha256` first."""
    code = (inspect.getsource(sample) + "import json, sys\n"
            + ("sys.modules['_sha256'] = None\n" if fallback else "")
            + "from formacheck import formats\n"
            f"files = [formats.load_algebra_file(p)[3] for p in {paths!r}]\n"
            f"lengths = [formats.sha256(sample(n)).hexdigest() for n in {DIGEST_LENGTHS!r}]\n"
            "print(json.dumps([formats.sha256.__module__, files, lengths]))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return json.loads(out)


# around sha256's 64-byte block and 56-byte padding limit, and one of 1 MiB
DIGEST_LENGTHS = (0, 55, 56, 64, 65, 2 ** 20)


def sample(n):
    """n bytes of a fixed pattern."""
    return bytes((7 * i + 3) % 256 for i in range(n))


def test_digest_fallback_matches_hashlib(tmp_path):
    paths = []
    for workload, (make, _) in WORKLOADS.items():
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(serialize_algebra(make())), encoding="utf-8")
        paths.append(str(path))
    expected_files = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths]
    expected_lengths = [hashlib.sha256(sample(n)).hexdigest() for n in DIGEST_LENGTHS]
    assert [load_algebra_file(p)[3] for p in paths] == expected_files
    module, files, lengths = digests(paths, fallback=True)
    assert module == hashlib.sha256.__module__
    assert (files, lengths) == (expected_files, expected_lengths)
    module, files, lengths = digests(paths, fallback=False)
    assert module == ("_sha256" if LEAN_DIGEST else hashlib.sha256.__module__)
    assert (files, lengths) == (expected_files, expected_lengths)


def test_generated_at_is_the_utc_time_of_the_run(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(truncated_poly(2, 3)), encoding="utf-8")
    report = tmp_path / "cert.json"
    before = datetime.datetime.now(datetime.timezone.utc)
    assert main(["check", str(path), "--report", str(report)]) == 0
    after = datetime.datetime.now(datetime.timezone.utc)
    stamp = json.loads(report.read_text(encoding="utf-8"))["generated_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp)
    when = datetime.datetime.fromisoformat(stamp)
    assert when.utcoffset() == datetime.timedelta(0)
    assert before <= when <= after


# an input of each check exit code: even sphere, a missing file, the
# dependent table, an odd class and the S^2 wedge, as in tests/test_cli.py
EXIT_INPUTS = {
    0: even_sphere(2),
    1: None,
    2: serialize_algebra(dependent_family(), name="dependent"),
    3: {"name": "odd", "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}],
        "unit": "1", "products": []},
    4: wedge(even_sphere(2), even_sphere(2)),
}


def run_entrypoint(argv, prelude="", env=None):
    """`prelude`, then `cli.entrypoint()` on `argv`, in a fresh process."""
    code = prelude + "\nfrom formacheck.cli import entrypoint\nentrypoint()"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          env=env or dict(os.environ, PYTHONPATH=SRC), timeout=120)


def test_entrypoint_skips_atexit_and_keeps_the_exit_code(tmp_path):
    hook = "import atexit\natexit.register(print, 'atexit hook ran')"
    for expected, obj in EXIT_INPUTS.items():
        path = tmp_path / f"in{expected}.json"
        if obj is not None:
            path.write_text(json.dumps(obj), encoding="utf-8")
        argv = ["check", str(path), "--report", str(tmp_path / f"cert{expected}.json")]
        assert main(argv) == expected
        run = run_entrypoint(argv, hook)
        assert run.returncode == expected, run.stderr
        assert b"atexit hook ran" not in run.stdout + run.stderr


def test_buffered_certificate_is_written_whole(tmp_path):
    # with buffering on, a certificate far longer than the 8 KB stdout buffer
    path = tmp_path / "w8.json"
    path.write_text(json.dumps(serialize_algebra(sphere_wedge_8())), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    report = tmp_path / "cert.json"
    to_file = run_entrypoint(["check", str(path), "--report", str(report)], env=env)
    to_stdout = run_entrypoint(["check", str(path)], env=env)
    assert to_file.returncode == to_stdout.returncode == 4
    assert len(to_stdout.stdout) > 20000
    strip = lambda text: re.sub(rb'"generated_at": "[^"]*"', b"", text)
    assert strip(to_stdout.stdout) == strip(report.read_bytes())
