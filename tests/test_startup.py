"""What a `check` process loads: `import formacheck.cli` pulls in the
modules the check path runs and nothing else, and the certificate's
timestamp comes from `time`, not `datetime`.  No command loads argparse
(or the gettext it brings): `cli` reads the command line by hand.  And how
it ends: `cli.entrypoint` flushes and leaves by `os._exit`, so no `atexit`
hook runs, with `main`'s exit code and all of its output."""

import datetime
import json
import os
import re
import subprocess
import sys

import formacheck as fc
from formacheck.cli import main
from formacheck.corpus import even_sphere, truncated_poly, wedge

from util import dependent_family, serialize_algebra, sphere_wedge_8

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))

CHECK_PATH = ["formacheck", "formacheck.algebra", "formacheck.cli", "formacheck.cohomology",
              "formacheck.formality", "formacheck.formats", "formacheck.linalg",
              "formacheck.model"]
# stdlib modules no command needs
UNNEEDED = ("argparse", "dataclasses", "datetime", "gettext", "inspect")


def loaded(code):
    """The `formacheck` and UNNEEDED modules loaded after running `code` in a fresh process."""
    code += ("; import json, sys; print(json.dumps(sorted(name for name in sys.modules "
             f"if name.startswith('formacheck') or name in {UNNEEDED!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out)


def test_cli_imports_only_the_check_path():
    assert loaded("import formacheck.cli") == CHECK_PATH


def test_corpus_run_loads_no_unneeded_stdlib_module(tmp_path):
    out = str(tmp_path / "s2.json")
    names = loaded(f"from formacheck.cli import main; main(['corpus', 'even_sphere', '2', "
                   f"'-o', {out!r}])")
    assert "formacheck.corpus" in names
    assert not set(names) & set(UNNEEDED)


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
