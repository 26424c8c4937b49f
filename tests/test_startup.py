"""What a `check` process loads: `import formacheck.cli` pulls in the
modules the check path runs and nothing else, and the certificate's
timestamp comes from `time`, not `datetime`.  No command loads argparse
(or the gettext it brings): `cli` reads the command line by hand."""

import datetime
import json
import os
import re
import subprocess
import sys

import formacheck as fc
from formacheck.cli import main
from formacheck.corpus import truncated_poly

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
