"""What a `check` process loads: `import formacheck.cli` pulls in the
modules the check path runs and nothing else, and the certificate's
timestamp comes from `time`, not `datetime`."""

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


def test_cli_imports_only_the_check_path():
    code = ("import json, sys, formacheck.cli; print(json.dumps(sorted("
            "name for name in sys.modules if name.startswith('formacheck') or "
            "name in ('datetime', 'dataclasses', 'inspect'))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert json.loads(out) == CHECK_PATH


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
