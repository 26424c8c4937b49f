import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formacheck as fc
from formacheck.cli import USAGE, main, parse_command_line
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formats import InputError, load_algebra_file, parse_algebra_json

from util import algebra, corpus_objects, dependent_pair, serialize_algebra


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---- parsing ----

def test_parse_sphere_file(tmp_path):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    h, report, raw, digest = load_algebra_file(path)
    assert report.structure_ok
    assert h.top_degree == 2
    assert len(digest) == 64
    assert fc.parse_algebra(path) == h


def test_parse_rejects_zero_denominator(tmp_path):
    obj = even_sphere(2)
    obj["products"] = [{"left": "x", "right": "x",
                        "value": [{"label": "1", "coeff": "1/0"}]}]
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError, match="malformed rational"):
        load_algebra_file(path)


def test_parse_rejects_unknown_label(tmp_path):
    obj = even_sphere(2)
    obj["products"] = [{"left": "x", "right": "q", "value": []}]
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError, match=r"products\[0\]"):
        load_algebra_file(path)


def test_parse_rejects_duplicate_pair(tmp_path):
    obj = even_sphere(2)
    obj["products"] = [{"left": "x", "right": "x", "value": []},
                       {"left": "x", "right": "x", "value": []}]
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError, match="duplicate pair"):
        load_algebra_file(path)


def test_parse_rejects_missing_unit(tmp_path):
    obj = {"basis": [{"label": "x", "degree": 2}], "unit": "1", "products": []}
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError, match="missing unit"):
        load_algebra_file(path)


def test_parse_rejects_bad_degree_support(tmp_path):
    obj = {
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2},
                  {"label": "t", "degree": 6}],
        "unit": "1",
        "products": [{"left": "x", "right": "x",
                      "value": [{"label": "t", "coeff": "1"}]}],
    }
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError, match="graded multiplicativity|support in degree"):
        load_algebra_file(path)


def test_parse_rejects_float_coeff(tmp_path):
    obj = even_sphere(2)
    obj["products"] = [{"left": "x", "right": "x",
                        "value": [{"label": "1", "coeff": 0.5}]}]
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(InputError):
        load_algebra_file(path)


@pytest.mark.parametrize("value", [5, None])
def test_check_rejects_non_list_products(tmp_path, capsys, value):
    obj = even_sphere(2)
    obj["products"] = value
    path = write_json(tmp_path / "bad.json", obj)
    assert main(["check", path]) == 1
    assert "field 'products' must be a list" in capsys.readouterr().err


def test_roundtrip_identical_algebra():
    for obj in corpus_objects():
        h = parse_algebra_json(obj)
        again = parse_algebra_json(serialize_algebra(h, name="roundtrip"))
        assert again == h


def test_corpus_outputs_validate():
    for obj in corpus_objects():
        h = parse_algebra_json(obj)
        assert fc.validate(h).structure_ok


# ---- check subcommand ----

def test_check_sphere_exit_zero(tmp_path, capsys):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    report = tmp_path / "cert.json"
    assert main(["check", path, "--report", str(report)]) == 0
    cert = json.loads(report.read_text())
    assert cert["verdict"]["classification"] == "FORMAL_BY_THEOREM"
    assert cert["model"]["odd_generators"][0]["degree"] == 3
    assert cert["exit_code"] == 0


def test_check_cp2_with_cap(tmp_path):
    path = write_json(tmp_path / "cp2.json", truncated_poly(2, 3))
    report = tmp_path / "cert.json"
    assert main(["check", path, "--cap", "12", "--report", str(report)]) == 0
    cert = json.loads(report.read_text())
    assert cert["cap"] == 12
    assert len(cert["quasi_isomorphism"]["degrees"]) == 13


def test_check_wedge_exit_discrepancy(tmp_path):
    path = write_json(tmp_path / "w.json",
                      wedge(even_sphere(2), even_sphere(2)))
    assert main(["check", path, "--report", str(tmp_path / "c.json")]) == 4


def test_check_inconclusive_exit(tmp_path):
    obj = {
        "name": "dependent",
        "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 2},
                  {"label": "b", "degree": 2}, {"label": "c", "degree": 4}],
        "unit": "1",
        "products": [
            {"left": "a", "right": "a", "value": [{"label": "c", "coeff": "1"}]},
            {"left": "b", "right": "b", "value": [{"label": "c", "coeff": "1"}]},
        ],
    }
    path = write_json(tmp_path / "dep.json", obj)
    assert main(["check", path, "--report", str(tmp_path / "c.json")]) == 2


def test_check_hypothesis_violated_exit(tmp_path):
    obj = {
        "name": "odd",
        "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}],
        "unit": "1",
        "products": [],
    }
    path = write_json(tmp_path / "odd.json", obj)
    report = tmp_path / "c.json"
    assert main(["check", path, "--report", str(report)]) == 3
    cert = json.loads(report.read_text())
    assert cert["model"] is None
    assert cert["verdict"]["classification"] == "HYPOTHESIS_VIOLATED"
    assert cert["generators"]  # the odd generator is still listed


# inputs the decoder or int() cannot take: each must exit 1 with a message
LONG_RATIONAL = "1/" + "1" * 5000
LONG_INTEGER = "1" * 5000
DEEP_NESTING = "[" * 100000 + "]" * 100000


def test_check_input_error_exit(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["check", str(path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 1

    obj = even_sphere(2)
    obj["products"] = [{"left": "x", "right": "x",
                        "value": [{"label": "1", "coeff": LONG_RATIONAL}]}]
    texts = [json.dumps(obj)]
    for value in (LONG_INTEGER, DEEP_NESTING):
        texts.append(json.dumps(even_sphere(2))[:-1] + ', "extra": ' + value + "}")
    capsys.readouterr()
    for text in texts:
        bad.write_text(text, encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_check_cap_below_top_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "cp2.json", truncated_poly(2, 3))
    assert main(["check", path, "--cap", "2"]) == 1
    assert capsys.readouterr().err == "error: cap 2 is below the top degree 4\n"


def test_check_result_too_long_to_print(tmp_path, capsys):
    # valid input whose E-family entry x^3 = c^2 z has 7999 digits
    c = "1" + "0" * 3999
    obj = {"name": "big", "unit": "1",
           "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2},
                     {"label": "y", "degree": 4}, {"label": "z", "degree": 6}],
           "products": [{"left": "x", "right": "x", "value": [{"label": "y", "coeff": c}]},
                        {"left": "x", "right": "y", "value": [{"label": "z", "coeff": c}]}]}
    path = write_json(tmp_path / "big.json", obj)
    report = tmp_path / "cert.json"
    capsys.readouterr()
    assert main(["check", path, "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith("error: a rational in the result has 7999 digits")
    assert not report.exists()


def test_unwritable_output_path_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    missing = str(tmp_path / "missing" / "out.json")
    report = tmp_path / "c.json"
    commands = [["check", path, "--report", missing],
                ["check", path, "--report", str(report), "--emit-model", str(tmp_path)],
                ["check", path, "--emit-model", str(tmp_path)],
                ["corpus", "even_sphere", "2", "-o", missing]]
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        # a failed run leaves no certificate, neither at --report nor on stdout
        assert out == ""
    assert not report.exists()


def test_check_deterministic_modulo_timestamp(tmp_path):
    path = write_json(tmp_path / "cp3.json", truncated_poly(2, 4))
    r1, r2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["check", path, "--report", str(r1)]) == 0
    assert main(["check", path, "--report", str(r2)]) == 0
    strip = lambda text: re.sub(r'"generated_at": "[^"]*"', '"generated_at": "T"', text)
    assert strip(r1.read_text()) == strip(r2.read_text())


def test_check_emit_model(tmp_path):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    model_path = tmp_path / "model.json"
    assert main(["check", path, "--report", str(tmp_path / "c.json"),
                 "--emit-model", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert model["even_generators"] == [{"label": "v1", "degree": 2}]
    w = model["odd_generators"][0]
    assert w["degree"] == 3
    assert w["differential"]["monomial"]["text"] == "v1^2"
    assert w["differential"]["coefficient"] == "1"


def test_check_stdout_certificate(tmp_path, capsys):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    cert = json.loads(out)
    assert cert["input_sha256"]


def test_python_dash_m(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    path = write_json(tmp_path / "s2.json", even_sphere(2))

    def run(module, *args):
        return subprocess.run([sys.executable, "-m", module, "check", *args], env=env,
                              capture_output=True, timeout=120).returncode

    for module in ("formacheck", "formacheck.cli"):
        report = tmp_path / f"{module}.json"
        assert run(module, path, "--report", str(report)) == 0
        assert json.loads(report.read_text())["exit_code"] == 0
        assert run(module, str(tmp_path / "missing.json")) == 1


def test_every_export_resolves():
    # a stale name in __all__ breaks `from formacheck import *`
    assert [name for name in fc.__all__ if not hasattr(fc, name)] == []
    namespace = {}
    exec("from formacheck import *", namespace)
    assert set(fc.__all__) <= set(namespace)


# (exit code, sha256 of the certificate bytes without the generated_at line):
# certificates are fixed byte for byte, so a faster path must not move these
GOLDEN_CERTIFICATES = {
    "S2": (0, "c26aff772ab9b57de1d73ec50f3c073cf7563daac96f7f0e0daef79379603c07"),
    "CP2": (0, "ece466a73fa5f94c6a57c66e800ac315e9b0fc3e14135a349c076fa97c00cd3e"),
    "S2xS2": (0, "1c931b55e0f92101174ceeb77be7f2bdc05ee224c3968f67dd7d3b9384db07cc"),
    "CP2xS2": (0, "3ed2db51a577eb340bc2d9edcfc7e23f2d0c68097c6823261711d5e4e87098a2"),
    "S2vS2": (4, "dc9ac219b1599274d2a85468a74097d4930c2639972148ee952beaf7e80a57aa"),
    "S2xS2xS2": (0, "21769630682cb0fd78681bd5d1c144f05c6253add6a89d0456d9dc1dddcc38c4"),
    # products span the plane c + d, f of H^4, so the greedy rule picks c, not d
    "dependent_pair": (2, "3e610ad6df825e923bec9e877d7888603b464b5216661b507e400021d8a28705"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFICATES))
def test_certificate_golden_digest(tmp_path, name):
    s2, cp2 = even_sphere(2), truncated_poly(2, 3)
    obj = {"S2": s2, "CP2": cp2, "S2xS2": product(s2, s2), "CP2xS2": product(cp2, s2),
           "S2vS2": wedge(s2, s2), "S2xS2xS2": product(product(s2, s2), s2),
           "dependent_pair": serialize_algebra(dependent_pair(), name="dependent_pair")}[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report = tmp_path / "cert.json"
    code = main(["check", str(path), "--report", str(report)])
    text = re.sub(rb'\n *"generated_at": "[^"]*",', b"", report.read_bytes())
    assert (code, hashlib.sha256(text).hexdigest()) == GOLDEN_CERTIFICATES[name]


# ---- command line ----

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv -> (command, arguments, options) as parse_command_line reads it
S2_OUT = ("corpus", ["even_sphere", "2"], {"output": "s.json"})
PARSED = [
    # README's CLI section
    ("corpus even_sphere 2 -o s2.json", ("corpus", ["even_sphere", "2"], {"output": "s2.json"})),
    ("corpus truncated_poly 2 3 -o cp2.json",
     ("corpus", ["truncated_poly", "2", "3"], {"output": "cp2.json"})),
    ("corpus wedge s2.json s2.json -o wedge.json",
     ("corpus", ["wedge", "s2.json", "s2.json"], {"output": "wedge.json"})),
    ("corpus product s2.json cp2.json -o prod.json",
     ("corpus", ["product", "s2.json", "cp2.json"], {"output": "prod.json"})),
    ("check cp2.json --cap 12 --report cp2.cert.json",
     ("check", ["cp2.json"], {"cap": 12, "report": "cp2.cert.json"})),
    ("check wedge.json --emit-model model.json",
     ("check", ["wedge.json"], {"emit_model": "model.json"})),
    ("duality complex.json", ("duality", ["complex.json"], {})),
    # --name=value, and -o with its value attached
    ("check a.json --cap=7 --report=r.json --emit-model=m.json",
     ("check", ["a.json"], {"cap": 7, "report": "r.json", "emit_model": "m.json"})),
    ("corpus even_sphere 2 --output=s.json", S2_OUT),
    ("corpus even_sphere 2 -os.json", S2_OUT),
    ("corpus even_sphere 2 -o=s.json", S2_OUT),
    # options before the arguments, or between them
    ("check --cap 7 --report r.json a.json",
     ("check", ["a.json"], {"cap": 7, "report": "r.json"})),
    ("corpus -o s.json even_sphere 2", S2_OUT),
    ("corpus even_sphere -o s.json 2", S2_OUT),
    ("corpus product -o p.json a.json b.json",
     ("corpus", ["product", "a.json", "b.json"], {"output": "p.json"})),
    # unique prefixes of long names
    ("check a.json --rep r.json --em m.json --c 5",
     ("check", ["a.json"], {"report": "r.json", "emit_model": "m.json", "cap": 5})),
    ("corpus even_sphere 2 --out s.json", S2_OUT),
    # -- ends the options
    ("check -- -x.json", ("check", ["-x.json"], {})),
    ("check --cap 5 -- -x.json", ("check", ["-x.json"], {"cap": 5})),
    ("duality -- --help", ("duality", ["--help"], {})),
    # an option's value may start with -, and -2 or - is an argument
    ("check a.json --cap -1", ("check", ["a.json"], {"cap": -1})),
    ("check a.json --report -r.json", ("check", ["a.json"], {"report": "-r.json"})),
    ("corpus even_sphere -2 -o s.json", ("corpus", ["even_sphere", "-2"], {"output": "s.json"})),
    ("check -", ("check", ["-"], {})),
    # the last value of a repeated option wins
    ("check a.json --cap 5 --cap 6", ("check", ["a.json"], {"cap": 6})),
    # help, wherever it comes
    ("-h", (None, [], {"help": True})),
    ("--help", (None, [], {"help": True})),
    ("check -h", ("check", [], {"help": True})),
    ("check a.json --he", ("check", ["a.json"], {"help": True})),
    ("corpus --help", ("corpus", [], {"help": True})),
    ("duality -h", ("duality", [], {"help": True})),
]


@pytest.mark.parametrize("line, parsed", PARSED)
def test_parse_command_line(line, parsed):
    assert parse_command_line(shlex.split(line)) == parsed


def readme_invocations():
    """The `formacheck` lines of README's CLI section, comments stripped."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.join(shlex.split(line, comments=True)[1:])
            for line in block.splitlines() if line.startswith("formacheck ")]


def test_readme_invocations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "complex.json", {"name": "pair", "dims": [1, 1],
                                           "boundaries": [[["1"]]]})
    lines = readme_invocations()
    assert set(lines) <= {line for line, _ in PARSED}
    for line in lines:
        # the 2-sphere wedge is the README's discrepancy example
        assert main(shlex.split(line)) == (4 if line.startswith("check wedge") else 0), line
        assert not capsys.readouterr().err.startswith("error")
    assert json.loads((tmp_path / "cp2.cert.json").read_text())["cap"] == 12
    assert (tmp_path / "model.json").exists()


@pytest.mark.parametrize("line", ["-h", "--help", "check -h", "check --help", "corpus -h",
                                  "corpus --help", "duality -h", "duality --help"])
def test_help_exits_0(line, capsys):
    assert main(shlex.split(line)) == 0
    out, err = capsys.readouterr()
    assert out.startswith(USAGE) and err == ""
    assert all(command in out for command in ("check", "corpus", "duality", "--emit-model"))


USAGE_ERRORS = [
    "",                                   # no command
    "frobnicate a.json",                  # unknown command
    "--cap 5 check a.json",               # an option before the command
    "check",                              # no file
    "check a.json b.json",                # two files
    "check a.json --cap abc",             # --cap not an integer
    "check a.json --cap=",
    "check a.json --cap",                 # an option without its value
    "check a.json --report",
    "check a.json --bogus x",             # unknown options
    "check a.json -o x.json",             # -o belongs to corpus
    "check -x.json",                      # a file that looks like an option, without --
    "check a.json -- --cap 5",            # after --, options are arguments
    "corpus even_sphere 2",               # no -o
    "corpus -o x.json",                   # no kind
    "duality",
    "duality a.json b.json",
    "duality a.json --cap 5",
]


@pytest.mark.parametrize("line", USAGE_ERRORS)
def test_usage_error_exits_1(line, capsys):
    assert main(shlex.split(line)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n" + USAGE + "\n")
    assert err.count("\n") == USAGE.count("\n") + 2 and "Traceback" not in err


# tokens the fuzzed command lines are made of; every number is small, so
# no command line asks for unbounded work
TOKENS = ["check", "corpus", "duality", "--cap", "--report", "--emit-model", "-o", "--output",
          "--rep", "--em", "--c", "-h", "--help", "--", "-", "=", "0", "2", "3", "5", "12", "-1",
          "abc", "-x", "--bogus", "even_sphere", "truncated_poly", "product", "wedge",
          "s2.json", "missing.json", "out.json"]
TOKEN = st.one_of(st.sampled_from(TOKENS),
                  st.builds("{}={}".format, st.sampled_from(TOKENS), st.sampled_from(TOKENS)))
# many command lines start with a command, so that some get past the parser
ARGV = st.builds(list.__add__, st.lists(st.sampled_from(TOKENS[:3]), max_size=1),
                 st.lists(TOKEN, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=ARGV)
def test_main_survives_fuzzed_command_lines(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the outputs a command line names land here
        try:
            write_json(pathlib.Path(tmp, "s2.json"), even_sphere(2))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()


# ---- corpus subcommand ----

def test_corpus_subcommand(tmp_path):
    out = tmp_path / "s4.json"
    assert main(["corpus", "even_sphere", "4", "-o", str(out)]) == 0
    h = algebra(json.loads(out.read_text()))
    assert h.top_degree == 4


def test_corpus_product_subcommand(tmp_path):
    a = write_json(tmp_path / "a.json", even_sphere(2))
    b = write_json(tmp_path / "b.json", even_sphere(4))
    out = tmp_path / "p.json"
    assert main(["corpus", "product", a, b, "-o", str(out)]) == 0
    h = algebra(json.loads(out.read_text()))
    assert sorted(h.degrees) == [0, 2, 4, 6]


def test_corpus_product_input_error_exit(tmp_path, capsys):
    good = write_json(tmp_path / "a.json", even_sphere(2))
    bad = tmp_path / "bad.json"
    capsys.readouterr()
    for data in (DEEP_NESTING.encode(), ('{"n": ' + LONG_INTEGER + "}").encode(),
                 b"\xff\xfe" + json.dumps(even_sphere(2)).encode("utf-16-le")):
        bad.write_bytes(data)
        for kind in ("product", "wedge"):
            assert main(["corpus", kind, good, str(bad), "-o", str(tmp_path / "o.json")]) == 1
            assert capsys.readouterr().err.startswith("error: ")


def test_corpus_bad_params(tmp_path):
    assert main(["corpus", "even_sphere", "3", "-o", str(tmp_path / "x.json")]) == 1
    assert main(["corpus", "truncated_poly", "2", "1",
                 "-o", str(tmp_path / "x.json")]) == 1
    assert main(["corpus", "even_sphere", "2", "4",
                 "-o", str(tmp_path / "x.json")]) == 1


# ---- duality subcommand ----

def test_duality_subcommand(tmp_path, capsys):
    obj = {
        "name": "pair",
        "dims": [1, 1],
        "boundaries": [[["1"]]],
    }
    path = write_json(tmp_path / "c.json", obj)
    assert main(["duality", path]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_equal"]
    assert [d["homology_dim"] for d in result["degrees"]] == [0, 0]


def test_duality_square_nonzero_rejected(tmp_path, capsys):
    obj = {
        "dims": [1, 1, 1],
        "boundaries": [[["1"]], [["1"]]],
    }
    path = write_json(tmp_path / "c.json", obj)
    assert main(["duality", path]) == 1
    assert "boundary squared" in capsys.readouterr().err


def test_duality_bad_shape_rejected(tmp_path):
    obj = {"dims": [2, 1], "boundaries": [[["1"]]]}
    path = write_json(tmp_path / "c.json", obj)
    assert main(["duality", path]) == 1


def test_duality_input_error_exit(tmp_path, capsys):
    texts = [json.dumps({"dims": [1, 1], "boundaries": [[[LONG_RATIONAL]]]}),
             '{"dims": [1, 1], "boundaries": [[[' + LONG_INTEGER + ']]]}',
             '{"dims": [1], "extra": ' + DEEP_NESTING + "}"]
    path = tmp_path / "c.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert main(["duality", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_duality_rejects_non_list_boundaries(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"dims": [1, 1], "boundaries": 5})
    assert main(["duality", path]) == 1
    assert "field 'boundaries' must be a list" in capsys.readouterr().err
