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
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formacheck as fc
from formacheck import algebra as algebra_module
from formacheck import corpus as corpus_module
from formacheck.cli import _COMMANDS, HELP, MAX_CAP, USAGE, main, parse_command_line
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formality import MAX_PRODUCTS
from formacheck.formats import InputError, load_algebra_file, parse_algebra_json

from util import (algebra, corpus_objects, cp2_power_3, dependent_pair, serialize_algebra,
                  sphere_wedge_8)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---- parsing ----

def test_parse_sphere_file(tmp_path):
    path = write_json(tmp_path / "s2.json", even_sphere(2))
    h, raw, digest = load_algebra_file(path)
    assert h.validation.structure_ok
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
    report, model = tmp_path / "c.json", tmp_path / "m.json"
    assert main(["check", path, "--report", str(report), "--emit-model", str(model)]) == 3
    cert = json.loads(report.read_text())
    assert cert["model"] is None
    assert not model.exists()  # no model is built, so none is written
    assert cert["verdict"]["classification"] == "HYPOTHESIS_VIOLATED"
    assert cert["generators"]  # the odd generator is still listed


S2_WEDGE_S2 = wedge(even_sphere(2), even_sphere(2))
ODD_CLASS = {"name": "odd", "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}],
             "unit": "1", "products": []}


@pytest.mark.parametrize("obj, cap, above", [
    (even_sphere(2), None, 2),  # box degree B = 2 = top degree, default cap 5
    (truncated_poly(2, 3), 4, 4),  # CP^2: B = 4 = top degree = cap
    (product(even_sphere(2), even_sphere(4)), 6, 6),  # B = 6 = top degree
    (S2_WEDGE_S2, 8, 8),  # B = 8 > top degree 2
    (S2_WEDGE_S2, 7, None),
    (S2_WEDGE_S2, None, None),  # default cap 5 < B
    (ODD_CLASS, None, None),  # no model, no check
])
def test_check_says_when_the_cap_covers_every_degree(tmp_path, capsys, obj, cap, above):
    # above max(B, top degree) the model's cohomology and H both vanish, B the
    # box degree sum_i (T_i - 1)|v_i|; the line is on stderr only
    path = write_json(tmp_path / "in.json", obj)
    report = tmp_path / "cert.json"
    main(["check", path, "--report", str(report)] + ([] if cap is None else ["--cap", str(cap)]))
    err = capsys.readouterr().err
    line = (f"the check covers every degree: the model's cohomology and H vanish above "
            f"{above} = max(box degree, top degree)\n")
    assert (line in err) if above is not None else "covers every degree" not in err
    assert "covers" not in report.read_text()


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


@pytest.mark.parametrize("cap", [MAX_CAP + 1, sys.maxsize, 10 ** 20, None])
def test_check_cap_too_large_rejected(tmp_path, capsys, cap):
    # the check keeps and writes one row per degree up to the cap, given or default
    if cap is None:  # S^50000 from `corpus`, whose default cap is 2 * 50000 + 1
        assert main(["corpus", "even_sphere", "50000", "-o", str(tmp_path / "s.json")]) == 0
        argv, cap = ["check", str(tmp_path / "s.json")], 100_001
    else:
        path = write_json(tmp_path / "point.json", {"name": "point", "unit": "1", "products": [],
                                                    "basis": [{"label": "1", "degree": 0}]})
        argv = ["check", path, "--cap", str(cap)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cap {cap} is too large\n")


@pytest.mark.parametrize("obj", [
    truncated_poly(2, 3), wedge(even_sphere(2), even_sphere(2)),
    serialize_algebra(cp2_power_3(), name="cp2_power_3"),
    {"name": "odd", "unit": "1", "products": [],
     "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}]}],
    ids=["cp2", "wedge", "cp2_power_3", "odd"])
def test_check_chooses_the_generators_once(tmp_path, monkeypatch, capsys, obj):
    # `validate` and `certify` share `h.generators`, which looks the function up by name
    calls = []
    choose = algebra_module.choose_generators
    monkeypatch.setattr(algebra_module, "choose_generators",
                        lambda h: calls.append(h) or choose(h))
    assert main(["check", write_json(tmp_path / "in.json", obj)]) in (0, 3, 4)
    assert len(calls) == 1


@pytest.mark.parametrize("obj", [
    truncated_poly(2, 3), wedge(even_sphere(2), even_sphere(2)),
    {"name": "odd", "unit": "1", "products": [],
     "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}]}],
    ids=["cp2", "wedge", "odd"])
def test_parse_and_certify_validate_once(monkeypatch, obj):
    # the report is `h.validation`, which looks `validate` up by name
    calls = []
    validate = algebra_module.validate
    monkeypatch.setattr(algebra_module, "validate", lambda h: calls.append(h) or validate(h))
    h = parse_algebra_json(obj)
    fc.certify(h)
    assert calls == [h]
    assert fc.validate(h) == h.validation


def test_certify_refuses_a_table_check_rejects(tmp_path, capsys):
    # 1·x = 2x breaks the unit law: the library refuses the table as `check` does
    obj = {"name": "bad unit", "unit": "1",
           "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2},
                     {"label": "y", "degree": 4}],
           "products": [{"left": "1", "right": "x", "value": [{"label": "x", "coeff": "2"}]},
                        {"left": "x", "right": "x", "value": [{"label": "y", "coeff": "1"}]}]}
    h = fc.GradedAlgebra.from_products([("1", 0), ("x", 2), ("y", 4)], "1",
                                       {("1", "x"): {"x": 2}, ("x", "x"): {"y": 1}})
    message = "validation failure: unit law fails on x; associativity fails on (1, 1, x)"
    with pytest.raises(ValueError) as refused:
        fc.certify(h)
    assert str(refused.value) == message
    assert main(["check", write_json(tmp_path / "in.json", obj)]) == 1
    assert capsys.readouterr().err.endswith(message + "\n")


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


def child_env(unbuffered):
    """The environment of a `python -m formacheck` child, with or without
    PYTHONUNBUFFERED (unset, a short certificate waits in the buffer until
    the final flush; a long one fails at its write)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


def test_python_dash_m(tmp_path):
    env = child_env(unbuffered=True)
    path = write_json(tmp_path / "s2.json", even_sphere(2))

    def run(module, *args):
        return subprocess.run([sys.executable, "-m", module, "check", *args], env=env,
                              capture_output=True, timeout=120).returncode

    for module in ("formacheck", "formacheck.cli"):
        report = tmp_path / f"{module}.json"
        assert run(module, path, "--report", str(report)) == 0
        assert json.loads(report.read_text())["exit_code"] == 0
        assert run(module, str(tmp_path / "missing.json")) == 1


@contextlib.contextmanager
def unwritable_stdout(target):
    """A file descriptor no write succeeds on: a pipe whose reader is closed
    (EPIPE) or /dev/full (ENOSPC)."""
    if target == "closed pipe":
        r, w = os.pipe()
        os.close(r)
        try:
            yield w
        finally:
            os.close(w)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as fh:
            yield fh.fileno()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize("command", ["check", "check 8-fold wedge", "--help"])
def test_unwritable_stdout_exits_1(tmp_path, command, target, unbuffered):
    argv = {"check": ["check", write_json(tmp_path / "s2.json", even_sphere(2))],
            "check 8-fold wedge": ["check", write_json(tmp_path / "w8.json",
                                                      serialize_algebra(sphere_wedge_8()))],
            "--help": ["--help"]}[command]
    with unwritable_stdout(target) as fd:
        run = subprocess.run([sys.executable, "-m", "formacheck", *argv], stdout=fd,
                             stderr=subprocess.PIPE, env=child_env(unbuffered), text=True,
                             timeout=120)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert lines[-1].startswith("error: cannot write standard output: ")
    assert "Traceback" not in run.stderr
    assert [x for x in lines if x.startswith("error")] == lines[-1:]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case, expected", [("check --report", 0), ("check 8-fold wedge", 4),
                                            ("missing file", 1), ("corpus", 0),
                                            ("stdout full too", 1)])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, case, expected, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    s2_path = write_json(tmp_path / "s2.json", even_sphere(2))
    argv = {"check --report": ["check", s2_path, "--report", str(tmp_path / "cert.json")],
            "check 8-fold wedge": ["check", write_json(tmp_path / "w8.json",
                                                      serialize_algebra(sphere_wedge_8()))],
            "missing file": ["check", str(tmp_path / "missing.json")],
            "corpus": ["corpus", "even_sphere", "2", "-o", str(tmp_path / "out.json")],
            "stdout full too": ["check", s2_path]}[case]
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "formacheck", *argv],
                             stdout=full if case == "stdout full too" else subprocess.DEVNULL,
                             stderr=full, env=child_env(unbuffered), timeout=120)
    assert run.returncode == expected


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
    # after the command, a command's name is an argument
    ("check corpus", ("check", ["corpus"], {})),
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
    ("check -- --help", ("check", ["--help"], {})),
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
    ("corpus even_sphere 2 -h", ("corpus", ["even_sphere", "2"], {"help": True})),
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
    lines = readme_invocations()
    assert set(lines) <= {line for line, _ in PARSED}
    for line in lines:
        # the 2-sphere wedge is the README's discrepancy example
        assert main(shlex.split(line)) == (4 if line.startswith("check wedge") else 0), line
        assert not capsys.readouterr().err.startswith("error")
    assert json.loads((tmp_path / "cp2.cert.json").read_text())["cap"] == 12
    assert (tmp_path / "model.json").exists()


def readme_library_blocks():
    """The `python` blocks of README's Library section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library", 1)[1].split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def test_readme_library_blocks(tmp_path, monkeypatch, capsys):
    # the one block checks cp2.json
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cp2.json", truncated_poly(2, 3))
    blocks = readme_library_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["FORMAL_BY_THEOREM None 0"]


@pytest.mark.parametrize("line", ["-h", "--help", "check -h", "check --help", "corpus -h",
                                  "corpus --help"])
def test_help_exits_0(line, capsys):
    assert main(shlex.split(line)) == 0
    out, err = capsys.readouterr()
    assert out.startswith(USAGE) and err == ""
    assert all(command in out for command in ("check", "corpus", "--emit-model"))


def help_table():
    """{command: its options} as HELP's table lists them, and under None the
    options of every command."""
    table, command = {None: ()}, None
    for line in HELP.split("\n\n")[1].splitlines():
        if line.startswith("    "):
            table[command] += tuple(re.findall(r"--[\w-]+", line))
        elif line.split()[0].startswith("-"):
            table[None] += tuple(re.findall(r"--[\w-]+", line))
        else:
            command = line.split()[0]
            table[command] = ()
    return table


def test_help_and_usage_list_the_parsers_commands_and_options():
    # a command or an option dropped from the parser but not from the help, or
    # the other way round, fails here
    assert help_table() == {**_COMMANDS, None: ("--help",)}
    usage = {line.split()[1]: tuple(re.findall(r"--[\w-]+", line))
             for line in USAGE.removeprefix("usage:").splitlines()}
    assert usage == _COMMANDS
    assert list(usage) == list(help_table())[1:]


def test_retired_duality_command_is_unknown(capsys):
    assert main(["duality", "x.json"]) == 1
    assert capsys.readouterr() == ("", f"error: unknown command 'duality'\n{USAGE}\n")


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
    "duality",                            # a retired command, now unknown
    "duality a.json b.json",
    "duality a.json --cap 5",
    "duality x.json",
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
TOKENS = ["check", "corpus", "--cap", "--report", "--emit-model", "-o", "--output",
          "--rep", "--em", "--c", "-h", "--help", "--", "-", "=", "0", "2", "3", "5", "12", "-1",
          "abc", "-x", "--bogus", "even_sphere", "truncated_poly", "product", "wedge",
          "s2.json", "missing.json", "out.json"]
TOKEN = st.one_of(st.sampled_from(TOKENS),
                  st.builds("{}={}".format, st.sampled_from(TOKENS), st.sampled_from(TOKENS)))
# many command lines start with a command, so that some get past the parser
ARGV = st.builds(list.__add__, st.lists(st.sampled_from(TOKENS[:2]), max_size=1),
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


@pytest.mark.parametrize("degree", [1, 3])
def test_corpus_output_that_fails_validation_exits_one(tmp_path, capsys, degree):
    # x*x = x^2 != 0 with |x| odd breaks graded commutativity: no file is written
    out = tmp_path / "x.json"
    assert main(["corpus", "truncated_poly", str(degree), "3", "-o", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (f"error: truncated_poly({degree},3): validation failure: "
                   "graded commutativity fails on (x, x)\n")
    # at height 2, x*x = 0: the file is written, and `check` reads it
    assert main(["corpus", "truncated_poly", str(degree), "2", "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 3  # hypothesis violated


def test_corpus_over_the_product_budget_exits_one_at_once(tmp_path, capsys):
    # about 2.5e9 products: refused before any of them is built
    out = tmp_path / "x.json"
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["corpus", "truncated_poly", "2", "100000", "-o", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert not out.exists()
    assert capsys.readouterr() == ("", "error: truncated_poly(2,100000) would have "
                                   f"2499950000 products, more than {MAX_PRODUCTS}\n")


# factors of the products the budget test builds: even, odd and fractional tables
HALF_SQUARE = truncated_poly(2, 3)
HALF_SQUARE["products"][0]["value"][0]["coeff"] = "1/2"
FACTORS = [even_sphere(2), even_sphere(4), truncated_poly(2, 3), truncated_poly(2, 4),
           S2_WEDGE_S2, ODD_CLASS, product(ODD_CLASS, ODD_CLASS), HALF_SQUARE]
BUDGETED = ([(truncated_poly, (degree, height)) for degree in (1, 2, 3) for height in (2, 3, 7)
             if degree % 2 == 0 or height == 2]
            + [(product, (a, b)) for a in FACTORS for b in FACTORS])


@pytest.mark.parametrize("build, args", BUDGETED)
def test_corpus_budget_counts_the_products_it_writes(monkeypatch, build, args):
    # with a budget of exactly the products written the file is the same;
    # with one less, the generator refuses
    obj = build(*args)
    monkeypatch.setattr(corpus_module, "MAX_PRODUCTS", len(obj["products"]))
    assert build(*args) == obj
    monkeypatch.setattr(corpus_module, "MAX_PRODUCTS", len(obj["products"]) - 1)
    with pytest.raises(InputError, match=f"would have {len(obj['products'])} products"):
        build(*args)


def test_corpus_bad_params(tmp_path):
    assert main(["corpus", "even_sphere", "3", "-o", str(tmp_path / "x.json")]) == 1
    assert main(["corpus", "truncated_poly", "2", "1",
                 "-o", str(tmp_path / "x.json")]) == 1
    assert main(["corpus", "even_sphere", "2", "4",
                 "-o", str(tmp_path / "x.json")]) == 1
