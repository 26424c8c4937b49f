import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import formacheck as fc
from formacheck.cli import main
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
