"""Parser fuzzing: mutated algebra files must end in an exit code, never a
traceback, and exit 1 must come with an `error:` line.
The JSON writer, `formats.dump_json`, must write what `json.dumps` writes.
A rational `formats.parse_rational` accepts is the `Fraction` of the same
value, but an `int` exactly when it is integral."""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formacheck.cli import main
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formats import InputError, dump_json, format_rational, parse_rational

ALGEBRAS = [
    even_sphere(2),
    truncated_poly(2, 3),
    product(even_sphere(2), even_sphere(2)),
    wedge(even_sphere(2), even_sphere(4)),
    {"name": "odd", "unit": "1", "products": [],
     "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}]},
]
# values a mutation puts in place of a field or an entry: wrong types,
# unknown labels, bad rationals, negative, odd and boolean degrees; every
# number is small, so no mutation asks for unbounded work
REPLACEMENTS = [None, True, False, 0, 1, 2, 3, 5, -1, -2, 2.5, "1/0", "0.5", "nope",
                "", "1", "x", "-3/4", [], {}, [1], {"label": "x"}]
KINDS = ["drop", "replace", "duplicate", "swap"]


def locations(obj, path=()):
    """The path of every field and entry in a JSON tree, in a fixed order."""
    out = []
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        out.append(path + (key,))
        if isinstance(value, (dict, list)):
            out.extend(locations(value, path + (key,)))
    return out


def mutate(obj, kind, where, replacement):
    """Apply one mutation at the `where`-th location (taken modulo their count)."""
    spots = locations(obj)
    if not spots:
        return
    *parents, key = spots[where % len(spots)]
    parent = obj
    for step in parents:
        parent = parent[step]
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = copy.deepcopy(replacement)
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "swap" and isinstance(parent, dict) and {"left", "right"} <= set(parent):
        parent["left"], parent["right"] = parent["right"], parent["left"]
    elif kind == "swap" and isinstance(parent, list) and len(parent) > 1:
        parent[key], parent[key - 1] = parent[key - 1], parent[key]


def run_cli(command, obj):
    """(exit code, stderr) of `formacheck <command> <file holding obj>`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, path])
    return code, err.getvalue()


def assert_clean_exit(command, obj):
    code, err = run_cli(command, obj)
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert err.startswith("error: "), err


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 10 ** 6), st.sampled_from(REPLACEMENTS)),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(ALGEBRAS), mutations=MUTATIONS)
def test_check_survives_mutated_algebra_files(base, mutations):
    obj = copy.deepcopy(base)
    for kind, where, replacement in mutations:
        mutate(obj, kind, where, replacement)
    assert_clean_exit("check", obj)


def cp2_with(**changes):
    """CP^2's algebra file with fields replaced; `a__0__b=v` sets obj["a"][0]["b"]."""
    obj = truncated_poly(2, 3)
    for dotted, value in changes.items():
        *parents, key = dotted.split("__")
        target = obj
        for step in parents:
            target = target[int(step) if step.isdigit() else step]
        target[int(key) if key.isdigit() else key] = value
    return obj


# one named case per kind of mutation, each of which must be rejected
REJECTED_ALGEBRAS = {
    "missing_basis": {"unit": "1", "products": []},
    "unit_not_string": cp2_with(unit=1),
    "label_not_string": cp2_with(basis__1__label=2),
    "unknown_product_label": cp2_with(products__0__left="nope"),
    "unknown_target_label": cp2_with(products__0__value__0__label="nope"),
    "duplicate_basis_label": cp2_with(basis__1__label="1"),
    "duplicate_pair": cp2_with(products=truncated_poly(2, 3)["products"] * 2),
    "out_of_order_pair": cp2_with(products__0__left="x^2"),
    "bool_coefficient": cp2_with(products__0__value__0__coeff=True),
    "float_coefficient": cp2_with(products__0__value__0__coeff=1.5),
    "zero_denominator": cp2_with(products__0__value__0__coeff="1/0"),
    # a rational is the whole string, in ASCII digits
    "trailing_newline": cp2_with(products__0__value__0__coeff="1\n"),
    "fraction_trailing_newline": cp2_with(products__0__value__0__coeff="3/4\n"),
    "fullwidth_digit": cp2_with(products__0__value__0__coeff="\uff12"),
    "list_coefficient": cp2_with(products__0__value__0__coeff=[1]),
    "negative_degree": cp2_with(basis__1__degree=-2),
    "odd_degree": cp2_with(basis__1__degree=3),  # x*x lands in degree 4, not 6
    "bool_degree": cp2_with(basis__1__degree=True),
    "float_degree": cp2_with(basis__1__degree=2.0),
    "basis_entry_not_dict": cp2_with(basis__1=5),
    "product_not_dict": cp2_with(products__0="x"),
    "top_level_list": [truncated_poly(2, 3)],
}


@pytest.mark.parametrize("name", sorted(REJECTED_ALGEBRAS))
def test_check_rejects_mutated_algebra_file(name):
    code, err = run_cli("check", REJECTED_ALGEBRAS[name])
    assert code == 1 and err.startswith("error: "), err


# what `json.loads` can return, which the certificate echoes as its input,
# and tuples; floats include NaN, the infinities and -0.0
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example({"": [], "a": {}, "b": [[], {}, ()], "c": ({"d": []},)})  # nested empty containers
@example(["\u00e9\u2028\ud800\x00\x1f\"\\/\n\t", {"\U0001f600": "\u00ff"}])  # non-ASCII, escapes
@example([True, False, None, 0, -0.0, 1e300, 5e-324, float("nan"), float("inf"),
          float("-inf"), -10 ** 40])
def test_dump_json_matches_the_stdlib(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers() | st.from_regex(r"-?[0-9]+(?:/[1-9][0-9]*)?", fullmatch=True))
@example("4/2")
@example("-0/7")
@example("007")
@example(-10 ** 40)
def test_parse_rational_is_an_int_exactly_when_integral(value):
    x, exact = parse_rational(value), Fraction(value)
    assert x == exact and hash(x) == hash(exact)
    assert type(x) is (int if exact.denominator == 1 else Fraction)
    assert format_rational(x) == format_rational(exact)


@pytest.mark.parametrize("value", ["9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000],
                         ids=["integer", "negative", "fraction"])
def test_parse_rational_rejects_too_many_digits(value):
    with pytest.raises(InputError, match=rf"^x: rational with too many digits "
                                         rf"\({len(value)} characters\)$"):
        parse_rational(value, "x")
