"""Parser fuzzing: mutated algebra and chain-complex files must end in an
exit code, never a traceback, and exit 1 must come with an `error:` line."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formacheck.cli import main
from formacheck.corpus import even_sphere, product, truncated_poly, wedge

ALGEBRAS = [
    even_sphere(2),
    truncated_poly(2, 3),
    product(even_sphere(2), even_sphere(2)),
    wedge(even_sphere(2), even_sphere(4)),
    {"name": "odd", "unit": "1", "products": [],
     "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": 3}]},
]
COMPLEXES = [
    {"name": "pair", "dims": [1, 1], "boundaries": [[["1"]]]},
    {"name": "three", "dims": [1, 2, 1], "boundaries": [[["1", "0"]], [["0"], ["1"]]]},
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(COMPLEXES), mutations=MUTATIONS)
def test_duality_survives_mutated_chain_complex_files(base, mutations):
    obj = copy.deepcopy(base)
    for kind, where, replacement in mutations:
        mutate(obj, kind, where, replacement)
    assert_clean_exit("duality", obj)


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


REJECTED_COMPLEXES = {
    "missing_dims": {"boundaries": []},
    "negative_dim": {"dims": [-1]},
    "bool_dim": {"dims": [True, 1], "boundaries": [[["1"]]]},
    "boundaries_not_list": {"dims": [1, 1], "boundaries": {"0": 1}},
    "row_not_list": {"dims": [1, 1], "boundaries": [["1"]]},
    "short_row": {"dims": [1, 2], "boundaries": [[["1"]]]},
    "bool_entry": {"dims": [1, 1], "boundaries": [[[True]]]},
    "float_entry": {"dims": [1, 1], "boundaries": [[[0.5]]]},
    "zero_denominator": {"dims": [1, 1], "boundaries": [[["1/0"]]]},
    "trailing_newline": {"dims": [1, 1], "boundaries": [[["1\n"]]]},
    "fraction_trailing_newline": {"dims": [1, 1], "boundaries": [[["3/4\n"]]]},
    "fullwidth_digit": {"dims": [1, 1], "boundaries": [[["\uff12"]]]},
    "top_level_string": "dims",
}


@pytest.mark.parametrize("name", sorted(REJECTED_COMPLEXES))
def test_duality_rejects_mutated_chain_complex_file(name):
    code, err = run_cli("duality", REJECTED_COMPLEXES[name])
    assert code == 1 and err.startswith("error: "), err
