"""File formats: algebra files, chain complex files, rational string codec.

All files are UTF-8 JSON.  Rationals travel as strings "p/q" (or "p") so
the formats stay exact and language neutral; floats are rejected outright.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Optional

from .algebra import (AlgebraStructureError, GradedAlgebra, ValidationReport,
                      validate)
from .cohomology import ChainComplexQ
from .linalg import ONE, MatQ

_RATIONAL = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


class InputError(Exception):
    """Malformed or invalid input file; carries positional context."""


def parse_rational(value, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.match(value):
            raise InputError(f"{where}: malformed rational {value!r}")
        return Fraction(value)
    raise InputError(f"{where}: expected a rational string, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{where}: field {key!r} has the wrong type")
    return value


def _optional_list(obj: dict, key, where):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{where}: field {key!r} must be a list")
    return value


def parse_algebra_json(obj, source: str = "input") -> GradedAlgebra:
    """Build and validate a GradedAlgebra from a parsed algebra file."""
    return _parse_validated(obj, source)[0]


def _parse_validated(obj, source: str) -> tuple[GradedAlgebra, ValidationReport]:
    """Build a GradedAlgebra and validate it once; returns both.

    Semantic errors carry the position of the offending product entry.
    Validation failures other than the odd-degree hypothesis reject the
    input: a broken multiplication table certifies nothing.
    """
    basis_raw = _require(obj, "basis", list, source)
    basis = []
    for k, item in enumerate(basis_raw):
        where = f"{source}: basis[{k}]"
        label = _require(item, "label", str, where)
        degree = _require(item, "degree", int, where)
        basis.append((label, degree))
    unit = _require(obj, "unit", str, source)
    index = {lab: i for i, (lab, _) in enumerate(basis)}

    products = {}
    for k, item in enumerate(_optional_list(obj, "products", source)):
        where = f"{source}: products[{k}]"
        left = _require(item, "left", str, where)
        right = _require(item, "right", str, where)
        if left not in index or right not in index:
            raise InputError(f"{where}: unknown label {left!r} or {right!r}")
        if index[left] > index[right]:
            raise InputError(
                f"{where}: pair ({left!r}, {right!r}) out of basis order; give left <= right only")
        if (left, right) in products:
            raise InputError(f"{where}: duplicate pair ({left!r}, {right!r})")
        value = {}
        for t, term in enumerate(_require(item, "value", list, where)):
            term_where = f"{where}.value[{t}]"
            lab = _require(term, "label", str, term_where)
            if lab not in index:
                raise InputError(f"{term_where}: unknown label {lab!r}")
            if lab in value:
                raise InputError(f"{term_where}: duplicate target label {lab!r}")
            value[lab] = parse_rational(term.get("coeff"), f"{term_where}.coeff")
        products[(left, right)] = value

    try:
        h = GradedAlgebra.from_products(basis, unit, products)
    except AlgebraStructureError as exc:
        raise InputError(f"{source}: {exc}") from exc

    report = validate(h)
    if not report.structure_ok:
        raise InputError(f"{source}: validation failure: " + "; ".join(report.failures))
    return h, report


def load_algebra_file(path) -> tuple[GradedAlgebra, ValidationReport, dict, str]:
    """Parse one algebra file; returns (algebra, its validation report, raw
    object, sha256 hex)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    h, report = _parse_validated(obj, str(path))
    return h, report, obj, digest


def parse_algebra(path) -> GradedAlgebra:
    return load_algebra_file(path)[0]


def serialize_algebra(h: GradedAlgebra, name: str = "") -> dict:
    """Emit the half table (left <= right), omitting zero products and the
    implicit unit rows."""
    products = []
    u = h.unit_index
    for (i, j), entry in sorted(h.mult.items()):
        if i > j:
            continue
        if u in (i, j) and entry == ((j if i == u else i, ONE),):
            continue  # implicit unit row
        value = [{"label": h.labels[k], "coeff": format_rational(c)} for k, c in entry]
        products.append({"left": h.labels[i], "right": h.labels[j], "value": value})
    return {
        "name": name,
        "basis": [{"label": lab, "degree": deg}
                  for lab, deg in zip(h.labels, h.degrees)],
        "unit": h.labels[h.unit_index],
        "products": products,
    }


def validation_report_json(report: ValidationReport) -> dict:
    return {
        "single_unit_in_degree_zero": report.single_unit_in_degree_zero,
        "graded_multiplicativity": report.graded_multiplicativity,
        "unit_law": report.unit_law,
        "associativity": report.associativity,
        "graded_commutativity": report.graded_commutativity,
        "finite_dimensional": report.finite_dimensional,
        "odd_degrees_vanish": report.odd_degrees_vanish,
        "failures": list(report.failures),
    }


def parse_chain_complex_json(obj, source: str = "input") -> ChainComplexQ:
    dims_raw = _require(obj, "dims", list, source)
    dims = []
    for k, d in enumerate(dims_raw):
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise InputError(f"{source}: dims[{k}] must be a nonnegative integer")
        dims.append(d)
    if not dims:
        raise InputError(f"{source}: dims must be nonempty")
    boundaries_raw = _optional_list(obj, "boundaries", source)
    if len(boundaries_raw) != len(dims) - 1:
        raise InputError(
            f"{source}: expected {len(dims) - 1} boundary matrices, got {len(boundaries_raw)}")
    boundaries = []
    for k, mat in enumerate(boundaries_raw):
        where = f"{source}: boundaries[{k}]"
        if not isinstance(mat, list) or len(mat) != dims[k]:
            raise InputError(f"{where}: expected {dims[k]} rows")
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dims[k + 1]:
                raise InputError(f"{where}: row {r} must have {dims[k + 1]} entries")
            rows.append([parse_rational(x, f"{where}[{r}][{c}]")
                         for c, x in enumerate(row)])
        boundaries.append(MatQ.from_rows(rows, cols=dims[k + 1]))
    return ChainComplexQ(tuple(dims), tuple(boundaries))


def load_chain_complex_file(path) -> tuple[ChainComplexQ, Optional[str]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    name = obj.get("name") if isinstance(obj, dict) else None
    return parse_chain_complex_json(obj, source=str(path)), name
