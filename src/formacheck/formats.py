"""File formats: algebra files, certificates, rational string codec.

All files are UTF-8 JSON.  Rationals travel as strings "p/q" (or "p") so
the formats stay exact and language neutral; floats are rejected outright.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

try:  # the OpenSSL-free digest (CPython 3.10-3.11): loading hashlib costs a check ~5 ms
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .algebra import (AlgebraStructureError, GradedAlgebra, ValidationReport,
                      validate)
from .formality import Certificate, DegreeSet
from .linalg import Row
from .model import Monomial, format_monomial

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


class InputError(Exception):
    """Malformed or invalid input file; carries positional context."""


def parse_rational(value, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InputError(f"{where}: malformed rational {value!r}")
        try:
            return Fraction(value)
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"{where}: rational with too many digits "
                             f"({len(value)} characters)") from exc
    raise InputError(f"{where}: expected a rational string, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # more digits than str() converts; Decimal() has no limit
        digits = Decimal(max(abs(x.numerator), x.denominator)).adjusted() + 1
        raise InputError(f"a rational in the result has {digits} digits, "
                         "too many to write out") from exc


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


def _read_json(path) -> tuple[bytes, object]:
    """Read a file and decode it as UTF-8 JSON; returns (raw bytes, object).

    Every way the read or the decode can fail becomes an InputError:
    JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an integer
    with more digits than int() converts, and deep nesting exhausts the
    decoder's recursion limit.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return raw, json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def load_algebra_file(path) -> tuple[GradedAlgebra, ValidationReport, dict, str]:
    """Parse one algebra file; returns (algebra, its validation report, raw
    object, sha256 hex)."""
    raw, obj = _read_json(path)
    h, report = _parse_validated(obj, str(path))
    return h, report, obj, sha256(raw).hexdigest()


def parse_algebra(path) -> GradedAlgebra:
    return load_algebra_file(path)[0]


def _monomial_json(m: Monomial, even_labels) -> dict:
    return {
        "text": format_monomial(m, even_labels, ()),
        "even": [[even_labels[i], e] for i, e in m.even],
        "odd": [],
        "degree": m.degree,
    }


def certificate_json(cert: Certificate, raw_obj, digest: str) -> dict:
    """The certificate of one `certify` run on the input `raw_obj` with the
    given sha256, as a JSON object; stages that did not run are null."""
    h, gens, verdict, quasi = cert.algebra, cert.generators, cert.verdict, cert.quasi_isomorphism
    labels = tuple(g.label for g in gens)

    def sparse(v: Row) -> dict:
        return {h.labels[k]: format_rational(c) for k, c in v}

    return {
        "input": raw_obj,
        "input_sha256": digest,
        "cap": cert.cap,
        "validation": cert.validation._asdict(),
        "generators": [{"label": g.label, "degree": g.degree, "class": sparse(g.class_vector)}
                       for g in gens],
        "e_family": None if cert.e_family is None else [{
            "monomial": _monomial_json(entry.monomial, labels),
            "class": sparse(entry.class_vector),
            "degree": entry.monomial.degree,
        } for entry in cert.e_family],
        "good_objects": None if cert.good_objects is None else [{
            "monomial": _monomial_json(g.monomial, labels),
            "phi_image": {},  # zero by definition of a good object
            "divisors": [{"monomial": _monomial_json(w.monomial, labels),
                          "class": sparse(w.class_vector)} for w in g.divisor_witnesses],
        } for g in cert.good_objects],
        "model": None if cert.model is None else {
            "even_generators": [{"label": g.label, "degree": g.degree} for g in gens],
            "odd_generators": [{
                "label": w.label,
                "degree": w.degree,
                "differential": {"coefficient": "1",
                                 "monomial": _monomial_json(w.target, labels)},
            } for w in cert.model.odd_generators],
        },
        "quasi_isomorphism": None if quasi is None else {
            "cap": quasi.cap,
            "verified_up_to_cap_only": True,
            "overall": quasi.overall,
            "first_failure": quasi.first_failure,
            "degrees": [{**r._asdict(), "bijective": r.bijective} for r in quasi.reports],
        },
        "verdict": {
            "classification": verdict.classification,
            "discrepancy": verdict.discrepancy,
            "hypothesis_ok": verdict.odd_degrees_vanish,
            "odd_degrees_vanish": verdict.odd_degrees_vanish,
            "finite_dimensional": True,  # a table of products is finite by construction
            "condition_i_trivial_products": verdict.condition_i,
            "condition_ii_independent_family": verdict.condition_ii,
            "degrees_with_cohomology": list(DegreeSet.from_algebra(h).degrees),
            "corollary_integer": list(verdict.corollary_integer),
            "corollary_nonnegative": list(verdict.corollary_nonnegative),
        },
        "exit_code": cert.exit_code,
    }
