"""formacheck: formality certificates for finite-dimensional graded
commutative algebras over Q."""

__version__ = "0.1.0"

from .linalg import Vec
from .algebra import (AlgebraStructureError, Generator, GradedAlgebra,
                      ValidationReport, choose_generators, validate)
from . import model
from .model import GoodObject, Model, Monomial, OddGenerator, compute_E, format_monomial
from .cohomology import DegreeReport, QuasiIsoReport, verify_quasi_iso
from .formality import (FORMAL_BY_THEOREM, HYPOTHESIS_VIOLATED, INCONCLUSIVE,
                        Certificate, DegreeSet, Verdict, certify, check_condition_i,
                        check_condition_ii, corollary_integer_check,
                        corollary_nonnegative_check, render_verdict)
from .formats import InputError, format_rational, parse_algebra, parse_rational


# `perfbench/selftest.py` calls these two stages with the algebra first, which
# `model`'s do not take; they go with the benchmark's next change (ROADMAP item 1).
def good_objects(h: GradedAlgebra, gens: tuple[Generator, ...]) -> list[GoodObject]:
    return model.good_objects(gens, compute_E(h, gens))


def build_model(*h_gens_goods) -> Model:
    return model.build_model(*h_gens_goods[1:])


__all__ = [
    "__version__",
    "Vec",
    "GradedAlgebra", "Generator", "ValidationReport",
    "AlgebraStructureError", "validate", "choose_generators",
    "Monomial", "Model", "OddGenerator", "GoodObject",
    "compute_E", "good_objects", "build_model", "format_monomial",
    "DegreeReport", "QuasiIsoReport", "verify_quasi_iso",
    "DegreeSet", "Verdict", "check_condition_i", "check_condition_ii",
    "corollary_integer_check", "corollary_nonnegative_check", "render_verdict",
    "Certificate", "certify",
    "FORMAL_BY_THEOREM", "INCONCLUSIVE", "HYPOTHESIS_VIOLATED",
    "InputError", "parse_algebra", "parse_rational", "format_rational",
]
