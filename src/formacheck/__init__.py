"""formacheck: formality certificates for finite-dimensional graded
commutative algebras over Q."""

__version__ = "0.1.0"

from .linalg import Vec, _moved_to_reference
from .algebra import (AlgebraStructureError, Generator, GradedAlgebra,
                      ValidationReport, choose_generators, validate)
from .model import (GoodObject, Model, Monomial, OddGenerator, build_model,
                    compute_E, format_monomial, good_objects)
from .cohomology import DegreeReport, QuasiIsoReport, verify_quasi_iso
from .formality import (FORMAL_BY_THEOREM, HYPOTHESIS_VIOLATED, INCONCLUSIVE,
                        Certificate, DegreeSet, Verdict, certify, check_condition_i,
                        check_condition_ii, corollary_integer_check,
                        corollary_nonnegative_check, render_verdict)
from .formats import InputError, format_rational, parse_algebra, parse_rational

# the degree-by-degree reference, loaded on first use (see `reference`)
__getattr__ = _moved_to_reference(__name__, {
    "MatQ", "RowSpace", "cohomology_basis", "differential_matrix", "induced_map",
    "kernel_basis", "monomials_of_degree", "phi_tilde", "rref"})

__all__ = [
    "__version__",
    "MatQ", "RowSpace", "Vec", "rref", "kernel_basis",
    "GradedAlgebra", "Generator", "ValidationReport",
    "AlgebraStructureError", "validate", "choose_generators",
    "Monomial", "Model", "OddGenerator", "GoodObject",
    "monomials_of_degree", "compute_E", "good_objects",
    "build_model", "differential_matrix", "phi_tilde", "format_monomial",
    "DegreeReport", "QuasiIsoReport", "cohomology_basis", "induced_map",
    "verify_quasi_iso",
    "DegreeSet", "Verdict", "check_condition_i", "check_condition_ii",
    "corollary_integer_check", "corollary_nonnegative_check", "render_verdict",
    "Certificate", "certify",
    "FORMAL_BY_THEOREM", "INCONCLUSIVE", "HYPOTHESIS_VIOLATED",
    "InputError", "parse_algebra", "parse_rational", "format_rational",
]
