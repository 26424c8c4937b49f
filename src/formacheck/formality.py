"""Decision layer: the formality conditions, the degree-set arithmetic, the
verdict, and `certify`, the one pipeline from a parsed algebra onwards.

The conditions are sufficient only; when both fail the verdict is
INCONCLUSIVE, never "not formal".  A theorem-level verdict whose capped
quasi-isomorphism check fails is surfaced as a discrepancy, not reconciled.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .algebra import GradedAlgebra
from .cohomology import QuasiIsoReport, verify_quasi_iso
from .linalg import rank
from .model import EEntry, build_model, compute_E, good_objects

FORMAL_BY_THEOREM = "FORMAL_BY_THEOREM"
INCONCLUSIVE = "INCONCLUSIVE"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_DISCREPANCY = 4

# the largest cap, given or default: the check keeps, and the certificate writes,
# one row per degree up to the cap, so its work and its output grow with the cap
MAX_CAP = 100_000
# the most products a corpus generator may write in its half table: `corpus
# truncated_poly 2 895`, 199,809 products, takes about 6 s and 400 MB
MAX_PRODUCTS = 200_000


class DegreeSet(namedtuple("DegreeSet", "degrees")):
    """Strictly increasing positive degrees carrying nonzero cohomology."""

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, ...]):
        if any(n <= 0 for n in degrees):
            raise ValueError("degrees must be positive")
        if list(degrees) != sorted(set(degrees)):
            raise ValueError("degrees must be strictly increasing")
        return super().__new__(cls, degrees)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # `_replace` validates too

    @classmethod
    def from_algebra(cls, h: GradedAlgebra) -> "DegreeSet":
        return cls(tuple(sorted({d for d in h.degrees if d > 0})))


def check_condition_i(e: tuple[EEntry, ...]) -> bool:
    """Trivial cup product: the family of nonzero products is empty."""
    return not e


def check_condition_ii(e: tuple[EEntry, ...]) -> bool:
    """Linear independence of the family indexed by distinct monomials.

    Two monomials mapping to dependent classes (in particular to the same
    class) make the indexed family dependent, so the check keeps one row
    per entry rather than deduplicating values: the family is independent
    when the rank (`linalg.rank`) of its class vectors is its length.  A
    class is reduced only against the kept classes that share its leading
    basis position, so on a monomial table no two classes meet.  Vacuously
    true when empty.
    """
    return rank([entry.class_vector for entry in e]) == len(e)


def corollary_integer_check(f: DegreeSet) -> tuple[bool, ...]:
    """flag_k: n_k is not an integer combination of n_1..n_(k-1).

    With unrestricted integer coefficients the combinations of the prefix
    are exactly the multiples of its gcd, kept as a running gcd; the first
    flag is vacuously true (the empty sum is 0 < n_1).
    """
    flags, g = [], 0
    for n in f.degrees:
        flags.append(g == 0 or n % g != 0)
        g = math.gcd(g, n)
    return tuple(flags)


def corollary_nonnegative_check(f: DegreeSet) -> tuple[bool, ...]:
    """Informational variant: representability with nonnegative coefficients
    and at least two summands counted with multiplicity.  The earlier
    degrees all lie below n_k, so any sum of them that reaches n_k has two
    summands: one table `reach` of the sums up to the top degree grows by
    one degree at a time, and flag_k is `not reach[n_k]`."""
    top = f.degrees[-1] if f.degrees else 0
    reach = [True] + [False] * top
    flags = []
    for n in f.degrees:
        flags.append(not reach[n])
        for s in range(n, top + 1):
            reach[s] = reach[s] or reach[s - n]
    return tuple(flags)


class Verdict(namedtuple("Verdict", (
        "condition_i condition_ii corollary_integer corollary_nonnegative "
        "classification discrepancy"))):
    """The classification and what it rests on: the two conditions (None when
    the odd-degree hypothesis, `h.validation.odd_degrees_vanish`, fails), the
    corollary flags, and whether a formal verdict met a failing check."""

    __slots__ = ()


def render_verdict(h: GradedAlgebra, e: Optional[tuple[EEntry, ...]],
                   quasi_report: Optional[QuasiIsoReport]) -> Verdict:
    """Assemble the final classification from the pieces of one pipeline run.

    When the odd-degree hypothesis fails, the condition checks are not
    meaningful and stay None.  A FORMAL_BY_THEOREM verdict whose capped
    quasi-isomorphism check failed is flagged as a discrepancy and surfaced,
    never silently reconciled.
    """
    degree_set = DegreeSet.from_algebra(h)
    cond_i = check_condition_i(e) if e is not None else None
    cond_ii = check_condition_ii(e) if e is not None else None

    if not h.validation.odd_degrees_vanish:
        classification = HYPOTHESIS_VIOLATED
    elif (cond_i or cond_ii):
        classification = FORMAL_BY_THEOREM
    else:
        classification = INCONCLUSIVE

    discrepancy = (classification == FORMAL_BY_THEOREM
                   and quasi_report is not None and not quasi_report.overall)

    return Verdict(
        condition_i=cond_i,
        condition_ii=cond_ii,
        corollary_integer=corollary_integer_check(degree_set),
        corollary_nonnegative=corollary_nonnegative_check(degree_set),
        classification=classification,
        discrepancy=discrepancy,
    )


class Certificate(namedtuple("Certificate", (
        "algebra cap e_family good_objects model quasi_isomorphism verdict"))):
    """One pipeline run; a stage that did not run is None.  What depends on
    the algebra alone, such as `h.validation` and `h.generators`, is read
    from `algebra`."""

    __slots__ = ()

    @property
    def exit_code(self) -> int:
        """0 formal and clean, 2 inconclusive, 3 hypothesis violated, 4 discrepancy."""
        if self.verdict.classification == HYPOTHESIS_VIOLATED:
            return EXIT_HYPOTHESIS_VIOLATED
        if self.verdict.classification == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_DISCREPANCY if self.verdict.discrepancy else EXIT_OK


def certify(h: GradedAlgebra, cap: Optional[int] = None) -> Certificate:
    """h.validation -> h.generators -> E -> good objects -> model -> capped
    quasi-isomorphism check -> verdict.

    First the cap rule: the cap defaults to 2 * top degree + 1, and one below
    the top degree or above `MAX_CAP` raises ValueError with the message
    `check` prints.  So does a table that breaks a ring law
    (`h.validation.structure_ok` false).  When some class of h has odd
    degree the hypothesis fails and only the generators are computed.
    """
    cap = 2 * h.top_degree + 1 if cap is None else cap
    if cap < h.top_degree:
        raise ValueError(f"cap {cap} is below the top degree {h.top_degree}")
    if cap > MAX_CAP:
        raise ValueError(f"cap {cap} is too large")
    if not h.validation.structure_ok:
        raise ValueError("validation failure: " + "; ".join(h.validation.failures))
    gens = h.generators
    e = goods = model = quasi = None
    if h.validation.odd_degrees_vanish:
        e = compute_E(h, gens)
        goods = good_objects(gens, e)
        model = build_model(gens, goods)
        quasi = verify_quasi_iso(model, h, cap)
    return Certificate(h, cap, e, goods, model, quasi, render_verdict(h, e, quasi))
