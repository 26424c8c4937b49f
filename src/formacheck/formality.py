"""Decision layer: the formality conditions, the degree-set arithmetic, the
verdict, and `certify`, the one pipeline from a validated algebra onwards.

The conditions are sufficient only; when both fail the verdict is
INCONCLUSIVE, never "not formal".  A theorem-level verdict whose capped
quasi-isomorphism check fails is surfaced as a discrepancy, not reconciled.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .algebra import GradedAlgebra, ValidationReport
from .cohomology import QuasiIsoReport, verify_quasi_iso
from .linalg import rank
from .model import EEntry, GoodObject, build_model, compute_E, good_objects

FORMAL_BY_THEOREM = "FORMAL_BY_THEOREM"
INCONCLUSIVE = "INCONCLUSIVE"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_DISCREPANCY = 4


class DegreeSet(namedtuple("DegreeSet", "degrees")):
    """Strictly increasing positive degrees carrying nonzero cohomology."""

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, ...]):
        if any(n <= 0 for n in degrees):
            raise ValueError("degrees must be positive")
        if list(degrees) != sorted(set(degrees)):
            raise ValueError("degrees must be strictly increasing")
        return super().__new__(cls, degrees)

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
    are exactly the multiples of its gcd, so the test is gcd divisibility;
    the first flag is vacuously true (the empty sum is 0 < n_1).
    """
    flags = []
    for k, n in enumerate(f.degrees):
        if k == 0:
            flags.append(True)
        else:
            g = math.gcd(*f.degrees[:k])
            flags.append(n % g != 0)
    return tuple(flags)


def corollary_nonnegative_check(f: DegreeSet) -> tuple[bool, ...]:
    """Informational variant: representability with nonnegative coefficients
    and at least two summands counted with multiplicity, via a DP table."""
    flags = []
    for k, n in enumerate(f.degrees):
        if k == 0:
            flags.append(True)
            continue
        gens = f.degrees[:k]
        reach = [False] * (n + 1)
        reach[0] = True
        for s in range(1, n + 1):
            reach[s] = any(reach[s - g] for g in gens if g <= s)
        representable = any(g < n and reach[n - g] for g in gens)
        flags.append(not representable)
    return tuple(flags)


def _odd_degrees_vanish(h: GradedAlgebra) -> bool:
    """The theorem's hypothesis: no basis element of h has odd degree."""
    return all(d % 2 == 0 for d in h.degrees)


class Verdict(namedtuple("Verdict", (
        "odd_degrees_vanish condition_i condition_ii corollary_integer "
        "corollary_nonnegative classification discrepancy"))):
    """The classification and what it rests on: `odd_degrees_vanish` (the
    theorem's hypothesis), the two conditions (None when it fails), the
    corollary flags, and whether a formal verdict met a failing check."""

    __slots__ = ()


def render_verdict(h: GradedAlgebra, e: Optional[tuple[EEntry, ...]],
                   goods: Optional[list[GoodObject]],
                   quasi_report: Optional[QuasiIsoReport]) -> Verdict:
    """Assemble the final classification from the pieces of one pipeline run.

    When the odd-degree hypothesis fails, the condition checks are not
    meaningful and stay None.  A FORMAL_BY_THEOREM verdict whose capped
    quasi-isomorphism check failed is flagged as a discrepancy and surfaced,
    never silently reconciled.
    """
    odd_vanish = _odd_degrees_vanish(h)
    degree_set = DegreeSet.from_algebra(h)

    cond_i = check_condition_i(e) if e is not None else None
    cond_ii = check_condition_ii(e) if e is not None else None
    if cond_i and goods is not None:
        # empty E forces every good object to have exactly two factors
        assert all(g.monomial.length == 2 for g in goods)

    if not odd_vanish:
        classification = HYPOTHESIS_VIOLATED
    elif (cond_i or cond_ii):
        classification = FORMAL_BY_THEOREM
    else:
        classification = INCONCLUSIVE

    discrepancy = (classification == FORMAL_BY_THEOREM
                   and quasi_report is not None and not quasi_report.overall)

    return Verdict(
        odd_degrees_vanish=odd_vanish,
        condition_i=cond_i,
        condition_ii=cond_ii,
        corollary_integer=corollary_integer_check(degree_set),
        corollary_nonnegative=corollary_nonnegative_check(degree_set),
        classification=classification,
        discrepancy=discrepancy,
    )


class Certificate(namedtuple("Certificate", (
        "algebra validation cap generators e_family good_objects model "
        "quasi_isomorphism verdict"))):
    """One pipeline run; a stage that did not run is None."""

    __slots__ = ()

    @property
    def exit_code(self) -> int:
        """0 formal and clean, 2 inconclusive, 3 hypothesis violated, 4 discrepancy."""
        if self.verdict.classification == HYPOTHESIS_VIOLATED:
            return EXIT_HYPOTHESIS_VIOLATED
        if self.verdict.classification == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_DISCREPANCY if self.verdict.discrepancy else EXIT_OK


def certify(h: GradedAlgebra, report: ValidationReport,
            cap: Optional[int] = None) -> Certificate:
    """h.generators -> E -> good objects -> model -> capped
    quasi-isomorphism check -> verdict, for h and its `validate` report.

    The cap defaults to 2 * top degree + 1 and may not be below the top
    degree.  When some class of h has odd degree the hypothesis fails and
    only the generators are computed; this is read from h, not from the
    report, so the stages never run on an algebra they do not apply to.
    """
    cap = 2 * h.top_degree + 1 if cap is None else cap
    if cap < h.top_degree:
        raise ValueError(
            f"cap {cap} is below the top degree {h.top_degree}; the check would be vacuous")
    gens = h.generators
    e = goods = model = quasi = None
    if _odd_degrees_vanish(h):
        e = compute_E(h, gens)
        goods = good_objects(gens, e)
        model = build_model(gens, goods)
        quasi = verify_quasi_iso(model, h, e, cap)
    verdict = render_verdict(h, e, goods, quasi)
    return Certificate(h, report, cap, gens, e, goods, model, quasi, verdict)
