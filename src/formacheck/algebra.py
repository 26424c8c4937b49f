"""Finite-dimensional graded commutative algebras over Q.

The input object is a basis with degrees plus a sparse multiplication table.
Only the half with left index <= right index is supplied; the mirror entry
is synthesized with the sign (-1)^(pq), which makes graded commutativity
structural wherever it can be.

The table is stored sparse: `mult[(i, j)]` is a `linalg.Row`, the nonzero
terms (k, c) of e_i * e_j in increasing k, and pairs with a zero product
are absent.  Every element is such a row: `GradedAlgebra.mul` takes and
returns rows, and a basis vector or a generator's class is a one-term row.
The generators are the non-pivots of one integer elimination per degree.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .linalg import ONE, Row, integer_pivots, integer_row


class AlgebraStructureError(ValueError):
    """Structurally malformed input: bad indices, degrees, or table shape."""


class _GradedAlgebra(NamedTuple):
    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    unit_index: int
    mult: dict  # (i, j) -> Row, both orders present, zero products omitted


class GradedAlgebra(_GradedAlgebra):
    # no __slots__ = (): the cached properties live in the instance __dict__

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def top_degree(self) -> int:
        return max(self.degrees)

    @cached_property
    def _by_degree(self) -> dict:
        out: dict[int, tuple[int, ...]] = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, ())
            out[d] += (i,)
        return out

    def degree_indices(self, n: int) -> tuple[int, ...]:
        return self._by_degree.get(n, ())

    def dim_in_degree(self, n: int) -> int:
        return len(self.degree_indices(n))

    def basis_vector(self, i: int) -> Row:
        return ((i, ONE),)

    def unit(self) -> Row:
        return self.basis_vector(self.unit_index)

    def mul(self, a: Row, b: Row) -> Row:
        terms = ((ca * cb, self.mult.get((i, j), ())) for i, ca in a for j, cb in b)
        return tuple(sorted(_combine(terms).items()))

    @classmethod
    def from_products(cls, basis: Sequence[tuple[str, int]], unit: str,
                      products: Mapping[tuple[str, str], Mapping[str, Fraction]]
                      ) -> "GradedAlgebra":
        """Build from the half multiplication table keyed by labels.

        Pairs must satisfy left <= right in basis order; omitted pairs are
        zero products, and unit products default to the unit law.  Structural
        problems raise AlgebraStructureError; algebraic law violations are
        left for validate() to report.
        """
        labels = tuple(lab for lab, _ in basis)
        degrees = tuple(deg for _, deg in basis)
        if len(set(labels)) != len(labels):
            raise AlgebraStructureError("duplicate basis labels")
        if not labels:
            raise AlgebraStructureError("empty basis")
        for lab, deg in basis:
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
                raise AlgebraStructureError(f"basis element {lab!r} has invalid degree {deg!r}")
        index = {lab: i for i, lab in enumerate(labels)}
        if unit not in index:
            raise AlgebraStructureError("missing unit")
        u = index[unit]
        if degrees[u] != 0:
            raise AlgebraStructureError("unit must have degree 0")

        dim = len(labels)
        mult: dict[tuple[int, int], Row] = {}
        # unit law holds by default; explicit entries below may override it
        # (validate() will then flag the violation)
        for j in range(dim):
            mult[(u, j)] = mult[(j, u)] = ((j, ONE),)

        for (left, right), value in products.items():
            if left not in index or right not in index:
                raise AlgebraStructureError(f"unknown label in pair ({left!r}, {right!r})")
            i, j = index[left], index[right]
            if i > j:
                raise AlgebraStructureError(
                    f"pair ({left!r}, {right!r}) is not in basis order; give left <= right only")
            terms = {}
            for lab, coeff in value.items():
                if lab not in index:
                    raise AlgebraStructureError(f"unknown label {lab!r} in product value")
                if isinstance(coeff, float):
                    raise AlgebraStructureError("floating point coefficients are not allowed")
                terms[index[lab]] = Fraction(coeff)
            entry = tuple((k, c) for k, c in sorted(terms.items()) if c != 0)
            odd_pair = degrees[i] % 2 and degrees[j] % 2
            mirror = tuple((k, -c) for k, c in entry) if odd_pair else entry
            if not entry:
                mult.pop((i, j), None)
                if i != j:
                    mult.pop((j, i), None)
            else:
                mult[(i, j)] = entry
                if i != j:
                    mult[(j, i)] = mirror
        return cls(labels, degrees, u, mult)


class ValidationReport(NamedTuple):
    single_unit_in_degree_zero: bool
    graded_multiplicativity: bool
    unit_law: bool
    associativity: bool
    graded_commutativity: bool
    finite_dimensional: bool
    odd_degrees_vanish: bool
    failures: tuple[str, ...]

    @property
    def structure_ok(self) -> bool:
        """Everything except the odd-degree hypothesis flag."""
        return (self.single_unit_in_degree_zero and self.graded_multiplicativity
                and self.unit_law and self.associativity
                and self.graded_commutativity and self.finite_dimensional)


def validate(h: GradedAlgebra) -> ValidationReport:
    """Check the ring axioms and record witnesses for every failure.

    Odd-degree classes are reported as a hypothesis flag, not a structural
    failure: such inputs load and validate so the pipeline can diagnose
    them instead of crashing.  Each law is checked on the sparse table, in
    the order of the basis, so the first failure found is the first in
    (i, j) or (i, j, k) order.
    """
    failures = []
    deg, u, mult = h.degrees, h.unit_index, h.mult

    degree_zero = [i for i, d in enumerate(deg) if d == 0]
    single_unit = degree_zero == [u]
    if not single_unit:
        failures.append(
            "degree 0 must contain exactly the unit; found "
            + ", ".join(h.labels[i] for i in degree_zero))

    graded = True
    for (i, j), row in sorted(mult.items()):
        expected = deg[i] + deg[j]
        bad = [k for k, _ in row if deg[k] != expected]
        if bad:
            graded = False
            failures.append(
                f"product {h.labels[i]}*{h.labels[j]} has support in degree "
                f"{deg[bad[0]]}, expected {expected}")
            break

    unit_ok = True
    for j in range(h.dim):
        e = ((j, ONE),)
        if mult.get((u, j)) != e or mult.get((j, u)) != e:
            unit_ok = False
            failures.append(f"unit law fails on {h.labels[j]}")
            break

    # pairs absent in both orders multiply to 0 both ways
    commutative = True
    for i, j in sorted({(min(p), max(p)) for p in mult}):
        sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
        if mult.get((i, j), ()) != tuple((k, sign * c) for k, c in mult.get((j, i), ())):
            commutative = False
            failures.append(
                f"graded commutativity fails on ({h.labels[i]}, {h.labels[j]})")
            break

    witness = _associativity_witness(h, exact_skip=unit_ok and graded,
                                     half=graded and commutative)
    if witness is not None:
        failures.append("associativity fails on ({}, {}, {})".format(
            *(h.labels[i] for i in witness)))

    odd_vanish = all(d % 2 == 0 for d in deg)

    return ValidationReport(
        single_unit_in_degree_zero=single_unit,
        graded_multiplicativity=graded,
        unit_law=unit_ok,
        associativity=witness is None,
        graded_commutativity=commutative,
        finite_dimensional=True,
        odd_degrees_vanish=odd_vanish,
        failures=tuple(failures),
    )


def _combine(terms) -> dict:
    """Sum of c * row over (c, row) pairs, as {k: nonzero coefficient}."""
    out: dict[int, int] = {}
    for c, row in terms:
        for k, ck in row:
            out[k] = out.get(k, 0) + c * ck
    return {k: c for k, c in out.items() if c}


def _associativity_witness(h: GradedAlgebra, exact_skip: bool, half: bool):
    """First (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k).

    The table is scaled once by the lcm D of its denominators; both sides of
    every triple then carry 1/D^2, so comparing the integer sums is exact.
    Both sides are 0 unless e_i e_j or e_j e_k is nonzero, so only those
    triples are compared.  With `exact_skip` (the unit law and graded
    multiplicativity hold) triples through the unit, where both sides equal
    the product of the other two, and triples above the top degree, where
    both sides lie in an empty degree, are not visited either.  With `half`
    (graded multiplicativity and graded commutativity hold) the associator
    satisfies A(k, j, i) = ±A(i, j, k), so the first failing triple has
    i <= k and only those triples are visited.
    """
    deg, u, top, dim = h.degrees, h.unit_index, h.top_degree, h.dim
    scale = math.lcm(*{c.denominator for row in h.mult.values() for _, c in row})
    mult = {pair: tuple((k, c.numerator * (scale // c.denominator)) for k, c in row)
            for pair, row in h.mult.items()}
    right_of: list[list[int]] = [[] for _ in range(dim)]
    for j, k in sorted(mult):
        right_of[j].append(k)
    outer = [i for i in range(dim) if not (exact_skip and i == u)]
    fits: dict[int, list[int]] = {}  # degree budget -> the k of `outer` within it
    for i in outer:
        for j in outer:
            ab = mult.get((i, j), ())
            if exact_skip:
                budget = top - deg[i] - deg[j]
                if budget not in fits:
                    fits[budget] = [k for k in outer if deg[k] <= budget]
                ks = fits[budget] if ab else [k for k in right_of[j]
                                              if k != u and deg[k] <= budget]
            else:
                ks = range(dim) if ab else right_of[j]
            for k in ks[bisect_left(ks, i):] if half else ks:
                bc = mult.get((j, k), ())
                if (_combine((c, mult.get((m, k), ())) for m, c in ab)
                        != _combine((c, mult.get((i, m), ())) for m, c in bc)):
                    return i, j, k
    return None


class Generator(NamedTuple):
    label: str
    degree: int
    class_vector: Row


def choose_generators(h: GradedAlgebra) -> tuple[Generator, ...]:
    """Pick generators degree by degree as a complement of the decomposables.

    Greedy rule: in each degree, the basis classes are added in basis order
    to the span D of the degree's terms of the products of positive-degree
    classes, and each class that enlarges the span is a generator.  e_s
    fails to enlarge D + span(e_<s) exactly when some element of D has its
    last nonzero coordinate at s.  So, with the columns in reverse basis
    order, the generators are the non-pivot columns of D's rows, each row
    scaled by the lcm of its denominators: one `integer_pivots` per degree,
    of the distinct rows, as pivots depend only on the row space (a product
    and its even mirror are one row).  They come ordered by (degree, basis
    index), reproducibly.
    """
    deg = h.degrees
    column = {k: len(idx) - 1 - s for idx in h._by_degree.values() for s, k in enumerate(idx)}
    rows: dict[int, set] = {n: set() for n in range(1, h.top_degree + 1)}
    for (i, j), prod in h.mult.items():
        n = deg[i] + deg[j]
        terms = tuple((k, c) for k, c in prod if deg[k] == n)
        if deg[i] > 0 and deg[j] > 0 and terms:  # then 1 < n <= top degree
            row = [0] * h.dim_in_degree(n)
            for k, c in integer_row(terms):
                row[column[k]] = c
            rows[n].add(tuple(row))
    free = []
    for n, degree_rows in rows.items():
        pivots = set(integer_pivots(degree_rows))
        free += [(n, i) for i in h.degree_indices(n) if column[i] not in pivots]
    return tuple(Generator(f"v{g + 1}", n, h.basis_vector(i)) for g, (n, i) in enumerate(free))
