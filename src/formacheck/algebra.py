"""Finite-dimensional graded commutative algebras over Q.

The input object is a basis with degrees plus a sparse multiplication table.
Only the half with left index <= right index is supplied; the mirror entry
is synthesized with the sign (-1)^(pq), which makes graded commutativity
structural wherever it can be.

The table is stored sparse, read-only and integral: `mult[(i, j)]` is a
`linalg.Row` of `int`s, the nonzero terms (k, c) of D * e_i * e_j in
increasing k, with D = `scale`, and pairs with a zero product are absent.
`GradedAlgebra.from_ratios` is the one place where rational coefficients
become D times `int`s; `from_products` is the library's entry point for a
table of `Fraction`s.  No zero test, rank or pivot changes with D, so no
`Fraction` is built.
Every element is a row: `GradedAlgebra.mul` takes rows and returns D times
their product, and a basis vector or a generator's class is a one-term row.
The generators are the non-pivots of one integer elimination per degree,
chosen once per algebra (`GradedAlgebra.generators`);
`validate` decides associativity through them when the other laws hold,
and its report is also read once per algebra (`GradedAlgebra.validation`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .linalg import Row, pivots


class AlgebraStructureError(ValueError):
    """Structurally malformed input: bad indices, degrees, or table shape."""


class GradedAlgebra(namedtuple("GradedAlgebra", "labels degrees unit_index mult scale")):
    """The basis `labels` and `degrees`, the `unit_index`, and `mult`, the table
    (i, j) -> Row of `int`s, `scale` times each product, with both orders
    present and zero products omitted, held as a read-only copy of the
    mapping given, also by `_replace`, so the cached `validation` and
    `generators` always describe it; pickle gets a plain dict.  No
    `__slots__ = ()`: the cached properties live in the instance `__dict__`."""

    def __new__(cls, labels, degrees, unit_index, mult, scale=1):
        return super().__new__(cls, labels, degrees, unit_index,
                               MappingProxyType(dict(mult)), scale)

    def __getnewargs__(self):
        return (*self[:3], dict(self.mult), self.scale)

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def top_degree(self) -> int:
        return max(self.degrees)

    @cached_property
    def generators(self) -> tuple["Generator", ...]:
        """`choose_generators(self)`, computed once: `validate` and `certify`
        share it.  The function is looked up by name when this is first read."""
        return choose_generators(self)

    @cached_property
    def validation(self) -> "ValidationReport":
        """`validate(self)`, computed once, looked up by name as `generators` is."""
        return validate(self)

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
        return ((i, 1),)

    def unit(self) -> Row:
        return self.basis_vector(self.unit_index)

    def mul(self, a: Row, b: Row) -> Row:
        terms = ((ca * cb, self.mult.get((i, j), ())) for i, ca in a for j, cb in b)
        return tuple(sorted(_combine(terms).items()))

    @classmethod
    def from_ratios(cls, basis: Sequence[tuple[str, int]], unit: str,
                    table: Mapping[tuple[int, int], Mapping[int, tuple[int, int]]]
                    ) -> "GradedAlgebra":
        """Build from the half table {(i, j): {k: (n, d)}}, i <= j, or its items,
        read once the basis passes its checks: each coefficient n/d, in lowest
        terms, becomes D times an `int`, D = `scale` the lcm of the denominators.
        Omitted pairs are zero products, and unit products default to the unit
        law.  Structural problems raise AlgebraStructureError; law violations
        are left for validate()."""
        labels = tuple(lab for lab, _ in basis)
        degrees = tuple(deg for _, deg in basis)
        if len(set(labels)) != len(labels):
            raise AlgebraStructureError("duplicate basis labels")
        if not labels:
            raise AlgebraStructureError("empty basis")
        for lab, deg in basis:
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
                raise AlgebraStructureError(f"basis element {lab!r} has invalid degree {deg!r}")
        if unit not in labels:
            raise AlgebraStructureError("missing unit")
        u = labels.index(unit)
        if degrees[u] != 0:
            raise AlgebraStructureError("unit must have degree 0")

        table = dict(table)
        scale = math.lcm(*{d for value in table.values() for _, d in value.values()})
        mult: dict[tuple[int, int], Row] = {}
        # the unit law by default; an explicit entry overrides it, for validate() to flag
        for j in range(len(labels)):
            mult[(u, j)] = mult[(j, u)] = ((j, scale),)
        for (i, j), value in table.items():
            entry = tuple((k, n * (scale // d)) for k, (n, d) in sorted(value.items()) if n)
            odd_pair = degrees[i] % 2 and degrees[j] % 2
            mirror = tuple((k, -c) for k, c in entry) if odd_pair else entry
            for pair, row in ((j, i), mirror), ((i, j), entry):  # e_i e_i gets `entry`
                if row:
                    mult[pair] = row
                else:
                    mult.pop(pair, None)
        del table  # freed here if the caller kept none (the parser), before `cls` copies `mult`
        return cls(labels, degrees, u, mult, scale)

    @classmethod
    def from_products(cls, basis: Sequence[tuple[str, int]], unit: str,
                      products: Mapping[tuple[str, str], Mapping[str, "int | Fraction"]]
                      ) -> "GradedAlgebra":
        """Build from the half table keyed by labels (left <= right in basis
        order), each coefficient an `int` or a `Fraction`, through `from_ratios`:
        structural problems raise AlgebraStructureError, the basis's first."""
        index = {lab: i for i, (lab, _) in enumerate(basis)}

        def entry(left, right, value):
            if left not in index or right not in index:
                raise AlgebraStructureError(f"unknown label in pair ({left!r}, {right!r})")
            if index[left] > index[right]:
                raise AlgebraStructureError(
                    f"pair ({left!r}, {right!r}) is not in basis order; give left <= right only")
            terms = {}
            for lab, coeff in value.items():
                if lab not in index:
                    raise AlgebraStructureError(f"unknown label {lab!r} in product value")
                if isinstance(coeff, float):
                    raise AlgebraStructureError("floating point coefficients are not allowed")
                # `int`, `bool` and `Fraction` have `int` numerators and denominators
                if not isinstance(getattr(coeff, "denominator", None), int):
                    raise AlgebraStructureError(
                        f"coefficient {coeff!r} of {lab!r} is neither an int nor a Fraction")
                terms[index[lab]] = coeff.numerator, coeff.denominator
            return (index[left], index[right]), terms

        # lazy, so `from_ratios` reads the table after its basis checks
        return cls.from_ratios(basis, unit, (entry(*p, v) for p, v in products.items()))


class ValidationReport(namedtuple("ValidationReport", (
        "single_unit_in_degree_zero graded_multiplicativity unit_law associativity "
        "graded_commutativity finite_dimensional odd_degrees_vanish failures"))):
    """One flag per law of `validate`, and the failure messages in order."""

    __slots__ = ()

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
    (i, j) or (i, j, k) order.  When the single unit, the unit law, graded
    multiplicativity and graded commutativity hold, associativity is first
    decided by Light's test (Clifford-Preston, *The Algebraic Theory of
    Semigroups* I, ch. 1): only the triples with one of `h.generators` in
    the middle are compared.  The full scan runs only when that test or
    one of the four laws fails, so the witness reported is the same.
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
        e = ((j, h.scale),)
        if mult.get((u, j)) != e or mult.get((j, u)) != e:
            unit_ok = False
            failures.append(f"unit law fails on {h.labels[j]}")
            break

    # pairs absent in both orders multiply to 0 both ways
    commutative = True
    for i, j in sorted({(min(p), max(p)) for p in mult}):
        mirror = mult.get((j, i), ())
        if deg[i] % 2 and deg[j] % 2:
            mirror = tuple((k, -c) for k, c in mirror)
        if mult.get((i, j), ()) != mirror:
            commutative = False
            failures.append(
                f"graded commutativity fails on ({h.labels[i]}, {h.labels[j]})")
            break

    # M = {a : (xa)y = x(ay) for all x, y} is a subspace that holds 1 and is
    # closed under products, and the generators generate H: so M = H once
    # M holds the generators
    witness = None
    if not (single_unit and graded and unit_ok and commutative) or _associativity_witness(
            h, True, True, [g.class_vector[0][0] for g in h.generators]):
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


def _associativity_witness(h: GradedAlgebra, exact_skip: bool, half: bool, middle=None):
    """First (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k),
    with j among the basis indices `middle` when they are given.

    The table holds D times each product, so both sides of every triple
    are D^2 times their value, and comparing the integer sums is exact.
    Both sides are 0 unless e_i e_j or e_j e_k is nonzero, so only those
    triples are compared.  With `exact_skip` (the unit law and graded
    multiplicativity hold) triples through the unit, where both sides equal
    the product of the other two, and triples above the top degree, where
    both sides lie in an empty degree, are not visited either.  With `half`
    (graded multiplicativity and graded commutativity hold) the associator
    satisfies A(k, j, i) = ±A(i, j, k), so the first failing triple has
    i <= k and only those triples are visited.
    """
    deg, u, top, dim, mult = h.degrees, h.unit_index, h.top_degree, h.dim, h.mult
    right_of: list[list[int]] = [[] for _ in range(dim)]
    for j, k in sorted(mult):
        right_of[j].append(k)
    outer = [i for i in range(dim) if not (exact_skip and i == u)]
    fits: dict[int, list[int]] = {}  # degree budget -> the k of `outer` within it
    for i in outer:
        for j in outer if middle is None else middle:
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
                # the nonzero products of each side; with none, both sides are 0
                left = [(c, mult[m, k]) for m, c in ab if (m, k) in mult]
                right = [(c, mult[i, m]) for m, c in mult.get((j, k), ()) if (i, m) in mult]
                if (left or right) and _combine(left) != _combine(right):
                    return i, j, k
    return None


class Generator(namedtuple("Generator", "label degree class_vector")):
    """A chosen generator: its label, degree and class (a one-term Row)."""

    __slots__ = ()


def choose_generators(h: GradedAlgebra) -> tuple[Generator, ...]:
    """Pick generators degree by degree as a complement of the decomposables.

    Greedy rule: in each degree, the basis classes are added in basis order
    to the span D of the degree's terms of the products of positive-degree
    classes, and each class that enlarges the span is a generator.  e_s
    fails to enlarge D + span(e_<s) exactly when some element of D has its
    last nonzero coordinate at s.  So, with the columns in reverse basis
    order, the generators are the non-pivot columns of D's rows: one
    `pivots` per degree, of the distinct rows, as pivots depend only on the
    row space (a product and its even mirror are one row).  They come
    ordered by (degree, basis index), reproducibly.
    """
    deg = h.degrees
    column = {k: len(idx) - 1 - s for idx in h._by_degree.values() for s, k in enumerate(idx)}
    rows: dict[int, set] = {n: set() for n in sorted(h._by_degree) if n > 0}
    for (i, j), prod in h.mult.items():
        # a product with the unit is not decomposable, and an even mirror is the same row
        if not (deg[i] and deg[j]) or (i > j and h.mult.get((j, i)) == prod):
            continue
        n = deg[i] + deg[j]
        terms = tuple((k, c) for k, c in prod if deg[k] == n)
        if terms:  # then n > 1 is the degree of a class
            rows[n].add(tuple((column[k], c) for k, c in reversed(terms)))
    free = []
    for n, degree_rows in rows.items():
        spanned = set(pivots(degree_rows))
        free += [(n, i) for i in h.degree_indices(n) if column[i] not in spanned]
    return tuple(Generator(f"v{g + 1}", n, h.basis_vector(i)) for g, (n, i) in enumerate(free))
