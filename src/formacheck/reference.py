"""The degree-by-degree reference: the model's monomial basis, its matrix
of d, phi~, and the cohomology and induced map computed from them, on
dense matrices over Q, with the one reduced echelon form (`RowSpace`)
that `rref` and the cohomology basis grow.

`check` never runs this code.  `verify_quasi_iso` reads the same numbers
off the complexes Δ_α and the dimensions of H, and the tests compare the two;
`choose_generators` reads its generators off `linalg.pivots`, and
the tests compare them with the greedy `RowSpace` rule.  `MatQ` is the
tests' dense matrix, and `as_row` turns a dense vector into a `linalg.Row`.
No command imports this module, so none compiles or loads it.  Only
`linalg._moved_to_reference` imports it, for the seven names that
`perfbench/tracer.py` looks up (`rref`, `kernel_basis`,
`monomials_of_degree`, `differential_matrix`, `phi_tilde`,
`cohomology_basis`, `induced_map`) at their old addresses in `linalg`,
`model` and `cohomology`.  Import every other name from here.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import GradedAlgebra
from .cohomology import DegreeReport
from .linalg import Row
from .model import EvenPart, Model, Monomial


# dense vectors and matrices and the reduced echelon form

Vec = tuple[Fraction, ...]
ZERO, ONE = Fraction(0), Fraction(1)  # dense vectors stay all `Fraction`, so `/` stays exact


def _coerce(x) -> Fraction:
    # floats are rejected to keep certificates exact by construction
    if isinstance(x, float):
        raise TypeError("floating point entries are not allowed")
    return Fraction(x)


def as_vec(values: Iterable) -> Vec:
    return tuple(_coerce(x) for x in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return not any(v)


def as_row(v: Sequence) -> Row:
    """The dense vector v as a sparse row of its nonzero entries (a
    `linalg.Row` when they are `int`s)."""
    return tuple((k, c) for k, c in enumerate(v) if c)


class MatQ(namedtuple("MatQ", "rows cols entries")):
    """Dense matrix over Q, row-major, immutable after construction."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[Vec, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        return super().__new__(cls, rows, cols, entries)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # `_replace` validates too

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: Optional[int] = None) -> "MatQ":
        data = tuple(as_vec(r) for r in rows)
        if data:
            ncols = len(data[0])
        elif cols is not None:
            ncols = cols
        else:
            raise ValueError("column count required for a matrix with no rows")
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "MatQ":
        return cls(n, n, tuple(unit_vec(n, i) for i in range(n)))

    def transpose(self) -> "MatQ":
        return MatQ(self.cols, self.rows,
                    tuple(tuple(self.entries[i][j] for i in range(self.rows))
                          for j in range(self.cols)))

    def matmul(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        rows = []
        for i in range(self.rows):
            left = self.entries[i]
            row = [ZERO] * other.cols
            for k, c in enumerate(left):
                if c == 0:
                    continue
                right = other.entries[k]
                for j, r in enumerate(right):
                    if r != 0:
                        row[j] += c * r
            rows.append(tuple(row))
        return MatQ(self.rows, other.cols, tuple(rows))

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.entries)


class RowSpace:
    """Mutable row span kept in reduced echelon form.

    Work structure for growing subspaces one vector at a time; the stored
    rows are a canonical (RREF) basis of everything added so far.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> list[Fraction]:
        out = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c != 0:
                for j in range(p, self.dim):
                    out[j] -= c * row[j]
        return out

    def add(self, v: Sequence) -> Optional[Vec]:
        """Insert v's residue mod the current span.

        Returns the canonical new row (pivot normalized to 1) when v
        enlarges the span, else None.
        """
        red = self.reduce(v)
        p = next((j for j, x in enumerate(red) if x != 0), None)
        if p is None:
            return None
        inv = ONE / red[p]
        new_row = tuple(x * inv for x in red)
        for i, row in enumerate(self.rows):
            c = row[p]
            if c != 0:
                self.rows[i] = tuple(a - c * b for a, b in zip(row, new_row))
        where = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(where, new_row)
        self.pivots.insert(where, p)
        return new_row


class RrefResult(namedtuple("RrefResult", "rref pivot_cols rank")):
    """The reduced echelon form of a `MatQ`, its pivot columns and its rank."""

    __slots__ = ()


def rref(m: MatQ) -> RrefResult:
    """Reduced row echelon form: m's rows added to a `RowSpace`, padded with
    zero rows.  The RREF is unique, so this is any Gauss-Jordan result."""
    span = RowSpace(m.cols)
    for row in m.entries:
        span.add(row)
    rows = tuple(span.rows) + (zero_vec(m.cols),) * (m.rows - span.rank)
    return RrefResult(MatQ(m.rows, m.cols, rows), tuple(span.pivots), span.rank)


def kernel_basis(m: MatQ) -> list[Vec]:
    """Basis of the null space {x : m.x = 0}, one vector per free column.

    For free column f the vector has a 1 in position f and the negated
    reduced column above the pivots; vectors are ordered by free column
    index.
    """
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for j, p in enumerate(pivots):
            v[p] = -red.entries[j][f]
        basis.append(tuple(v))
    assert len(basis) == m.cols - len(pivots)
    return basis


# the model's monomial basis, d and phi~ (from `model`)

def _pack(exponents: Iterable[int]) -> EvenPart:
    return tuple((i, e) for i, e in enumerate(exponents) if e)


def _exponents(degrees: tuple[int, ...], n: int, bound: tuple[int, ...]):
    """Exponent tuples over positive `degrees` of weighted degree exactly n
    and at most `bound` in each coordinate, in lexicographic order."""
    if not degrees:
        if n == 0:
            yield ()
        return
    for e in range(min(n // degrees[0], bound[0]) + 1):
        for rest in _exponents(degrees[1:], n - e * degrees[0], bound[1:]):
            yield (e,) + rest


def multidegree(model: Model, m: Monomial) -> tuple[int, ...]:
    """Even exponents of m plus those of the targets of its odd factors, as a
    dense tuple: d preserves it, so the model is a sum of finite blocks."""
    out = [0] * len(model.generators)
    for i, e in m.even:
        out[i] += e
    for oi in m.odd:
        for i, e in model.odd_generators[oi].target.even:
            out[i] += e
    return tuple(out)


def _merge_even(a: EvenPart, b: EvenPart) -> EvenPart:
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


# cohomology_basis asks for degrees n and n - 1 only, so two entries suffice
@lru_cache(maxsize=2)
def _monomials_cached(even_degs: tuple[int, ...], odd_degs: tuple[int, ...],
                      n: int) -> tuple[Monomial, ...]:
    # keyed on the degrees alone: hashing a whole Model hashes every class vector
    evens: list = [None] * (n + 1)  # even parts by degree, shared by all odd parts
    bound = tuple(n // d for d in even_degs)
    found: list[Monomial] = []

    def pick_odd(i: int, remaining: int, acc: tuple[int, ...]):
        if remaining < 0:
            return
        if evens[remaining] is None:
            evens[remaining] = [_pack(exps) for exps in _exponents(even_degs, remaining, bound)]
        found.extend(Monomial(even, acc, n) for even in evens[remaining])
        for j in range(i, len(odd_degs)):
            pick_odd(j + 1, remaining - odd_degs[j], acc + (j,))

    pick_odd(0, n, ())
    return tuple(sorted(set(found), key=Monomial.sort_key))


def monomials_of_degree(model: Model, n: int) -> list[Monomial]:
    """All canonical monomials of the given degree, duplicate free, sorted."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials_cached(model.even_degrees, model.odd_degrees, n))


def differentiate(model: Model, m: Monomial) -> list[tuple[int, Monomial]]:
    """d of one canonical monomial, as (sign, canonical monomial) terms.

    For (even part) * w_{o_1} ... w_{o_k} the even part is closed and
    contributes no sign, and moving d past the first t odd factors costs
    (-1)^t, so

        d(m) = sum_t (-1)^t (even part * target(o_t)) * (odd factors minus o_t).

    The replaced target is pure even and commutes to the front freely.  The
    terms are distinct, and each has the multidegree of m.
    """
    return [(-1 if t % 2 else 1,
             Monomial(even=_merge_even(m.even, model.odd_generators[oi].target.even),
                      odd=m.odd[:t] + m.odd[t + 1:],
                      degree=m.degree + 1))
            for t, oi in enumerate(m.odd)]


def blocks_of_degree(model: Model, n: int) -> dict[tuple[int, ...], list[int]]:
    """Positions in monomials_of_degree(model, n), grouped by multidegree.

    Blocks come in ascending multidegree and positions ascend within each.
    """
    out: dict[tuple[int, ...], list[int]] = {}
    if n < 0:
        return out
    for j, m in enumerate(monomials_of_degree(model, n)):
        out.setdefault(multidegree(model, m), []).append(j)
    return dict(sorted(out.items()))


@lru_cache(maxsize=2)
def differential_matrix(model: Model, n: int) -> MatQ:
    """Dense matrix of d from the degree-n monomial basis to the degree-(n+1)
    one, assembled from `differentiate`.  The tests check d^2 = 0 and
    phi~ o d = 0 on this matrix.
    """
    rows_basis = monomials_of_degree(model, n + 1)
    cols_basis = monomials_of_degree(model, n)
    row_index = {m: i for i, m in enumerate(rows_basis)}
    entries = [[Fraction(0)] * len(cols_basis) for _ in rows_basis]
    for j, m in enumerate(cols_basis):
        for sign, image in differentiate(model, m):
            entries[row_index[image]][j] += sign
    return MatQ.from_rows(entries, cols=len(cols_basis))


def phi_tilde(model: Model, h: GradedAlgebra,
              element: Mapping[Monomial, Fraction]) -> Vec:
    """Algebra morphism into (H, 0): v maps to its class, every w to zero.

    `element` is a linear combination of canonical monomials and must be
    homogeneous.  Monomials containing any odd factor die; pure even ones
    evaluate through the generator classes, and the empty monomial is the
    unit.  It multiplies the generator classes in with `h.mul`, each time
    times `h.scale`, and divides that out; it does not read `compute_E`, so
    `induced_map` checks the rank `verify_quasi_iso` takes to be dim H^n.
    """
    degrees = {m.degree for m in element}
    if len(degrees) > 1:
        raise ValueError("phi_tilde needs a homogeneous element")
    out = [Fraction(0)] * h.dim
    for m, coeff in sorted(element.items(), key=lambda kv: kv[0].sort_key()):
        if coeff == 0 or m.odd:
            continue
        value = h.unit()
        for i, e in m.even:
            for _ in range(e):
                value = h.mul(model.generators[i].class_vector, value)
        for k, c in value:
            out[k] += coeff * Fraction(c, h.scale ** m.length)
    return tuple(out)


# the model's cohomology and the induced map (from `cohomology`)

def cohomology_basis(model: Model, n: int) -> tuple[int, list[Vec]]:
    """Dimension and representatives of H^n of the model, from its monomials.

    d preserves multidegree, so H^n is computed one block at a time: the
    kernel of d on the block's degree-n monomials, reduced against the RREF
    of the image of the block's degree-(n-1) monomials (and against the
    representatives chosen before), with leading coefficient 1.  Blocks are
    taken in ascending multidegree; each representative is returned in the
    coordinates of monomials_of_degree(model, n) and is supported in one
    block.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    basis = monomials_of_degree(model, n)
    below = monomials_of_degree(model, n - 1) if n > 0 else []
    sources = blocks_of_degree(model, n - 1)
    reps = []
    for alpha, cols in blocks_of_degree(model, n).items():
        local = {basis[j]: k for k, j in enumerate(cols)}
        d_out: dict = {}  # image monomial -> its row of d on the block
        for k, j in enumerate(cols):
            for sign, image in differentiate(model, basis[j]):
                d_out.setdefault(image, [0] * len(cols))[k] = sign
        cycles = kernel_basis(MatQ.from_rows(d_out.values(), cols=len(cols)))
        if not cycles:
            continue
        span = RowSpace(len(cols))
        image_rank = 0
        for j in sources.get(alpha, ()):
            column = [0] * len(cols)
            for sign, image in differentiate(model, below[j]):
                column[local[image]] = sign
            if span.add(column) is not None:
                image_rank += 1
        found = [v for v in map(span.add, cycles) if v is not None]
        assert len(found) == len(cycles) - image_rank
        for v in found:
            rep = [ZERO] * len(basis)
            for j, c in zip(cols, v):
                rep[j] = c
            reps.append(tuple(rep))
    return len(reps), reps


def induced_map(model: Model, h: GradedAlgebra, n: int) -> DegreeReport:
    """Rank of H(phi~) in degree n, with injectivity/surjectivity flags,
    from the representatives of `cohomology_basis` (the reference for the
    degree-n row of `verify_quasi_iso`).

    Well defined because phi~ is a cochain map into (H, 0); above the top
    degree of h the target is zero and the check degenerates to "model
    cohomology vanishes".  phi~ kills every monomial with an odd factor, so
    in block alpha it sees only v^alpha, the block's one monomial of top
    degree: a representative maps to its v^alpha coefficient times
    phi(v^alpha).
    """
    dim_model, reps = cohomology_basis(model, n)
    target = h.dim_in_degree(n)
    basis_n = monomials_of_degree(model, n)
    pure_even = [i for i, m in enumerate(basis_n) if not m.odd]
    span = RowSpace(h.dim)  # its own elimination: `linalg.pivots` is what this checks
    for rep in reps:
        span.add(phi_tilde(model, h, {basis_n[i]: rep[i] for i in pure_even if rep[i] != 0}))
    mapped = span.rank
    return DegreeReport(
        degree=n,
        model_cohomology_dim=dim_model,
        target_dim=target,
        induced_map_rank=mapped,
        injective=mapped == dim_model,
        surjective=mapped == target,
    )
