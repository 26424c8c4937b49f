"""Exact linear algebra over the rationals.

Matrices carry `fractions.Fraction` entries.  Every rank is an integer rank
(`rank` scales rows to integers for fraction-free `integer_rank`), and the
one echelon form is `RowSpace`, which `rref` reads; no float is allowed
anywhere.  Pivoting and free-variable conventions are fixed so that every
downstream choice (generator sets, complements, cohomology representatives)
is reproducible bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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


class _MatQ(NamedTuple):
    rows: int
    cols: int
    entries: tuple[Vec, ...]


class MatQ(_MatQ):
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


class RrefResult(NamedTuple):
    rref: MatQ
    pivot_cols: tuple[int, ...]
    rank: int


def rref(m: MatQ) -> RrefResult:
    """Reduced row echelon form: m's rows added to a `RowSpace`, padded with
    zero rows.  The RREF is unique, so this is any Gauss-Jordan result."""
    span = RowSpace(m.cols)
    for row in m.entries:
        span.add(row)
    rows = tuple(span.rows) + (zero_vec(m.cols),) * (m.rows - span.rank)
    return RrefResult(MatQ(m.rows, m.cols, rows), tuple(span.pivots), span.rank)


def rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q: each row times the lcm of its denominators spans the same
    line, so this is `integer_rank` of the scaled rows.  Only the nonzero
    entries are scaled: a class vector has one among hundreds."""
    scaled = []
    for row in rows:
        nonzero = [(k, x) for k, x in enumerate(row) if x]
        scale = math.lcm(*(x.denominator for _, x in nonzero))
        out = [0] * len(row)
        for k, x in nonzero:
            out[k] = x.numerator * (scale // x.denominator)
        scaled.append(out)
    return integer_rank(scaled)


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of a matrix of integers, by fraction-free elimination.

    Bareiss's one-step elimination (Math. Comp. 22, 1968): after k pivots
    every remaining entry is a (k+1)-minor, so each division by the previous
    pivot is exact and no `Fraction` is built.  A row with a zero in the
    pivot column is only rescaled by pivot / previous pivot, which changes
    nothing but a sign when the two agree up to sign, so that step is
    skipped: every later row then differs from Bareiss's by a sign only.
    """
    work = [list(row) for row in rows if any(row)]
    rank, previous = 0, 1
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[rank], work[p] = work[p], work[rank]
        top = work[rank]
        pivot = top[c]
        rescale = abs(pivot) != abs(previous)
        for i in range(rank + 1, len(work)):
            row = work[i]
            a = row[c]
            if a:
                work[i] = [(pivot * x - a * y) // previous for x, y in zip(row, top)]
            elif rescale:
                work[i] = [pivot * x // previous for x in row]
        previous = pivot
        rank += 1
        if rank == len(work):
            break
    return rank


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
