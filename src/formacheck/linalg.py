"""Exact linear algebra over the rationals.

Vectors carry `fractions.Fraction` entries.  Every rank is an integer rank
(`rank` scales rows to integers for fraction-free `integer_rank`), and the
one echelon form is `RowSpace`; no float is allowed anywhere.  Pivoting
conventions are fixed so that every downstream choice (generator sets,
complements) is reproducible bit for bit.  The dense matrices (`MatQ`,
`rref`, `kernel_basis`), which only the degree-by-degree reference and
`duality` use, live in `reference`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _moved_to_reference(module: str, names: set[str]):
    """A module `__getattr__` (PEP 562) for the `names` that moved from
    `module` to `reference`.  It imports `reference` on the first lookup
    and returns the name from there, so the old addresses keep working
    while a `check` process, which looks none of them up, never compiles
    or loads it.  Any other name raises `AttributeError`, as it would
    without the hook."""

    def __getattr__(name: str):
        if name in names:
            from . import reference
            return getattr(reference, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _moved_to_reference(__name__, {
    "MatQ", "RrefResult", "as_vec", "kernel_basis", "rref", "zero_vec"})


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return not any(v)


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
