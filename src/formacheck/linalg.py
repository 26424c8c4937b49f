"""Exact linear algebra over the rationals.

Vectors carry `fractions.Fraction` entries; no float is allowed anywhere.
The check path has one elimination, the fraction-free `integer_pivots`:
`rank` scales rows to integers for it, and the generator choice reads its
pivot columns.  The dense matrices and the reduced echelon form (`MatQ`,
`RowSpace`, `rref`, `kernel_basis`), which only the degree-by-degree
reference, `duality` and the tests use, live in `reference`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _moved_to_reference(module: str, names: set[str]):
    """A module `__getattr__` (PEP 562) for the `names` that moved from
    `module` to `reference` and that `perfbench/tracer.py` still looks up
    there.  It imports `reference` on the first lookup and returns the name
    from there, so a `check` process, which looks none of them up, never
    compiles or loads it.  Any other name raises `AttributeError`, as it
    would without the hook."""

    def __getattr__(name: str):
        if name in names:
            from . import reference
            return getattr(reference, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _moved_to_reference(__name__, {"kernel_basis", "rref"})


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
    """Rank of a matrix of integers: the number of its `integer_pivots`."""
    return len(integer_pivots(rows))


def integer_pivots(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pivot columns, in increasing order, of a matrix of integers: the
    columns where some vector of its row space has its first nonzero entry.

    Bareiss's one-step elimination (Math. Comp. 22, 1968): after k pivots
    every remaining entry is a (k+1)-minor, so each division by the previous
    pivot is exact and no `Fraction` is built.  A row with a zero in the
    pivot column is only rescaled by pivot / previous pivot, which changes
    nothing but a sign when the two agree up to sign, so that step is
    skipped: every later row then differs from Bareiss's by a sign only,
    and the pivots stay the same.
    """
    work = [list(row) for row in rows if any(row)]
    pivots, previous = [], 1
    for c in range(len(work[0]) if work else 0):
        rank = len(pivots)
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
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return pivots
