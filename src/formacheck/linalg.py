"""Exact linear algebra over the rationals.

A vector is a sparse `Row` of exact rationals, each an `int` or a
`fractions.Fraction` (`formats` reads an integral one as an `int`).  They
mix exactly under + - * and ==; none is divided with `/` (a quotient of
`int`s is a float), and no float is allowed.  The check path has one
elimination, the fraction-free `integer_pivots`: `rank` scales rows to
integers for it, and the generator choice reads its pivot columns.
Dense matrices and the reduced echelon form (`MatQ`, `RowSpace`, `rref`,
`kernel_basis`) and `as_row`, which only the reference and the tests use,
live in `reference`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Row = tuple[tuple[int, "int | Fraction"], ...]  # sparse vector: nonzero (k, c), k increasing


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


def integer_row(row: Row) -> list[tuple[int, int]]:
    """The row times the lcm of its denominators: the same line, in integers."""
    scale = math.lcm(*(c.denominator for _, c in row))
    return [(k, c.numerator * (scale // c.denominator)) for k, c in row]


def rank(rows: Iterable[Row]) -> int:
    """Rank over Q of sparse rows, block by block.  Rows that share a
    column, directly or through other rows, form a block; blocks have
    disjoint columns, so the rank is the sum of theirs.  A block of one row
    has rank 1; any other is scaled by `integer_row` and ranked by
    `integer_rank` on only the columns its rows touch, since zero columns
    and the order of the columns do not change a rank."""
    rows = [row for row in rows if row]
    root: dict[int, int] = {}  # column -> a column of its block; a root maps to itself

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for row in rows:
        for k, _ in row:
            root.setdefault(k, k)
        first = find(row[0][0])
        for k, _ in row[1:]:
            root[find(k)] = first
    blocks: dict[int, list] = {}
    for row in rows:
        blocks.setdefault(find(row[0][0]), []).append(row)
    return sum(1 if len(block) == 1 else _block_rank(block) for block in blocks.values())


def _block_rank(rows: list[Row]) -> int:
    rows = [integer_row(row) for row in rows]
    column = {k: i for i, k in enumerate(sorted({k for row in rows for k, _ in row}))}
    dense = [[0] * len(column) for _ in rows]
    for out, row in zip(dense, rows):
        for k, c in row:
            out[column[k]] = c
    return integer_rank(dense)


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
