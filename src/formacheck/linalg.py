"""Exact linear algebra over the rationals, in `int`s.

A vector is a sparse `Row` of `int`s: a line over Q is the same line
times any nonzero integer, so no rank or pivot needs a `Fraction`.  The
algebra's table is integral (`GradedAlgebra.scale`), and every row of the
check path is built from it or from +-1; none is divided with `/` (a
quotient of `int`s is a float).  The one elimination is the sparse,
fraction-free `pivots`: `rank` counts its pivot columns, and the
generator choice reads them.
Dense matrices over Q and the reduced echelon form (`MatQ`, `RowSpace`,
`rref`, `kernel_basis`) and `as_row`, which only the reference and the
tests use, live in `reference`.
"""

from __future__ import annotations

import math
from typing import Iterable

Row = tuple[tuple[int, int], ...]  # sparse vector: nonzero (k, c), k increasing


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


def rank(rows: Iterable[Row]) -> int:
    """Rank over Q of sparse `int` rows: the number of their `pivots`."""
    return len(pivots(rows))


def pivots(rows: Iterable[Row]) -> list[int]:
    """Pivot columns, in increasing order, of sparse `int` rows: the columns
    where some vector of their row space over Q has its first nonzero entry.

    Each row is reduced against the rows kept so far, keyed by leading
    column: v <- p*v - a*r, where p and a are the leading entries of r and
    v, then divided by the gcd of its entries, so no `Fraction` is built.  A
    row that stays nonzero is kept under its new leading column.  The kept
    rows are an echelon basis of the row space, and the leading columns of
    any echelon basis are its pivot columns, so the order of the rows does
    not matter.  A row meets only kept rows of its own block (rows that
    share a column, directly or through other rows), so the blocks stay
    apart without being split.
    """
    kept: dict[int, dict[int, int]] = {}  # leading column -> reduced row, column -> entry
    for row in rows:
        v = dict(row)
        while v:
            lead = min(v)
            r = kept.get(lead)
            if r is None:
                kept[lead] = v
                break
            p, a = r[lead], v[lead]
            if p != 1:
                v = {k: p * c for k, c in v.items()}
            for k, c in r.items():
                c = v.get(k, 0) - a * c
                if c:
                    v[k] = c
                else:
                    del v[k]
            g = math.gcd(*v.values())
            if g > 1:
                v = {k: c // g for k, c in v.items()}
    return sorted(kept)
