"""The duality checker: homology of a finite chain complex over Q against
the cohomology of its degreewise dual, and the chain complex file format.

Only `formacheck duality` uses this module; `check` never imports it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .formats import InputError, _optional_list, _read_json, _require, parse_rational
from .linalg import MatQ, rank


class ChainComplexError(ValueError):
    """Raised when boundary matrices do not square to zero."""

    def __init__(self, degree: int, message: str):
        super().__init__(message)
        self.degree = degree


class _ChainComplexQ(NamedTuple):
    dims: tuple[int, ...]
    boundaries: tuple[MatQ, ...]


class ChainComplexQ(_ChainComplexQ):
    """Finite chain complex over Q: dims for C_0..C_N and boundaries
    boundaries[k] = d_(k+1): C_(k+1) -> C_k."""

    __slots__ = ()

    def __new__(cls, dims: tuple[int, ...], boundaries: tuple[MatQ, ...]):
        if len(boundaries) != max(len(dims) - 1, 0):
            raise ValueError("need exactly one boundary matrix per adjacent pair")
        for k, b in enumerate(boundaries):
            if (b.rows, b.cols) != (dims[k], dims[k + 1]):
                raise ValueError(
                    f"boundary {k + 1} has shape {b.rows}x{b.cols}, "
                    f"expected {dims[k]}x{dims[k + 1]}")
        return super().__new__(cls, dims, boundaries)

    @property
    def top(self) -> int:
        return len(self.dims) - 1


def validate_square_zero(c: ChainComplexQ):
    for n in range(2, c.top + 1):
        if not c.boundaries[n - 2].matmul(c.boundaries[n - 1]).is_zero():
            raise ChainComplexError(
                n, f"boundary squared is nonzero: d_{n - 1} o d_{n} != 0")


class DualityRow(NamedTuple):
    degree: int
    homology_dim: int
    dual_cohomology_dim: int
    equal: bool


def duality_check(c: ChainComplexQ) -> list[DualityRow]:
    """Homology of c against cohomology of the degreewise dual complex.

    The dual has differentials transpose(d_(n+1)): C^n -> C^(n+1); each
    side is an integer rank (`linalg.rank`) of its own rows, and over Q
    they must agree in every degree (any inequality is a bug, here or in
    the input construction).
    """
    validate_square_zero(c)
    homology_rank = {n: rank(c.boundaries[n - 1].entries) for n in range(1, c.top + 1)}
    dual_rank = {n: rank(c.boundaries[n].transpose().entries) for n in range(c.top)}
    rows = []
    for n in range(c.top + 1):
        hom = c.dims[n] - homology_rank.get(n, 0) - homology_rank.get(n + 1, 0)
        coh = c.dims[n] - dual_rank.get(n, 0) - dual_rank.get(n - 1, 0)
        rows.append(DualityRow(n, hom, coh, hom == coh))
    return rows


def parse_chain_complex_json(obj, source: str = "input") -> ChainComplexQ:
    dims_raw = _require(obj, "dims", list, source)
    dims = []
    for k, d in enumerate(dims_raw):
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise InputError(f"{source}: dims[{k}] must be a nonnegative integer")
        dims.append(d)
    if not dims:
        raise InputError(f"{source}: dims must be nonempty")
    boundaries_raw = _optional_list(obj, "boundaries", source)
    if len(boundaries_raw) != len(dims) - 1:
        raise InputError(
            f"{source}: expected {len(dims) - 1} boundary matrices, got {len(boundaries_raw)}")
    boundaries = []
    for k, mat in enumerate(boundaries_raw):
        where = f"{source}: boundaries[{k}]"
        if not isinstance(mat, list) or len(mat) != dims[k]:
            raise InputError(f"{where}: expected {dims[k]} rows")
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dims[k + 1]:
                raise InputError(f"{where}: row {r} must have {dims[k + 1]} entries")
            rows.append([parse_rational(x, f"{where}[{r}][{c}]")
                         for c, x in enumerate(row)])
        boundaries.append(MatQ.from_rows(rows, cols=dims[k + 1]))
    return ChainComplexQ(tuple(dims), tuple(boundaries))


def load_chain_complex_file(path) -> tuple[ChainComplexQ, Optional[str]]:
    obj = _read_json(path)[1]
    name = obj.get("name") if isinstance(obj, dict) else None
    return parse_chain_complex_json(obj, source=str(path)), name
