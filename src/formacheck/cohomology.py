"""Degreewise cohomology of the model and the duality checker.

All ranks are computed with exact rational elimination; a degree is
"bijective" only when the induced map has full rank on both sides.  The
verdict never claims anything beyond the configured degree cap.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import GradedAlgebra
from .linalg import ZERO, MatQ, RowSpace, Vec, kernel_basis, rref
from .model import (Model, blocks_of_degree, differentiate, monomials_of_degree,
                    phi_tilde)


class DegreeReport(NamedTuple):
    degree: int
    model_cohomology_dim: int
    target_dim: int
    induced_map_rank: int
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


class QuasiIsoReport(NamedTuple):
    cap: int
    reports: tuple[DegreeReport, ...]
    overall: bool
    first_failure: Optional[int]


def cohomology_basis(model: Model, n: int) -> tuple[int, list[Vec]]:
    """Dimension and representatives of H^n of the model.

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
    """Rank of H(phi~) in degree n, with injectivity/surjectivity flags.

    Well defined because phi~ is a cochain map into (H, 0); above the top
    degree of h the target is zero and the check degenerates to "model
    cohomology vanishes".  phi~ kills every monomial with an odd factor, so
    in block alpha it sees only v^alpha, the block's one monomial of top
    degree: a representative maps to its v^alpha coefficient times
    phi(v^alpha).
    """
    dim_model, reps = cohomology_basis(model, n)
    idx = h.degree_indices(n)
    basis_n = monomials_of_degree(model, n)
    pure_even = [i for i, m in enumerate(basis_n) if not m.odd]
    columns = []
    for rep in reps:
        combo = {basis_n[i]: rep[i] for i in pure_even if rep[i] != 0}
        image = phi_tilde(model, h, combo)
        columns.append(tuple(image[k] for k in idx))
    matrix = MatQ.from_rows(
        [[col[i] for col in columns] for i in range(len(idx))], cols=len(columns))
    rank = rref(matrix).rank
    return DegreeReport(
        degree=n,
        model_cohomology_dim=dim_model,
        target_dim=len(idx),
        induced_map_rank=rank,
        injective=rank == dim_model,
        surjective=rank == len(idx),
    )


def verify_quasi_iso(model: Model, h: GradedAlgebra, cap: int) -> QuasiIsoReport:
    """Degreewise comparison of model cohomology with H, for 0 <= n <= cap.

    The report is explicitly capped: no claim is made beyond the checked
    range.
    """
    if cap < h.top_degree:
        raise ValueError(
            f"cap {cap} is below the top degree {h.top_degree}; the check would be vacuous")
    reports = tuple(induced_map(model, h, n) for n in range(cap + 1))
    failing = [r.degree for r in reports if not r.bijective]
    return QuasiIsoReport(
        cap=cap,
        reports=reports,
        overall=not failing,
        first_failure=failing[0] if failing else None,
    )


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

    def boundary(self, n: int) -> MatQ:
        """d_n: C_n -> C_(n-1); zero-shaped outside 1..top."""
        if 1 <= n <= self.top:
            return self.boundaries[n - 1]
        rows = self.dims[n - 1] if 0 <= n - 1 <= self.top else 0
        cols = self.dims[n] if 0 <= n <= self.top else 0
        return MatQ.zeros(rows, cols)


def validate_square_zero(c: ChainComplexQ):
    for n in range(2, c.top + 1):
        if not c.boundary(n - 1).matmul(c.boundary(n)).is_zero():
            raise ChainComplexError(
                n, f"boundary squared is nonzero: d_{n - 1} o d_{n} != 0")


class DualityRow(NamedTuple):
    degree: int
    homology_dim: int
    dual_cohomology_dim: int
    equal: bool


def duality_check(c: ChainComplexQ) -> list[DualityRow]:
    """Homology of c against cohomology of the degreewise dual complex.

    The dual has differentials transpose(d_(n+1)): C^n -> C^(n+1); both
    sides are computed by independent rank eliminations, and over Q they
    must agree in every degree (any inequality is a bug, here or in the
    input construction).
    """
    validate_square_zero(c)
    homology_rank = {n: rref(c.boundary(n)).rank for n in range(1, c.top + 1)}
    dual_rank = {n: rref(c.boundary(n + 1).transpose()).rank for n in range(c.top)}
    rows = []
    for n in range(c.top + 1):
        hom = c.dims[n] - homology_rank.get(n, 0) - homology_rank.get(n + 1, 0)
        coh = c.dims[n] - dual_rank.get(n, 0) - dual_rank.get(n - 1, 0)
        rows.append(DualityRow(n, hom, coh, hom == coh))
    return rows
