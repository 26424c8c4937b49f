"""Cohomology of the one-stage model.

d preserves multidegree, and block α of the model is the augmented chain
complex of the simplicial complex Δ_α of sets of odd generators whose
targets sum to at most α.  `verify_quasi_iso` reads the model's cohomology
off the reduced homology of these complexes, and the induced map off the
classes of 1, the generators and E: they are the nonzero monomials of the
blocks with Δ_α = {∅}, the only blocks phi~ sees.  The least power of v_i
that is zero in H is always a good object, and once α_i reaches T_i, the
sum of the targets' exponents of v_i, its w joins every face: Δ_α is a
cone and adds nothing.  So only the box α <= T - 1 is walked: 16 of the
495 blocks of (S^2)^4 at cap 13, and 27 of 120 for (CP^2)^3 at cap 12.
`cohomology_basis` and `induced_map` compute the same numbers degree by
degree from the monomial basis; they are the reference the tests compare
against.

Every rank is an integer rank: `linalg.integer_rank` takes the ±1
boundaries of the Δ_α, and `linalg.rank` the induced map's rows, scaled to
integers; no float is involved.  A degree is "bijective" only when the
induced map has full rank on both sides.  The verdict never claims
anything beyond the configured degree cap.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .algebra import GradedAlgebra
from .linalg import ZERO, MatQ, RowSpace, Vec, integer_rank, kernel_basis, rank
from .model import (EEntry, Model, _exponents, blocks_of_degree, differentiate,
                    monomials_of_degree, multidegree, phi_tilde)


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
    """Dimension and representatives of H^n of the model, from its monomials.

    Reference only: `verify_quasi_iso` gets the same dimensions from the
    complexes Δ_α, and the tests compare the two.

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
    idx = h.degree_indices(n)
    basis_n = monomials_of_degree(model, n)
    pure_even = [i for i, m in enumerate(basis_n) if not m.odd]
    columns = []
    for rep in reps:
        combo = {basis_n[i]: rep[i] for i in pure_even if rep[i] != 0}
        image = phi_tilde(model, h, combo)
        columns.append(tuple(image[k] for k in idx))
    mapped = rank(columns)
    return DegreeReport(
        degree=n,
        model_cohomology_dim=dim_model,
        target_dim=len(idx),
        induced_map_rank=mapped,
        injective=mapped == dim_model,
        surjective=mapped == len(idx),
    )


def blocks(model: Model, cap: int):
    """(|α|, α, faces of Δ_α) for every block that can add to a degree <= cap,
    by |α| and then lexicographically.

    Let t_j be the exponent vector of the target of w_j.  Block α of the
    model has one monomial v^(α - Σ_S t) · Π_(j∈S) w_j, in degree |α| - |S|,
    for each face S of Δ_α = {S : Σ_(j∈S) t_j <= α}, and d deletes one w
    with the simplicial sign, so the block is the augmented chain complex of
    Δ_α and its cohomology in degree |α| - s is H~_(s-1)(Δ_α).

    A face of size s sits in degree >= the sum of the s smallest odd
    degrees, so no face of a degree <= cap is larger than s_max, and every
    block meeting those degrees has |α| <= cap + s_max.  If some t_j is a
    power of v_i alone, then once α_i >= T_i = Σ_j t_j[i] that w_j joins
    every face of Δ_α: the complex is a cone, with no reduced homology and
    more than the empty face, so its block adds nothing to the model's
    cohomology or to the induced map, and coordinate i stops at T_i - 1.
    A coordinate with no such target is bounded by degree alone.
    """
    degrees = model.even_degrees
    targets = [multidegree(model, w.target) for w in model.odd_generators]
    supports = [_mask(t) for t in targets]
    # (i, t_j[i]) over the support of each t_j: a face grows by j after a
    # test of these coordinates only
    terms = [[(i, e) for i, e in enumerate(t) if e] for t in targets]
    reach = cap + sum(1 for low in accumulate(sorted(model.odd_degrees)) if low <= cap)
    bound = tuple(sum(t[i] for t in targets) - 1 if (1 << i) in supports else reach // d
                  for i, d in enumerate(degrees))
    for n in range(reach + 1):
        for alpha in _exponents(degrees, n, bound):
            # the support test is one integer operation and rejects most of
            # a wedge's targets before their exponents are compared
            outside = ~_mask(alpha)
            vertices = [(j, terms[j]) for j, support in enumerate(supports)
                        if not support & outside and all(alpha[i] >= e for i, e in terms[j])]
            yield n, alpha, faces(vertices, alpha)


def faces(vertices: list, alpha: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Faces of Δ_α by size, each an ascending tuple of odd-generator
    indices, in lexicographic order; faces(...)[0] == [()].

    `vertices` are the (j, terms of t_j) whose t_j <= α, ascending in j.
    """
    level = [((), list(alpha), 0)]  # a face S, α - Σ_S t, where its extensions start
    out = []
    while level:
        out.append([face for face, _, _ in level])
        grown = []
        for face, room, start in level:
            for p in range(start, len(vertices)):
                j, terms = vertices[p]
                if all(room[i] >= e for i, e in terms):
                    rest = room.copy()
                    for i, e in terms:
                        rest[i] -= e
                    grown.append((face + (j,), rest, p + 1))
        level = grown
    return out


def boundary_rank(levels: list[list[tuple[int, ...]]], s: int) -> int:
    """Rank of the ±1 boundary from the faces of size s to those of size s - 1,
    given the faces by size as `faces` returns them."""
    if not 0 < s < len(levels):
        return 0
    if s == 1:
        return 1  # the augmentation onto the empty face
    row_of = {face: i for i, face in enumerate(levels[s - 1])}
    rows = []
    for face in levels[s]:
        row = [0] * len(levels[s - 1])
        for p in range(s):
            row[row_of[face[:p] + face[p + 1:]]] = -1 if p % 2 else 1
        rows.append(row)
    return integer_rank(rows)


def _mask(exponents: tuple[int, ...]) -> int:
    """The support of an exponent vector as a bit mask."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


def verify_quasi_iso(model: Model, h: GradedAlgebra, e: tuple[EEntry, ...],
                     cap: int) -> QuasiIsoReport:
    """Degreewise comparison of model cohomology with H, for 0 <= n <= cap.

    `e` is `compute_E(h, model.generators)`.  Block α adds H~_(s-1)(Δ_α) to
    H^(|α|-s).  phi~ kills every monomial with an odd factor, so only the
    blocks with Δ_α = {∅} reach H, through phi(v^α).  phi(v^α) is nonzero
    exactly when v^α is 1, a generator or an entry of E, and no target
    divides such a monomial: a target is zero in H, and so is each of its
    multiples.  So the image in degree n is the span of the classes of 1,
    the generators and E in degree n, and its rank is the induced map's.
    The one precondition is that every target is zero in H (phi~ is a
    cochain map), which holds for `build_model` and any subset of its good
    objects.  The report is explicitly capped: no claim is made beyond the
    checked range.
    """
    if cap < h.top_degree:
        raise ValueError(
            f"cap {cap} is below the top degree {h.top_degree}; the check would be vacuous")
    dims = [0] * (cap + 1)
    for n, _, levels in blocks(model, cap):
        low = max(0, n - cap)
        ranks = [boundary_rank(levels, s) for s in range(low, len(levels) + 1)]
        for s in range(low, len(levels)):
            dims[n - s] += len(levels[s]) - ranks[s - low] - ranks[s - low + 1]
    nonzero = [(0, h.unit())] + [(g.degree, g.class_vector) for g in model.generators]
    nonzero += [(entry.monomial.degree, entry.class_vector) for entry in e]
    reports = []
    for n in range(cap + 1):
        idx = h.degree_indices(n)
        mapped = rank([v[k] for k in idx] for degree, v in nonzero if degree == n)
        reports.append(DegreeReport(
            degree=n,
            model_cohomology_dim=dims[n],
            target_dim=len(idx),
            induced_map_rank=mapped,
            injective=mapped == dims[n],
            surjective=mapped == len(idx),
        ))
    failing = [r.degree for r in reports if not r.bijective]
    return QuasiIsoReport(
        cap=cap,
        reports=tuple(reports),
        overall=not failing,
        first_failure=failing[0] if failing else None,
    )
