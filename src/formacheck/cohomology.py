"""Cohomology of the one-stage model.

d preserves the exponents α that count each w as its target, and block α
of the model is the augmented chain complex of the simplicial complex Δ_α
of sets of odd generators whose targets sum to at most α.  The model's
cohomology is read off their reduced homology, and the induced map off the
classes of 1, the generators and E: they are the nonzero monomials of the
blocks with Δ_α = {∅}, the only blocks phi~ sees.  The least power of v_i
that is zero in H is always a good object, and once α_i reaches T_i, the
sum of the targets' exponents of v_i, its w joins every face: Δ_α is a
cone and adds nothing.  So only the box α <= T - 1 is walked: 16 of the
495 blocks of (S^2)^4 at cap 13, and 27 of 120 for (CP^2)^3 at cap 12.
`reference.cohomology_basis` and `reference.induced_map` compute the same
numbers degree by degree from the monomial basis; they are the reference
the tests compare against.

Every rank is an integer rank: `linalg.integer_rank` takes the ±1
boundaries of the Δ_α, and `linalg.rank` the classes that give the induced
map, scaled to integers; no float is involved.  A degree is "bijective"
only when the induced map has full rank on both sides.  The verdict never
claims anything beyond the configured degree cap.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .algebra import GradedAlgebra
from .linalg import _moved_to_reference, integer_rank, rank
from .model import EEntry, Model, _exponents

__getattr__ = _moved_to_reference(__name__, {"cohomology_basis", "induced_map"})


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
    A coordinate with no such target is bounded by degree alone.  No α of
    the box lies above Σ_i bound_i·|v_i|, so the walk stops there.  A face
    grows by j after a test of the support of the sparse target t_j only.
    """
    degrees = model.even_degrees
    targets = [w.target.even for w in model.odd_generators]
    supports = [sum(1 << i for i, _ in t) for t in targets]
    total = [0] * len(degrees)
    for i, e in (term for t in targets for term in t):
        total[i] += e
    reach = cap + sum(1 for low in accumulate(sorted(model.odd_degrees)) if low <= cap)
    bound = tuple(total[i] - 1 if (1 << i) in supports else reach // d
                  for i, d in enumerate(degrees))
    for n in range(min(reach, sum(b * d for b, d in zip(bound, degrees))) + 1):
        for alpha in _exponents(degrees, n, bound):
            # the support test is one integer operation and rejects most of
            # a wedge's targets before their exponents are compared
            outside = ~sum(1 << i for i, a in enumerate(alpha) if a)
            vertices = [(j, targets[j]) for j, support in enumerate(supports)
                        if not support & outside and all(alpha[i] >= e for i, e in targets[j])]
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
    objects.  h is graded (`validate` ensures it), so each class lies in the
    degree of its first basis element; the classes are ranked by degree, on
    the columns they touch, and a degree with no class has rank 0.  The
    report is explicitly capped: no claim is made beyond the checked range.
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
    classes = {}
    for v in [h.unit()] + [g.class_vector for g in model.generators] + [x.class_vector for x in e]:
        classes.setdefault(h.degrees[v[0][0]], []).append(v)
    reports = []
    for n in range(cap + 1):
        target = h.dim_in_degree(n)
        mapped = rank(classes[n]) if n in classes else 0
        reports.append(DegreeReport(
            degree=n,
            model_cohomology_dim=dims[n],
            target_dim=target,
            induced_map_rank=mapped,
            injective=mapped == dims[n],
            surjective=mapped == target,
        ))
    failing = [r.degree for r in reports if not r.bijective]
    return QuasiIsoReport(
        cap=cap,
        reports=tuple(reports),
        overall=not failing,
        first_failure=failing[0] if failing else None,
    )
