"""Cohomology of the one-stage model.

d preserves the exponents α that count each w as its target, and block α
of the model is the augmented chain complex of the simplicial complex Δ_α
of sets of odd generators whose targets sum to at most α.  The model's
cohomology is read off their reduced homology, and the induced map off the
classes of 1, the generators and E: they are the nonzero monomials of the
blocks with Δ_α = {∅}, the only blocks phi~ sees.  The least power of v_i
that is zero in H is always a good object, and once α_i reaches T_i, the
sum of the targets' exponents of v_i, its w joins every face: Δ_α is a
cone and adds nothing.  So only the box α <= T - 1 is walked, one block per
twin orbit (`blocks`) times its size: 5 blocks for the 16 of the box of
(S^2)^4 at cap 13 (of 495), 10 for the 27 of (CP^2)^3 at cap 12 (of 120),
and 7 for the 165 of the 8-fold S^2 wedge at its default cap 5.
`reference.cohomology_basis` and `reference.induced_map` compute the same
numbers degree by degree from the monomial basis; they are the reference
the tests compare against.

Every rank is `linalg.rank`, a sparse integer elimination: of the ±1
boundaries of the Δ_α, and of the classes that give the induced map; no
float is involved.  A degree is "bijective" only when the induced map has
full rank on both sides.  The verdict never claims anything beyond the
configured degree cap.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate
from math import factorial, prod

from .algebra import GradedAlgebra
from .linalg import _moved_to_reference, rank
from .model import EEntry, Model

__getattr__ = _moved_to_reference(__name__, {"cohomology_basis", "induced_map"})


class DegreeReport(namedtuple("DegreeReport", (
        "degree model_cohomology_dim target_dim induced_map_rank injective surjective"))):
    """One degree of the check: the model's cohomology, H, and the induced map's rank."""

    __slots__ = ()

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


class QuasiIsoReport(namedtuple("QuasiIsoReport", "cap reports overall first_failure")):
    """The capped check: one `DegreeReport` per degree 0..cap, and the first failure."""

    __slots__ = ()


def box(model: Model) -> list:
    """T_i - 1 for each coordinate i with a target that is a power of v_i
    alone, T_i the sum of the targets' exponents of v_i; None for the others."""
    total = [0] * len(model.generators)
    for i, e in (term for w in model.odd_generators for term in w.target.even):
        total[i] += e
    pure = {w.target.even[0][0] for w in model.odd_generators if len(w.target.even) == 1}
    return [t - 1 if i in pure else None for i, t in enumerate(total)]


def covered_degree(model: Model, h: GradedAlgebra):
    """max(box degree Σ_i (T_i - 1)·|v_i|, top degree of h), above which the
    model's cohomology and H both vanish, when every coordinate has a `box`
    bound; else None.  A check whose cap reaches it covers every degree."""
    bound = box(model)
    return None if None in bound else max(
        h.top_degree, sum(b * d for b, d in zip(bound, model.even_degrees)))


def blocks(model: Model, cap: int):
    """(|α|, α, orbit size, faces of Δ_α) for one α per twin orbit of the
    blocks that can add to a degree <= cap, lexicographically.

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
    cohomology or to the induced map, and coordinate i stops at T_i - 1
    (`box`).  A coordinate with no such target is bounded by degree alone.
    No α of the box lies above Σ_i bound_i·|v_i|, so the walk stops there.
    A face grows by j after a test of the support of the sparse target t_j.

    Coordinates i and r are twins when |v_i| = |v_r| and the swap (i r) fixes
    the set of targets; then their bounds agree, and Δ_α ≅ Δ_(i r)α.  Twins
    form classes, as (i j) = (i r)(j r)(i r): i is tested against one member r
    of each, on the targets meeting {i, r} only, since (i r) fixes the others.
    """
    degrees = model.even_degrees
    targets = [w.target.even for w in model.odd_generators]
    supports = [sum(1 << i for i, _ in t) for t in targets]
    reach = cap + sum(1 for low in accumulate(sorted(model.odd_degrees)) if low <= cap)
    bound = [reach // d if b is None else b for b, d in zip(box(model), degrees)]
    known, meets, twin = set(targets), [[] for _ in degrees], []
    for i, t in ((i, t) for t in targets for i, _ in t):  # meets[i]: the targets v_i divides
        meets[i].append(t)
    for i, d in enumerate(degrees):  # twin[i]: the first member of i's class
        twin.append(next((r for r in dict.fromkeys(twin) if degrees[r] == d and all(
            tuple(sorted(({i: r, r: i}.get(k, k), e) for k, e in t)) in known
            for t in meets[i] + meets[r])), i))
    limit = min(reach, sum(b * d for b, d in zip(bound, degrees)))
    for n, alpha, size in orbits(degrees, bound, twin, limit):
        # the support test is one integer operation and rejects most of
        # a wedge's targets before their exponents are compared
        outside = ~sum(1 << i for i, a in enumerate(alpha) if a)
        vertices = [(j, targets[j]) for j, support in enumerate(supports)
                    if not support & outside and all(alpha[i] >= e for i, e in targets[j])]
        yield n, alpha, size, faces(vertices, alpha)


def orbits(degrees, bound, twin, limit: int):
    """(|α|, α, orbit size), lexicographically, for each α <= `bound` with |α| <= `limit`
    that does not rise along a twin class (`twin[i]` names i's class): one per orbit."""
    prev = [max((j for j in range(i) if twin[j] == c), default=-1) for i, c in enumerate(twin)]
    group = prod(map(factorial, Counter(twin).values()))  # the orbit of α: group / stabilizer
    alpha, n = [0] * len(degrees) + [max(bound, default=0)], 0  # alpha[-1] bounds any α_i
    while True:
        yield n, tuple(alpha[:-1]), group // prod(
            map(factorial, Counter(zip(twin, alpha)).values()))
        for i in reversed(range(len(degrees))):  # grow the last coordinate that can grow
            if n + degrees[i] <= limit and alpha[i] < min(bound[i], alpha[prev[i]]):
                alpha[i] += 1
                n += degrees[i]
                break
            n -= alpha[i] * degrees[i]
            alpha[i] = 0
        else:
            return


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
    # dropping a later vertex gives an earlier face, so p falls as the column rises
    return rank(tuple((row_of[face[:p] + face[p + 1:]], -1 if p % 2 else 1)
                      for p in reversed(range(s))) for face in levels[s])


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
    for n, _, size, levels in blocks(model, cap):
        low = max(0, n - cap)
        ranks = [boundary_rank(levels, s) for s in range(low, len(levels) + 1)]
        for s in range(low, len(levels)):
            dims[n - s] += size * (len(levels[s]) - ranks[s - low] - ranks[s - low + 1])
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
