import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from sympy.utilities.iterables import multiset_permutations

import formacheck as fc
from formacheck import cohomology
from formacheck.cohomology import blocks, boundary_rank, faces, orbits
from formacheck.corpus import even_sphere, product, wedge
from formacheck.linalg import rank
from formacheck.model import build_model, good_objects
from formacheck.reference import (cohomology_basis, differential_matrix, induced_map,
                                  monomials_of_degree, multidegree, rref)

import oracles
from util import (GROEBNER_RINGS, algebra, change_basis, corpus_objects, cp2, cp2_power_3,
                  cp2_sharp_cp2, dependent_family, dependent_pair, random_even_monomial_algebra,
                  s2, s2_power_4, sphere_wedge_8, wedge_s2_s2)


def model_of(h):
    gens = fc.choose_generators(h)
    return build_model(gens, good_objects(gens, fc.compute_E(h, gens)))


def verify(model, h, cap):
    """`verify_quasi_iso` with the E of the model's generators."""
    return fc.verify_quasi_iso(model, h, fc.compute_E(h, model.generators), cap)


def block_reference(model, h, cap):
    """The per-degree table from the monomial blocks, one degree at a time."""
    return tuple(induced_map(model, h, n) for n in range(cap + 1))


def targets_of(model):
    return [multidegree(model, w.target) for w in model.odd_generators]


def complex_faces(model, alpha):
    """Faces of Δ_α by `cohomology.faces`, on the vertices t_j <= α."""
    vertices = [(j, [(i, e) for i, e in enumerate(t) if e])
                for j, t in enumerate(targets_of(model))
                if all(e <= a for e, a in zip(t, alpha))]
    return faces(vertices, alpha)


def reduced_betti(levels, s):
    """dim H~_(s-1) of the complex with these faces (by size)."""
    return len(levels[s]) - boundary_rank(levels, s) - boundary_rank(levels, s + 1)


def walk_bounds(model, cap):
    """Per coordinate, T_i - 1 where a target is a power of v_i alone, else
    the degree bound of `oracles.brute_blocks`, from the dense targets."""
    targets = targets_of(model)
    total = [sum(column) for column in zip(*targets)] or [0] * len(model.generators)
    pure = {i for t in targets for i, e in enumerate(t) if e == sum(t)}
    reach = max(n for n, _ in oracles.brute_blocks(model, cap))
    return [total[i] - 1 if i in pure else reach // d for i, d in enumerate(model.even_degrees)]


def twin_classes(model, cap):
    """The classes of coordinates i, j with |v_i| = |v_j|, equal walk bounds and
    a swap that maps the set of dense targets onto itself, testing every pair."""
    targets, bound, degrees = set(targets_of(model)), walk_bounds(model, cap), model.even_degrees

    def swapped(t, i, j):
        t = list(t)
        t[i], t[j] = t[j], t[i]
        return tuple(t)

    classes = {tuple(j for j in range(len(degrees))
                     if (degrees[i], bound[i]) == (degrees[j], bound[j])
                     and {swapped(t, i, j) for t in targets} == targets)
               for i in range(len(degrees))}
    assert sorted(i for c in classes for i in c) == list(range(len(degrees)))
    return sorted(classes)


def orbit(alpha, classes):
    """{β: σ} for every distinct permutation β of α within its twin classes,
    with one σ (coordinate i goes to σ[i]) such that β = σα."""
    out = {}
    for values in itertools.product(*(multiset_permutations([alpha[i] for i in c])
                                      for c in classes)):
        beta, sigma = list(alpha), list(range(len(alpha)))
        for c, arranged in zip(classes, values):
            for v in set(arranged):
                for i, j in zip([i for i in c if alpha[i] == v],
                                [j for j, a in zip(c, arranged) if a == v]):
                    beta[j], sigma[i] = v, j
        out[tuple(beta)] = sigma
    return out


def moved_faces(model, levels, sigma):
    """The faces of Δ_α carried to those of Δ_σα: w_j goes to the w whose
    target is σ t_j."""
    targets = targets_of(model)
    where = {t: j for j, t in enumerate(targets)}
    image = [0] * len(model.generators)
    to = []
    for t in targets:
        for i, e in enumerate(t):
            image[sigma[i]] = e
        to.append(where[tuple(image)])
    return [sorted(tuple(sorted(to[j] for j in face)) for face in level) for level in levels]


def walked_blocks(model, cap):
    """{α: faces of Δ_α} for every block of the walk's orbits, each orbit
    expanded from its representative; checks each orbit's size on the way."""
    classes = twin_classes(model, cap)
    walked = {}
    for n, alpha, size, levels in blocks(model, cap):
        members = orbit(alpha, classes)
        assert (len(members), max(members)) == (size, alpha)
        for beta, sigma in members.items():
            assert sum(b * d for b, d in zip(beta, model.even_degrees)) == n
            assert beta not in walked
            walked[beta] = moved_faces(model, levels, sigma)
    return walked


# ---- model cohomology ----

def test_sphere_cohomology_degree_2():
    model = model_of(s2())
    dim, reps = cohomology_basis(model, 2)
    assert dim == 1
    assert reps == [(Fraction(1),)]  # the class of v


def test_sphere_cohomology_degree_4_exact():
    model = model_of(s2())
    dim, reps = cohomology_basis(model, 4)
    assert (dim, reps) == (0, [])  # v^2 = dw


def test_degree_zero_constants():
    for obj in corpus_objects()[:4]:
        model = model_of(algebra(obj))
        dim, reps = cohomology_basis(model, 0)
        assert dim == 1
        assert reps == [(Fraction(1),)]


def test_induced_map_sphere_bijective():
    h = s2()
    model = model_of(h)
    report = induced_map(model, h, 2)
    assert (report.model_cohomology_dim, report.target_dim,
            report.induced_map_rank) == (1, 1, 1)
    assert report.bijective


def test_induced_map_degree_zero():
    h = cp2()
    report = induced_map(model_of(h), h, 0)
    assert report.bijective
    assert report.induced_map_rank == 1


def test_wedge_degree_5_not_injective():
    h = wedge_s2_s2()
    report = induced_map(model_of(h), h, 5)
    assert report.model_cohomology_dim == 2
    assert report.target_dim == 0
    assert not report.injective
    assert report.surjective


def test_verify_quasi_iso_sphere():
    h = s2()
    report = verify(model_of(h), h, 12)
    assert report.overall and report.first_failure is None
    dims = [r.model_cohomology_dim for r in report.reports]
    assert dims == [1, 0, 1] + [0] * 10


def test_verify_quasi_iso_cp2():
    h = cp2()
    report = verify(model_of(h), h, 12)
    assert report.overall
    assert [r.model_cohomology_dim for r in report.reports] == \
        [1, 0, 1, 0, 1] + [0] * 8


def test_verify_quasi_iso_wedge_first_failure():
    h = wedge_s2_s2()
    report = verify(model_of(h), h, 12)
    assert not report.overall
    assert report.first_failure == 5


def test_cap_below_top_rejected():
    h = cp2()
    with pytest.raises(ValueError):
        verify(model_of(h), h, 3)


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_model_dims_match_brute_force_oracle(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    report = verify(model, h, cap)
    assert [r.model_cohomology_dim for r in report.reports] == \
        oracles.brute_model_dims(model, cap)
    assert report.reports == block_reference(model, h, cap)


@pytest.mark.parametrize("extra", [1, 4])
@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_table_matches_references_past_the_top(obj_index, extra):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = h.top_degree + extra
    report = verify(model, h, cap)
    assert report.reports == block_reference(model, h, cap)
    assert [r.model_cohomology_dim for r in report.reports] == \
        oracles.brute_model_dims(model, cap)


def test_table_matches_references_on_larger_inputs():
    # (S^2)^4 is formal with Poincare polynomial (1 + t^2)^4; the 8-fold
    # wedge has 8*C(9,2) - C(10,3) classes x_i*w_jk in degree 5 (harness
    # closed form); the dependent family is inconclusive and small enough
    # for the sympy oracle
    h = s2_power_4()
    model = model_of(h)
    report = verify(model, h, 17)
    assert report.reports == block_reference(model, h, 17)
    poincare = [comb(4, n // 2) if n % 2 == 0 else 0 for n in range(18)]
    assert [r.model_cohomology_dim for r in report.reports] == poincare
    assert report.overall

    h = sphere_wedge_8()
    model = model_of(h)
    report = verify(model, h, 5)
    assert report.reports == block_reference(model, h, 5)
    assert [r.model_cohomology_dim for r in report.reports] == \
        [1, 0, 8, 0, 0, 8 * comb(9, 2) - comb(10, 3)]
    assert report.first_failure == 5

    h = dependent_family()
    model = model_of(h)
    cert = fc.certify(h)
    assert cert.verdict.classification == "INCONCLUSIVE"
    assert cert.quasi_isomorphism.reports == block_reference(model, h, cert.cap)
    assert [r.model_cohomology_dim for r in cert.quasi_isomorphism.reports] == \
        oracles.brute_model_dims(model, cert.cap)

    # caps far above the box degree B = sum_i (T_i - 1)|v_i|: the walk stops
    # at B, and every row above it is zero on both sides
    for h in (s2_power_4(), cp2_power_3(), dependent_family()):
        model = model_of(h)
        totals = [sum(column) for column in zip(*targets_of(model))]
        box = sum((t - 1) * d for t, d in zip(totals, model.even_degrees))
        report = verify(model, h, 3 * box + 7)
        assert report.reports == block_reference(model, h, 3 * box + 7)
        assert max(sum(a * d for a, d in zip(alpha, model.even_degrees))
                   for alpha in walked_blocks(model, 3 * box + 7)) == box
        assert not any(r.model_cohomology_dim for r in report.reports[box + 1:])


@pytest.mark.parametrize("rebased", [False, True], ids=["plain", "rebased"])
def test_cp2_sharp_cp2_matches_references(rebased):
    # a ring monomial in no basis: E and the good objects are read off a
    # quadratic form, not a monomial ideal; inconclusive, failing in degree 4
    h = cp2_sharp_cp2()
    h = change_basis(h, random.Random(1)) if rebased else h
    cert = fc.certify(h)
    assert (cert.verdict.classification, cert.exit_code, cert.quasi_isomorphism.first_failure) \
        == (fc.INCONCLUSIVE, 2, 4)
    model = model_of(h)
    report = verify(model, h, 13)
    assert report.reports == block_reference(model, h, 13)
    assert [r.model_cohomology_dim for r in report.reports] == oracles.brute_model_dims(model, 13)


# name -> (first failing degree, |E|, |E| after `change_basis(·, Random(1))`)
GROEBNER_VERDICTS = {"grassmannian_2_4": (6, 6, 6), "flag_3": (4, 5, 5),
                     "quadric_intersection": (4, 10, 16), "grassmannian_2_5": (8, 13, 13),
                     "flag_4": (4, 46, 70)}


@pytest.mark.parametrize("rebased", [False, True], ids=["plain", "rebased"])
@pytest.mark.parametrize("name", sorted(GROEBNER_RINGS))
def test_groebner_rings_match_references(name, rebased):
    # rings monomial in no basis, all inconclusive; Fl(3) and the rebased
    # quadric intersection have table rows of several terms
    h = GROEBNER_RINGS[name]()
    h = change_basis(h, random.Random(1)) if rebased else h
    first, size, rebased_size = GROEBNER_VERDICTS[name]
    cert = fc.certify(h)
    assert (cert.verdict.classification, cert.exit_code, cert.quasi_isomorphism.first_failure,
            len(cert.e_family)) == (fc.INCONCLUSIVE, 2, first, rebased_size if rebased else size)
    model = model_of(h)
    report = verify(model, h, 13)
    assert report.reports == block_reference(model, h, 13)
    assert [r.model_cohomology_dim for r in report.reports] == oracles.brute_model_dims(model, 13)


def s2_wedge(folds):
    s2_obj = even_sphere(2)
    obj = s2_obj
    for _ in range(folds - 1):
        obj = wedge(obj, s2_obj)
    return algebra(obj)


@pytest.mark.parametrize("folds, cap", [(3, 9), (4, 7)])
def test_wedge_dims_match_brute_above_the_default_cap(folds, cap):
    # past the default cap 5, boundaries from faces of size s >= 2 have
    # nonzero rank, so the integer elimination decides some dimensions
    h = s2_wedge(folds)
    model = model_of(h)
    report = verify(model, h, cap)
    assert [r.model_cohomology_dim for r in report.reports] == \
        oracles.brute_model_dims(model, cap)
    assert any(boundary_rank(levels, s) for levels in walked_blocks(model, cap).values()
               for s in range(2, len(levels)))


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_block_reference_on_random_algebras(seed):
    h = random_even_monomial_algebra(random.Random(9100 + seed))
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    assert verify(model, h, cap).reports == block_reference(model, h, cap)
    assert_matches_without_each_good_object(h)


def assert_matches_without_each_good_object(h):
    # with one good object m left out, no target divides v^m: its block is
    # bare, but m is zero in H and not in E, so it adds nothing to the rank
    # read off E; a left-out pure power also leaves its generator's
    # coordinate bounded by degree instead of by T_i - 1
    gens = fc.choose_generators(h)
    goods = good_objects(gens, fc.compute_E(h, gens))
    cap = 2 * h.top_degree + 1
    for k in range(len(goods)):
        model = build_model(gens, goods[:k] + goods[k + 1:])
        assert verify(model, h, cap).reports == block_reference(model, h, cap)


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_table_matches_block_reference_without_a_pure_power(obj_index):
    assert_matches_without_each_good_object(algebra(corpus_objects()[obj_index]))


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_truncations_faces_and_euler(obj_index):
    # each block's faces are the subsets S with sum of targets <= alpha, for
    # every block the cap reads and for those the walk yields; their
    # alternating count is the alternating sum of the reduced Betti numbers
    # (Euler-Poincare); a block the walk reaches through a twin swap gets the
    # representative's faces carried over by that swap
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    targets = targets_of(model)
    walked = walked_blocks(model, cap)
    for _, alpha in oracles.brute_blocks(model, cap):
        levels = complex_faces(model, alpha)
        brute = [[S for S in itertools.combinations(range(len(targets)), s)
                  if all(sum(targets[j][i] for j in S) <= a for i, a in enumerate(alpha))]
                 for s in range(len(targets) + 1)]
        assert levels == [level for level in brute if level]
        assert walked.pop(alpha, levels) == levels
        assert sum((-1) ** s * len(level) for s, level in enumerate(levels)) == \
            sum((-1) ** s * reduced_betti(levels, s) for s in range(len(levels)))
    assert not walked  # the walk stays within the blocks the cap reads


CONE_CASES = (
    [pytest.param(lambda k=k: algebra(corpus_objects()[k]), None, id=f"corpus-{k}")
     for k in range(len(corpus_objects()))]
    + [pytest.param(lambda seed=seed: random_even_monomial_algebra(random.Random(9400 + seed)),
                    None, id=f"random-{seed}") for seed in range(20)]
    + [pytest.param(lambda folds=folds: s2_wedge(folds), cap, id=f"wedge-{folds}")
       for folds, cap in [(3, 9), (4, 7)]])


@pytest.mark.parametrize("make, cap", CONE_CASES)
def test_blocks_outside_the_box_are_cones(make, cap):
    # the walk yields exactly the blocks with alpha_i <= T_i - 1 wherever a
    # target is a power of v_i alone, and every other block the cap reads is
    # a cone; with one generator v the rim block v^(T-1) is nonzero and bare,
    # so the box cannot shrink
    h = make()
    model = model_of(h)
    cap = 2 * h.top_degree + 1 if cap is None else cap
    targets = targets_of(model)
    total = [sum(column) for column in zip(*targets)]
    pure = {i for t in targets for i, e in enumerate(t) if e == sum(t)}
    assert pure == set(range(len(model.generators)))
    walked = set(walked_blocks(model, cap))
    rim = 0
    for n, alpha in oracles.brute_blocks(model, cap):
        outside = any(alpha[i] >= total[i] for i in pure)
        assert (alpha in walked) != outside
        levels = complex_faces(model, alpha)
        read = range(max(0, n - cap), len(levels))
        cone = len(levels) > 1 and not any(reduced_betti(levels, s) for s in read)
        assert cone or not outside
        rim += not cone and any(alpha[i] == total[i] - 1 for i in pure)
    assert rim or len(model.generators) > 1


def cycle(k):
    """Q[x_0..x_(k-1)]/(x_i^2, x_i x_(i+1)), indices mod k, all in degree 2:
    the products of pairwise nonadjacent vertices of a k-cycle.  All
    coordinates share a degree and a bound, but a swap fixes the targets only
    where it is a symmetry of the cycle."""
    faces = [S for s in range(k + 1) for S in itertools.combinations(range(k), s)
             if all((i + 1) % k not in S for i in S)]
    label = {S: "x" + "_".join(map(str, S)) if S else "1" for S in faces}
    products = {(label[S], label[T]): {label[tuple(sorted(S + T))]: 1}
                for p, S in enumerate(faces) for T in faces[p:]
                if S and T and tuple(sorted(S + T)) in label}
    return fc.GradedAlgebra.from_products([(label[S], 2 * len(S)) for S in faces], "1", products)


@pytest.mark.parametrize("k, classes", [(4, [(0, 2), (1, 3)]), (5, [(i,) for i in range(5)]),
                                        (6, [(i,) for i in range(6)])])
def test_cycles_rank_only_true_twins_together(k, classes):
    # equal degrees and bounds do not make twins: on the 5-cycle no swap
    # fixes the targets, and each block is its own orbit
    h = cycle(k)
    model = model_of(h)
    assert twin_classes(model, 9) == classes
    assert verify(model, h, 9).reports == block_reference(model, h, 9)


ORBIT_CASES = (
    [pytest.param(lambda folds=folds: s2_wedge(folds), cap, id=f"wedge-{folds}-cap-{cap}")
     for folds, cap in [(3, 9), (4, 7), (8, 5)]]
    + [pytest.param(lambda k=k: cycle(k), 9, id=f"cycle-{k}") for k in (4, 5, 6)]
    + [pytest.param(s2_power_4, 13, id="s2-power-4"),
       pytest.param(cp2_power_3, 12, id="cp2-power-3"),
       pytest.param(lambda: algebra(product(*[wedge(even_sphere(2), even_sphere(2))] * 2)),
                    None, id="wedge-s2-s2-squared")]
    + [pytest.param(lambda seed=seed: random_even_monomial_algebra(random.Random(9800 + seed)),
                    None, id=f"random-{seed}") for seed in range(12)])


@pytest.mark.parametrize("make, cap", ORBIT_CASES)
def test_orbits_partition_the_box(make, cap):
    # every block of the box lies in exactly one orbit the walk yields, and
    # in each degree the orbit sizes add up to the box's block count
    h = make()
    model = model_of(h)
    cap = 2 * h.top_degree + 1 if cap is None else cap
    bound = walk_bounds(model, cap)
    box = [(n, alpha) for n, alpha in oracles.brute_blocks(model, cap)
           if all(a <= b for a, b in zip(alpha, bound))]
    classes = twin_classes(model, cap)
    seen = Counter(beta for _, alpha, _, _ in blocks(model, cap) for beta in orbit(alpha, classes))
    assert seen == Counter(alpha for _, alpha in box)
    sizes = Counter()
    for n, _, size, _ in blocks(model, cap):
        sizes[n] += size
    assert sizes == Counter(n for n, _ in box)


def test_wedge_rows_match_the_reference_past_the_default_cap():
    # all 8 coordinates of the 8-fold wedge are twins, so the walk ranks one
    # block per orbit and multiplies; the degree-wise reference ranks every
    # monomial of each degree
    h = sphere_wedge_8()
    model = model_of(h)
    report = verify(model, h, 9)
    assert report.reports == block_reference(model, h, 9)
    assert [r.model_cohomology_dim for r in report.reports] == \
        [1, 0, 8, 0, 0, 168, 0, 336, 1512, 0]


def test_orbits_enumerate_past_the_recursion_limit():
    # one coordinate per level of the old recursive walk would raise
    # RecursionError here; the walk is iterative
    k = sys.getrecursionlimit() + 100
    units = [(alpha, size) for n, alpha, size in orbits((2,) * k, (3,) * k, list(range(k)), 2)
             if n == 2]
    assert sorted(units) == sorted((tuple(int(i == j) for i in range(k)), 1) for j in range(k))
    found = [(alpha, size) for n, alpha, size in orbits((2,) * k, (3,) * k, [0] * k, 4) if n == 4]
    assert [alpha[:3] for alpha, _ in found] == [(1, 1, 0), (2, 0, 0)]
    assert all(not any(alpha[3:]) for alpha, _ in found)
    assert sum(size for _, size in found) == k * (k + 1) // 2
    # the walk of the model of a product of k copies of S^2 at cap 5: blocks
    # up to |α| = 6, four orbits of squarefree α
    gens = tuple(fc.Generator(f"v{i + 1}", 2, ((0, Fraction(1)),)) for i in range(k))
    odd = tuple(fc.OddGenerator(f"w{i + 1}", 3, fc.Monomial(((i, 2),), (), 4)) for i in range(k))
    walked = [(n, alpha[:4], size) for n, alpha, size, _ in blocks(fc.Model(gens, odd), 5)]
    assert walked == [(0, (0, 0, 0, 0), 1), (2, (1, 0, 0, 0), k), (4, (1, 1, 0, 0), comb(k, 2)),
                      (6, (1, 1, 1, 0), comb(k, 3))]


def chain_dims_series(model, cap):
    """Coefficients up to t^cap of prod_v (1 - t^|v|)^-1 * prod_w (1 + t^|w|)."""
    series = [1] + [0] * cap
    for d in model.even_degrees:
        for n in range(d, cap + 1):
            series[n] += series[n - d]
    for d in model.odd_degrees:
        for n in range(cap, d - 1, -1):
            series[n] += series[n - d]
    return series


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_truncations_count_every_monomial_once(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    counts = [0] * (cap + 1)
    for n, alpha in oracles.brute_blocks(model, cap):
        for s, level in enumerate(complex_faces(model, alpha)):
            if n - s <= cap:
                counts[n - s] += len(level)
    assert counts == chain_dims_series(model, cap)
    assert counts == [len(monomials_of_degree(model, n)) for n in range(cap + 1)]


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_low_degrees_are_unit_and_empty(obj_index):
    # H^0 = Q and H^1 = 0 for every corpus model (no degree-1 classes)
    h = algebra(corpus_objects()[obj_index])
    report = verify(model_of(h), h, h.top_degree)
    assert (report.reports[0].model_cohomology_dim,
            report.reports[1].model_cohomology_dim) == (1, 0)
    assert report.reports[0].bijective and report.reports[1].bijective


ONTO_CASES = (
    [pytest.param(lambda k=k: algebra(corpus_objects()[k]), id=str(k))
     for k in range(len(corpus_objects()))]
    + [pytest.param(make, id=make.__name__) for make in (dependent_family, dependent_pair)]
    + [pytest.param(lambda k=k: change_basis(algebra(corpus_objects()[k]), random.Random(9700 + k)),
                    id=f"rebased-{k}") for k in range(len(corpus_objects()))])


@pytest.mark.parametrize("make", ONTO_CASES)
def test_surjective_up_to_top_degree(make):
    # 1, the generators and E span H, so the induced map is onto in every
    # degree, also when E is dependent or the basis is not monomial: only
    # injectivity can fail
    h = make()
    report = fc.certify(h).quasi_isomorphism
    assert all(r.induced_map_rank == r.target_dim for r in report.reports)


def test_induced_map_ranks_each_class_degree_once(monkeypatch):
    # (S^2)^8 at cap 200: the classes of 1, the generators and E lie in the
    # even degrees up to 16, and no degree above them is ranked at all.  Its
    # basis is the products x_S of the 2-classes over the subsets S of 8,
    # with x_S x_T = x_(S | T) when S and T are disjoint and 0 otherwise
    subsets = sorted(range(256), key=lambda s: (bin(s).count("1"), s))
    basis = [(f"x{s}", 2 * bin(s).count("1")) for s in subsets]
    h = fc.GradedAlgebra.from_products(basis, "x0", {
        (f"x{s}", f"x{t}"): {f"x{s | t}": 1} for i, s in enumerate(subsets)
        for t in subsets[i + 1:] if s and not s & t})
    model = model_of(h)
    e = fc.compute_E(h, model.generators)
    ranked = []
    monkeypatch.setattr(cohomology, "rank", lambda rows: ranked.append(rows) or rank(rows))
    report = fc.verify_quasi_iso(model, h, e, 200)
    degrees = {0} | {g.degree for g in model.generators} | {x.monomial.degree for x in e}
    assert len(ranked) <= len(degrees)
    betti = [comb(8, n // 2) if n % 2 == 0 and n <= 16 else 0 for n in range(201)]
    assert [(r.model_cohomology_dim, r.target_dim, r.induced_map_rank)
            for r in report.reports] == [(b, b, b) for b in betti]


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_euler_characteristic_consistency(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    chain_dims = [len(monomials_of_degree(model, n)) for n in range(cap + 1)]
    coh_dims = [cohomology_basis(model, n)[0] for n in range(cap + 1)]
    boundary = rref(differential_matrix(model, cap)).rank
    lhs = sum((-1) ** n * d for n, d in enumerate(chain_dims)) - (-1) ** cap * boundary
    rhs = sum((-1) ** n * d for n, d in enumerate(coh_dims))
    assert lhs == rhs


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_euler_characteristic_per_block(obj_index):
    # a block's top degree is that of v^alpha; blocks with it inside the cap
    # are whole finite complexes, so their Euler characteristics agree
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    chain, coh = Counter(), Counter()
    for n in range(cap + 1):
        basis = monomials_of_degree(model, n)
        for m in basis:
            chain[multidegree(model, m)] += (-1) ** n
        for rep in cohomology_basis(model, n)[1]:
            support = {multidegree(model, basis[i]) for i, c in enumerate(rep) if c != 0}
            assert len(support) == 1
            coh[support.pop()] += (-1) ** n
    whole = [alpha for alpha in chain
             if sum(e * d for e, d in zip(alpha, model.even_degrees)) <= cap]
    assert whole
    assert set(coh) <= set(chain)
    for alpha in whole:
        assert chain[alpha] == coh[alpha]
