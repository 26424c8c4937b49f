import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import formacheck as fc
from formacheck import cohomology
from formacheck.cohomology import blocks, boundary_rank, faces
from formacheck.corpus import even_sphere, wedge
from formacheck.duality import (ChainComplexError, ChainComplexQ, duality_check,
                                validate_square_zero)
from formacheck.linalg import rank
from formacheck.model import build_model, good_objects
from formacheck.reference import (MatQ, cohomology_basis, differential_matrix, induced_map,
                                  monomials_of_degree, multidegree, rref)

import oracles
from util import (algebra, change_basis, corpus_objects, cp2, cp2_power_3, dependent_family,
                  dependent_pair, frac_matrix, random_chain_complex,
                  random_even_monomial_algebra, s2, s2_power_4, sphere_wedge_8, wedge_s2_s2)


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
    cert = fc.certify(h, fc.validate(h))
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
        assert max(n for n, _, _ in blocks(model, 3 * box + 7)) == box
        assert not any(r.model_cohomology_dim for r in report.reports[box + 1:])


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
    assert any(boundary_rank(levels, s) for _, _, levels in blocks(model, cap)
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
    # (Euler-Poincare)
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    targets = targets_of(model)
    walked = {alpha: levels for _, alpha, levels in blocks(model, cap)}
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
    walked = {alpha for _, alpha, _ in blocks(model, cap)}
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
    report = fc.certify(h, fc.validate(h)).quasi_isomorphism
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


# ---- chain complex duality ----

def zero_complex(dims):
    return ChainComplexQ(tuple(dims),
                         tuple(((0,) * dims[k + 1],) * dims[k] for k in range(len(dims) - 1)))


def test_duality_zero_differentials():
    rows = duality_check(zero_complex((1, 0, 2)))
    assert [(r.homology_dim, r.dual_cohomology_dim, r.equal) for r in rows] == \
        [(1, 1, True), (0, 0, True), (2, 2, True)]
    # one term: no boundary matrix at all
    rows = duality_check(zero_complex((3,)))
    assert [(r.homology_dim, r.dual_cohomology_dim, r.equal) for r in rows] == [(3, 3, True)]


def test_duality_acyclic_pair():
    c = ChainComplexQ((1, 1), (MatQ.identity(1).entries,))
    rows = duality_check(c)
    assert [(r.homology_dim, r.dual_cohomology_dim) for r in rows] == [(0, 0), (0, 0)]
    assert all(r.equal for r in rows)


def test_chain_complex_rejects_bad_shape():
    with pytest.raises(ValueError, match="one boundary matrix per adjacent pair"):
        ChainComplexQ((1, 1), ())
    with pytest.raises(ValueError, match="boundary 1 has shape 1x1, expected 2x1"):
        ChainComplexQ(dims=(2, 1), boundaries=(MatQ.identity(1).entries,))


def test_square_nonzero_rejected_with_degree():
    d2 = frac_matrix([[1]])
    d1 = frac_matrix([[1]])
    c = ChainComplexQ((1, 1, 1), (d1.entries, d2.entries))
    with pytest.raises(ChainComplexError) as err:
        duality_check(c)
    assert err.value.degree == 2


@pytest.mark.parametrize("seed", range(12))
def test_duality_random_complexes(seed):
    rng = random.Random(7000 + seed)
    c, expected = random_chain_complex(rng)
    validate_square_zero(c)
    rows = duality_check(c)
    assert all(r.equal for r in rows)
    assert [r.homology_dim for r in rows] == expected
