import random
import sys
from fractions import Fraction

import pytest

import formacheck as fc
from formacheck.algebra import GradedAlgebra
from formacheck.model import Monomial, build_model, format_monomial, good_objects
from formacheck.reference import (differential_matrix, monomials_of_degree, multidegree,
                                  phi_tilde, unit_vec, zero_vec)

from oracles import brute_E, brute_good_objects, multiply
from util import (algebra, change_basis, corpus_objects, cp2, cp2_power_3, cp2_sharp_cp2, cp3,
                  dependent_family, random_even_monomial_algebra, s2,
                  s2_power_4, sphere_wedge_8, wedge_s2_s2)


def model_of(h):
    gens = fc.choose_generators(h)
    return build_model(gens, good_objects(gens, fc.compute_E(h, gens)))


def s2_wedge(folds):
    """The `folds`-fold wedge of S^2: the unit and `folds` degree-2 classes, no products."""
    return GradedAlgebra.from_products(
        [("1", 0)] + [(f"x{i}", 2) for i in range(folds)], "1", {})


def texts(model, monos):
    even = [g.label for g in model.generators]
    odd = [w.label for w in model.odd_generators]
    return [format_monomial(m, even, odd) for m in monos]


# ---- monomial bases ----

def test_monomials_sphere_degree_6():
    model = model_of(s2())
    assert texts(model, monomials_of_degree(model, 6)) == ["v1^3"]


def test_monomials_sphere_degree_5():
    model = model_of(s2())
    assert texts(model, monomials_of_degree(model, 5)) == ["v1*w1"]


def test_monomials_degree_1_empty():
    model = model_of(s2())
    assert monomials_of_degree(model, 1) == []


def test_monomials_degree_0_is_unit():
    model = model_of(s2())
    monos = monomials_of_degree(model, 0)
    assert monos == [Monomial((), (), 0)]


def test_no_repeated_odd_factor():
    model = model_of(wedge_s2_s2())  # three odd generators of degree 3
    for m in monomials_of_degree(model, 6):
        assert len(set(m.odd)) == len(m.odd)


# ---- products and signs ----

def test_monomial_rejects_noncanonical_form():
    with pytest.raises(ValueError, match="even exponents must be positive"):
        Monomial(((0, 0),), (), 0)
    with pytest.raises(ValueError, match="sorted by generator index"):
        Monomial(((1, 1), (0, 1)), (), 4)
    with pytest.raises(ValueError, match="each index once"):
        Monomial(((0, 1), (0, 1)), (), 4)  # would drop a factor when merged
    with pytest.raises(ValueError, match="strictly increasing"):
        Monomial((), (1, 0), 6)
    with pytest.raises(ValueError, match="strictly increasing"):
        Monomial(even=(), odd=(0, 0), degree=6)
    assert Monomial(even=((0, 1),), odd=(0,), degree=5) == Monomial(((0, 1),), (0,), 5)


def test_multiply_even_commutes():
    model = model_of(s2())
    v = Monomial(((0, 1),), (), 2)
    sign, prod = multiply(model, v, v)
    assert sign == 1
    assert prod == Monomial(((0, 2),), (), 4)


def test_multiply_odd_transposition_sign():
    model = model_of(wedge_s2_s2())
    w0 = Monomial((), (0,), 3)
    w1 = Monomial((), (1,), 3)
    s01, p01 = multiply(model, w0, w1)
    s10, p10 = multiply(model, w1, w0)
    assert (s01, s10) == (1, -1)
    assert p01 == p10 == Monomial((), (0, 1), 6)


def test_multiply_odd_square_is_zero():
    model = model_of(s2())
    w = Monomial((), (0,), 3)
    assert multiply(model, w, w) == (0, None)


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_multiply_associative_up_to_sign(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    pool = monomials_of_degree(model, 4) + monomials_of_degree(model, 5)
    for a in pool[:4]:
        for b in pool[:4]:
            for c in pool[:4]:
                sab, ab = multiply(model, a, b)
                sbc, bc = multiply(model, b, c)
                left = (0, None) if sab == 0 else multiply(model, ab, c)
                right = (0, None) if sbc == 0 else multiply(model, a, bc)
                lhs = (0, None) if left[0] == 0 else (sab * left[0], left[1])
                rhs = (0, None) if right[0] == 0 else (sbc * right[0], right[1])
                assert lhs == rhs


# ---- E family ----

def test_e_family_sphere_empty():
    h = s2()
    assert not fc.compute_E(h, fc.choose_generators(h))


def test_e_family_cp3():
    h = cp3()
    e = fc.compute_E(h, fc.choose_generators(h))
    assert [(entry.monomial.even, entry.monomial.degree) for entry in e] == \
        [(((0, 2),), 4), (((0, 3),), 6)]
    x2 = h.basis_vector(h.labels.index("x^2"))
    x3 = h.basis_vector(h.labels.index("x^3"))
    assert [entry.class_vector for entry in e] == [x2, x3]


def test_e_family_wedge_empty():
    h = wedge_s2_s2()
    assert not fc.compute_E(h, fc.choose_generators(h))


def test_e_family_of_a_wedge_beyond_the_recursion_limit():
    # the walk forms nothing above the top degree and recurses nowhere
    h = s2_wedge(sys.getrecursionlimit() + 100)
    assert fc.compute_E(h, fc.choose_generators(h)) == ()


def test_e_family_requires_even_generators():
    h = GradedAlgebra.from_products([("1", 0), ("z", 3)], "1", {})
    gens = fc.choose_generators(h)
    with pytest.raises(ValueError):
        fc.compute_E(h, gens)


# ---- good objects ----

def test_good_objects_sphere():
    h = s2()
    gens = fc.choose_generators(h)
    goods = good_objects(gens, fc.compute_E(h, gens))
    assert [g.monomial.even for g in goods] == [((0, 2),)]
    assert goods[0].divisor_witnesses == ()  # length 2: divisor condition vacuous


def test_good_objects_cp2_excludes_v4():
    h = cp2()
    gens = fc.choose_generators(h)
    goods = good_objects(gens, fc.compute_E(h, gens))
    assert [g.monomial.even for g in goods] == [((0, 3),)]
    witness = goods[0].divisor_witnesses
    assert [w.monomial.even for w in witness] == [((0, 2),)]
    assert witness[0].class_vector == h.basis_vector(h.labels.index("x^2"))


def test_good_objects_wedge():
    h = wedge_s2_s2()
    gens = fc.choose_generators(h)
    goods = good_objects(gens, fc.compute_E(h, gens))
    assert sorted(g.monomial.even for g in goods) == \
        [((0, 1), (1, 1)), ((0, 2),), ((1, 2),)]
    # past the brute oracle's reach: E is empty and the goods are exactly
    # v_i*v_j (i < j) and v_i^2, each once
    h = s2_wedge(60)
    gens = fc.choose_generators(h)
    assert fc.compute_E(h, gens) == ()
    goods = good_objects(gens, ())
    assert len(goods) == 1830
    assert [g.monomial for g in goods] == sorted(
        (Monomial(((i, 1), (j, 1)) if i < j else ((i, 2),), (), 4)
         for i in range(60) for j in range(i, 60)), key=Monomial.sort_key)
    assert all(g.divisor_witnesses == () for g in goods)


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_good_object_degree_bound_and_divisors_in_E(obj_index):
    h = algebra(corpus_objects()[obj_index])
    gens = fc.choose_generators(h)
    e = fc.compute_E(h, gens)
    e_monos = {entry.monomial for entry in e}
    goods = good_objects(gens, e)
    for g in goods:
        assert g.monomial.degree <= 2 * h.top_degree
        # every divisor with one factor removed lies in E
        exps = dict(g.monomial.even)
        if g.monomial.length >= 3:
            for i in list(exps):
                sub = dict(exps)
                sub[i] -= 1
                even = tuple(sorted((k, v) for k, v in sub.items() if v))
                degree = sum(gens[k].degree * v for k, v in even)
                if sum(v for _, v in even) >= 2:
                    assert Monomial(even, (), degree) in e_monos
    # disjointness of E and the good objects
    assert not ({g.monomial for g in goods} & e_monos)


NAMED_INPUTS = {
    **{f"corpus{k}": (lambda obj=obj: algebra(obj)) for k, obj in enumerate(corpus_objects())},
    "dependent_family": dependent_family,
    "s2_power_4": s2_power_4,
    "cp2_power_3": cp2_power_3,
    "cp2_sharp_cp2": cp2_sharp_cp2,
    "sphere_wedge_8": sphere_wedge_8,
}


def assert_goods_match_oracle(h):
    gens = fc.choose_generators(h)
    e = fc.compute_E(h, gens)
    assert e == brute_E(h, gens)
    goods = good_objects(gens, e)
    assert goods == brute_good_objects(h, gens)
    return goods


@pytest.mark.parametrize("name", sorted(NAMED_INPUTS))
def test_good_objects_match_brute_oracle(name):
    assert_goods_match_oracle(NAMED_INPUTS[name]())


@pytest.mark.parametrize("seed", range(30))
def test_good_objects_match_brute_oracle_on_random_algebras(seed):
    assert_goods_match_oracle(random_even_monomial_algebra(random.Random(seed)))


@pytest.mark.parametrize("name", sorted(NAMED_INPUTS))
def test_good_objects_match_brute_oracle_in_random_bases(name):
    h = NAMED_INPUTS[name]()
    changed = False
    for seed in range(4):
        rebased = change_basis(h, random.Random(seed))
        changed |= rebased.mult != h.mult
        assert_goods_match_oracle(rebased)
    # the table changes unless every degree is a line or every product is trivial
    mixes = any(h.dim_in_degree(n) > 1 for n in set(h.degrees))
    assert changed == (mixes and any(h.unit_index not in pair for pair in h.mult))


@pytest.mark.parametrize("case", [f"corpus-{k}" for k in range(len(corpus_objects()))]
                         + [f"random-{seed}" for seed in range(20)])
def test_least_zero_power_of_each_generator_is_good(case):
    # the premise of the box walk in `cohomology.blocks`: v^k with v^k = 0 and
    # v^(k-1) != 0 has only nonzero proper divisors v^m, 2 <= m < k
    kind, index = case.split("-")
    if kind == "corpus":
        h = algebra(corpus_objects()[int(index)])
    else:
        h = random_even_monomial_algebra(random.Random(7300 + int(index)))
    for ring in (h, change_basis(h, random.Random(int(index)))):
        gens = fc.choose_generators(ring)
        goods = [g.monomial for g in good_objects(gens, fc.compute_E(ring, gens))]
        for i, g in enumerate(gens):
            power, k = g.class_vector, 1
            while power:
                power, k = ring.mul(power, g.class_vector), k + 1
            assert k >= 2
            assert Monomial(((i, k),), (), k * g.degree) in goods


def test_empty_E_forces_length_two_goods():
    for obj in corpus_objects():
        h = algebra(obj)
        gens = fc.choose_generators(h)
        if not fc.compute_E(h, gens):
            assert all(g.monomial.length == 2 for g in good_objects(gens, ()))


# ---- model construction ----

def test_build_model_sphere():
    model = model_of(s2())
    assert [(w.label, w.degree) for w in model.odd_generators] == [("w1", 3)]
    assert model.odd_generators[0].target == Monomial(((0, 2),), (), 4)


def test_build_model_cp2():
    model = model_of(cp2())
    assert [(w.label, w.degree) for w in model.odd_generators] == [("w1", 5)]
    assert model.odd_generators[0].target == Monomial(((0, 3),), (), 6)


def test_build_model_no_goods():
    # one generator in degree 2, top degree 2, nothing vanishes early except
    # by truncation; v^2 is the only good object, so remove it by hand and
    # check the trivial-model path with an algebra whose products are all
    # nonzero up to the top: a height-2 truncation still yields v^2, so use
    # an algebra with no generators at all instead.
    h = GradedAlgebra.from_products([("1", 0)], "1", {})
    gens = fc.choose_generators(h)
    model = build_model(gens, good_objects(gens, fc.compute_E(h, gens)))
    assert model.odd_generators == ()
    assert monomials_of_degree(model, 0) == [Monomial((), (), 0)]


def test_algebra_first_calls_give_the_stages():
    # the call shapes `perfbench/selftest.py` uses at the package level
    for h in (cp2(), wedge_s2_s2(), s2_power_4()):
        gens = fc.choose_generators(h)
        goods = good_objects(gens, fc.compute_E(h, gens))
        assert fc.good_objects(h, gens) == goods
        assert fc.build_model(h, gens, goods) == build_model(gens, goods)


# ---- differential ----

def test_differential_on_generator():
    model = model_of(s2())
    m = differential_matrix(model, 3)  # basis {w}, image basis {v^2}
    assert m.entries == ((Fraction(1),),)


def test_differential_leibniz_sign():
    model = model_of(s2())
    m = differential_matrix(model, 5)  # d(v*w) = v^3, |v| even
    assert m.entries == ((Fraction(1),),)


def test_differential_degree_zero():
    model = model_of(s2())
    assert differential_matrix(model, 0).is_zero()


def test_differential_odd_pair_signs():
    # d(w_a * w_b) = (dw_a) w_b - w_a (dw_b): the second term picks up the
    # sign of moving d past the odd factor w_a
    h = wedge_s2_s2()
    model = model_of(h)
    basis6 = monomials_of_degree(model, 6)
    basis7 = monomials_of_degree(model, 7)
    m = differential_matrix(model, 6)
    pair = next(i for i, mono in enumerate(basis6) if mono.odd == (0, 1))
    targets = {}
    for r, mono in enumerate(basis7):
        if m.entries[r][pair]:
            targets[mono.odd] = m.entries[r][pair]
    assert targets == {(1,): Fraction(1), (0,): Fraction(-1)}


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_d_squared_zero(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    for n in range(cap + 1):
        d_n = differential_matrix(model, n)
        d_next = differential_matrix(model, n + 1)
        assert d_next.matmul(d_n).is_zero()


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_differential_preserves_multidegree(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    for n in range(2 * h.top_degree + 2):
        d_n = differential_matrix(model, n)
        cols = [multidegree(model, m) for m in monomials_of_degree(model, n)]
        rows = [multidegree(model, m) for m in monomials_of_degree(model, n + 1)]
        for i, row in enumerate(d_n.entries):
            for j, c in enumerate(row):
                if c != 0:
                    assert rows[i] == cols[j]


def test_multidegree_counts_odd_targets():
    model = model_of(wedge_s2_s2())  # w targets: v1*v2, v1^2, v2^2
    m = Monomial(((1, 1),), (0, 1), 8)  # v2 * w1 * w2
    assert multidegree(model, m) == (3, 2)


@pytest.mark.parametrize("obj_index", range(len(corpus_objects())))
def test_phi_tilde_is_cochain_map(obj_index):
    h = algebra(corpus_objects()[obj_index])
    model = model_of(h)
    cap = 2 * h.top_degree + 1
    for n in range(cap + 1):
        d_n = differential_matrix(model, n)
        basis_next = monomials_of_degree(model, n + 1)
        for j, mono in enumerate(monomials_of_degree(model, n)):
            combo = {basis_next[i]: d_n.entries[i][j]
                     for i in range(d_n.rows) if d_n.entries[i][j] != 0}
            image = phi_tilde(model, h, combo)
            assert all(c == 0 for c in image)


# ---- phi tilde ----

def test_phi_tilde_values():
    h = cp2()
    model = model_of(h)
    v = Monomial(((0, 1),), (), 2)
    v2 = Monomial(((0, 2),), (), 4)
    w = Monomial((), (0,), 5)
    vw = Monomial(((0, 1),), (0,), 7)
    unit = Monomial((), (), 0)
    x = unit_vec(h.dim, h.labels.index("x"))
    x2 = unit_vec(h.dim, h.labels.index("x^2"))
    assert phi_tilde(model, h, {v: Fraction(1)}) == x
    assert phi_tilde(model, h, {v2: Fraction(1)}) == x2
    assert phi_tilde(model, h, {w: Fraction(1)}) == zero_vec(h.dim)
    assert phi_tilde(model, h, {vw: Fraction(1)}) == zero_vec(h.dim)
    assert phi_tilde(model, h, {unit: Fraction(1)}) == unit_vec(h.dim, h.unit_index)


def test_phi_tilde_requires_homogeneous():
    h = cp2()
    model = model_of(h)
    v = Monomial(((0, 1),), (), 2)
    v2 = Monomial(((0, 2),), (), 4)
    with pytest.raises(ValueError):
        phi_tilde(model, h, {v: Fraction(1), v2: Fraction(1)})
