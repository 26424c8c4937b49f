import itertools
import random
import sys
from fractions import Fraction

import pytest

import formacheck as fc
from formacheck.algebra import GradedAlgebra
from formacheck.formality import (FORMAL_BY_THEOREM, HYPOTHESIS_VIOLATED,
                                  INCONCLUSIVE, DegreeSet)
from formacheck.model import EEntry, Monomial, compute_E, good_objects
from formacheck.reference import MatQ, _monomials_cached, as_row, differential_matrix, rref

from oracles import dense
from util import (algebra, change_basis, corpus_objects, cp2, cp2_power_3, cp3,
                  dependent_family, dependent_pair, pipeline, s2, s2_power_4, sphere_wedge_8,
                  wedge_s2_s2)


def e_family_of(h):
    return fc.compute_E(h, fc.choose_generators(h))


# ---- conditions (i) and (ii) ----

def test_condition_i():
    assert fc.check_condition_i(e_family_of(s2()))
    assert not fc.check_condition_i(e_family_of(cp2()))
    assert fc.check_condition_i(e_family_of(wedge_s2_s2()))


def test_condition_ii_cp3():
    assert fc.check_condition_ii(e_family_of(cp3()))


def test_condition_ii_empty_vacuous():
    assert fc.check_condition_ii(e_family_of(s2()))


def test_condition_ii_dependent_family():
    h = dependent_family()
    assert fc.validate(h).structure_ok
    e = e_family_of(h)
    assert len(e) == 2
    assert not fc.check_condition_ii(e)
    assert not fc.check_condition_i(e)


def dense_rank_independent(h, e):
    rows = [dense(h, entry.class_vector) for entry in e]
    return not rows or rref(MatQ.from_rows(rows)).rank == len(rows)


@pytest.mark.parametrize("k", range(len(corpus_objects()) + 2))
def test_condition_ii_matches_dense_rank(k):
    # one degree at a time, in any basis, as the rank of all of E at once
    inputs = [algebra(obj) for obj in corpus_objects()] + [dependent_family(), dependent_pair()]
    h = inputs[k]
    for basis in range(3):
        ring = h if basis == 0 else change_basis(h, random.Random(100 * k + basis))
        e = e_family_of(ring)
        assert fc.check_condition_ii(e) == dense_rank_independent(ring, e)
    if k >= len(corpus_objects()):
        # dependent classes in degree 4: more of them than dim H^4 in the
        # dependent family, as many in the dependent pair
        e = e_family_of(h)
        assert len(e) == h.dim_in_degree(4) + (k == len(corpus_objects()))
        assert fc.validate(h).structure_ok and not fc.check_condition_ii(e)
        assert fc.certify(h, fc.validate(h)).verdict.classification == INCONCLUSIVE


def test_condition_ii_ranks_shared_positions_together():
    # entries of two degrees whose classes share a basis position (only an
    # ungraded table can give this) are not split by degree
    def entry(exponent, vector):
        return EEntry(Monomial(((0, exponent),), (), 2 * exponent),
                      as_row(tuple(map(Fraction, vector))))
    assert not fc.check_condition_ii((entry(2, (0, 1, 0)), entry(3, (0, 2, 0))))
    assert fc.check_condition_ii((entry(2, (0, 1, 0)), entry(3, (0, 1, 1))))


# ---- corollary degree arithmetic ----

def test_degree_set_from_algebra():
    assert DegreeSet.from_algebra(cp3()).degrees == (2, 4, 6)
    assert DegreeSet.from_algebra(s2()).degrees == (2,)


def test_corollary_integer_examples():
    assert fc.corollary_integer_check(DegreeSet((2, 4))) == (True, False)
    assert fc.corollary_integer_check(DegreeSet((4, 6))) == (True, True)
    assert fc.corollary_integer_check(DegreeSet((2,))) == (True,)


def test_corollary_nonnegative_examples():
    assert fc.corollary_nonnegative_check(DegreeSet((2, 4))) == (True, False)
    assert fc.corollary_nonnegative_check(DegreeSet((4, 6))) == (True, True)
    assert fc.corollary_nonnegative_check(DegreeSet((5,))) == (True,)


def test_corollary_nonnegative_needs_two_summands():
    # 6 = 6 is a single summand and does not count; 12 = 6+6 does
    assert fc.corollary_nonnegative_check(DegreeSet((6, 12))) == (True, False)
    assert fc.corollary_nonnegative_check(DegreeSet((4, 10))) == (True, True)


def brute_force_integer_combination(prefix, target):
    """Exhaustive search over |a_i| <= target, used as a cross-oracle."""
    if not prefix:
        return False
    span = range(-target, target + 1)
    return any(sum(a * n for a, n in zip(combo, prefix)) == target
               for combo in itertools.product(span, repeat=len(prefix)))


@pytest.mark.parametrize("degrees", [
    (2, 4), (4, 6), (3, 5, 7), (4, 6, 9), (6, 10, 15), (2, 3, 4, 5),
    (5, 7, 11, 13), (8, 12, 18, 27),
])
def test_corollary_gcd_agrees_with_search(degrees):
    f = DegreeSet(degrees)
    flags = fc.corollary_integer_check(f)
    for k in range(1, len(degrees)):
        assert flags[k] == (not brute_force_integer_combination(
            degrees[:k], degrees[k]))


def test_degree_set_rejects_bad_input():
    with pytest.raises(ValueError, match="degrees must be positive"):
        DegreeSet((0, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        DegreeSet((4, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        DegreeSet(degrees=(2, 2))


# ---- verdict assembly ----

def test_verdict_sphere_formal_via_i():
    h = s2()
    gens, e, goods, model, report = pipeline(h, cap=12)
    v = fc.render_verdict(h, e, goods, report)
    assert v.classification == FORMAL_BY_THEOREM
    assert v.condition_i and v.condition_ii
    assert not v.discrepancy


def test_verdict_cp2_formal_via_ii():
    h = cp2()
    gens, e, goods, model, report = pipeline(h, cap=12)
    v = fc.render_verdict(h, e, goods, report)
    assert v.classification == FORMAL_BY_THEOREM
    assert not v.condition_i
    assert v.condition_ii
    assert not v.discrepancy


def test_verdict_wedge_discrepancy():
    h = wedge_s2_s2()
    gens, e, goods, model, report = pipeline(h, cap=12)
    v = fc.render_verdict(h, e, goods, report)
    assert v.classification == FORMAL_BY_THEOREM
    assert v.condition_i
    assert v.discrepancy
    assert report.first_failure == 5


def test_verdict_inconclusive():
    h = dependent_family()
    gens, e, goods, model, report = pipeline(h)
    v = fc.render_verdict(h, e, goods, report)
    assert v.classification == INCONCLUSIVE
    assert v.condition_i is False and v.condition_ii is False


def test_verdict_hypothesis_violated():
    h = GradedAlgebra.from_products([("1", 0), ("x", 2), ("z", 3)], "1", {})
    v = fc.render_verdict(h, None, None, None)
    assert v.classification == HYPOTHESIS_VIOLATED
    assert v.condition_i is None and v.condition_ii is None
    assert not v.odd_degrees_vanish


def test_certify_odd_degree_runs_no_stage():
    # the gate reads h, so the report of another algebra runs no stage either
    h = GradedAlgebra.from_products([("1", 0), ("x", 2), ("z", 3)], "1", {})
    for report in (fc.validate(h), fc.validate(s2())):
        cert = fc.certify(h, report)
        assert cert.cap == 2 * 3 + 1
        assert len(cert.generators) == 2
        assert (cert.e_family, cert.good_objects, cert.model, cert.quasi_isomorphism) == \
            (None, None, None, None)
        assert cert.verdict.classification == HYPOTHESIS_VIOLATED
        assert cert.exit_code == 3


def test_certify_cap_below_top_rejected():
    odd = GradedAlgebra.from_products([("1", 0), ("x", 2), ("z", 3)], "1", {})
    for h in (cp2(), odd):
        with pytest.raises(ValueError, match="below the top degree"):
            fc.certify(h, fc.validate(h), cap=h.top_degree - 1)
    assert fc.certify(cp2(), fc.validate(cp2()), cap=4).cap == 4


def test_certify_computes_e_once(monkeypatch):
    # certify computes E once and hands it on to good_objects
    calls = []

    def counted(h, gens):
        calls.append(h)
        return compute_E(h, gens)

    monkeypatch.setattr("formacheck.formality.compute_E", counted)
    for h in (cp3(), s2_power_4(), dependent_family()):
        calls.clear()
        cert = fc.certify(h, fc.validate(h))
        assert calls == [h]
        assert cert.good_objects == good_objects(cert.generators, cert.e_family)


def test_certify_caches_stay_bounded():
    for h in (cp3(), wedge_s2_s2()):
        cert = fc.certify(h, fc.validate(h))
        for n in range(cert.cap):
            differential_matrix(cert.model, n)
    assert _monomials_cached.cache_info().currsize <= 2
    assert differential_matrix.cache_info().currsize <= 2
    # certify itself enumerates no monomials and assembles no matrix of d
    _monomials_cached.cache_clear()
    differential_matrix.cache_clear()
    h = s2_power_4()
    assert fc.certify(h, fc.validate(h)).exit_code == 0
    assert _monomials_cached.cache_info().misses == 0
    assert differential_matrix.cache_info().misses == 0


def test_check_path_builds_no_rational_echelon_form(monkeypatch):
    # every rank certify takes is an integer rank: no module's `rref` runs,
    # and no dense `MatQ` is built
    inputs = [(algebra(obj), None) for obj in corpus_objects()]
    inputs += [(s2_power_4(), 13), (cp2_power_3(), 12), (sphere_wedge_8(), None)]

    def forbidden(*args, **kwargs):
        raise AssertionError("rational elimination on the check path")

    for name, module in list(sys.modules.items()):
        if name.startswith("formacheck") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", forbidden)
    monkeypatch.setattr(MatQ, "from_rows", staticmethod(forbidden))
    for h, cap in inputs:
        fc.certify(h, fc.validate(h), cap)


def test_verdict_deterministic():
    h = cp2()
    gens, e, goods, model, report = pipeline(h, cap=10)
    assert fc.render_verdict(h, e, goods, report) == \
        fc.render_verdict(h, e, goods, report)


def test_corollary_implies_condition_ii_on_corpus():
    # where every graded piece is one-dimensional and all integer-combination
    # flags hold, condition (ii) holds as well
    for obj in corpus_objects():
        h = algebra(obj)
        if any(h.dim_in_degree(n) > 1 for n in range(1, h.top_degree + 1)):
            continue
        flags = fc.corollary_integer_check(DegreeSet.from_algebra(h))
        if all(flags):
            assert fc.check_condition_ii(e_family_of(h))
