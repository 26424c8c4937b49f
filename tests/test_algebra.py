import copy
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import formacheck as fc
from formacheck.algebra import AlgebraStructureError, GradedAlgebra, _associativity_witness
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formats import InputError, certificate_json, dump_json, parse_algebra_json
from formacheck.reference import as_row, phi_tilde, unit_vec, zero_vec

from oracles import brute_generators, brute_validate, decomposables, dense, dense_mul
from util import (GROEBNER_RINGS, ODD_PAIR, algebra, corpus_objects, cp2, cp3, embed,
                  in_basis, s2, serialize_algebra, wedge_s2_s2)


def q_basis(h, label):
    """The basis element named `label`, as a dense vector."""
    return unit_vec(h.dim, h.labels.index(label))


def test_validate_sphere_all_pass():
    h = s2()
    report = fc.validate(h)
    assert report.structure_ok
    assert report.odd_degrees_vanish
    assert report.failures == ()


def test_validate_odd_class_flagged_not_rejected():
    h = GradedAlgebra.from_products(
        [("1", 0), ("x", 2), ("z", 3)], "1", {})
    report = fc.validate(h)
    assert report.structure_ok
    assert not report.odd_degrees_vanish


def test_validate_catches_broken_unit_row():
    report = fc.validate(GradedAlgebra.from_products(
        [("1", 0), ("x", 2)], "1", {("1", "x"): {"x": 2}}))
    assert not report.unit_law
    assert any("unit law" in f for f in report.failures)


def test_validate_catches_nonassociative_table():
    # (a*b)*c = d*c = t but a*(b*c) = a*e = 2t, witnessed on (a, b, c)
    h = GradedAlgebra.from_products(
        [("1", 0), ("a", 2), ("b", 2), ("c", 2), ("d", 4), ("e", 4), ("t", 6)],
        "1",
        {("a", "b"): {"d": 1}, ("b", "c"): {"e": 1},
         ("c", "d"): {"t": 1}, ("a", "e"): {"t": 2}})
    report = fc.validate(h)
    assert not report.associativity
    assert report.graded_commutativity
    assert any("associativity fails on (a, b, c)" in f for f in report.failures)


def test_validate_nonassociative_where_left_product_vanishes():
    # a*b = 0 but a*(b*c) = a*d = t, so the first failure is (a, b, c)
    h = GradedAlgebra.from_products(
        [("1", 0), ("a", 2), ("b", 2), ("c", 2), ("d", 4), ("t", 6)],
        "1", {("b", "c"): {"d": 1}, ("a", "d"): {"t": 1}})
    report = fc.validate(h)
    assert report == brute_validate(h)
    assert report.failures == ("associativity fails on (a, b, c)",)


def test_validate_ungraded_table_scans_every_triple():
    # c*c = c - a breaks the grading, and with it A(k, j, i) = ±A(i, j, k):
    # (d, c, c) fails while (c, c, d) holds, so no triple may be left out
    h = GradedAlgebra.from_products(
        [("1", 0), ("a", 1), ("c", 2), ("d", 3), ("f", 4)], "1",
        {("c", "c"): {"c": 1, "a": -1}, ("a", "d"): {"f": 1}, ("c", "d"): {"f": 1}})
    report = fc.validate(h)
    assert report == brute_validate(h)
    assert report.graded_commutativity and not report.graded_multiplicativity
    assert "associativity fails on (d, c, c)" in report.failures


def test_validate_degree_support():
    h = GradedAlgebra.from_products(
        [("1", 0), ("x", 2), ("t", 6)], "1", {("x", "x"): {"t": 1}})
    report = fc.validate(h)
    assert not report.graded_multiplicativity


def test_validate_odd_square_must_vanish():
    h = GradedAlgebra.from_products(
        [("1", 0), ("z", 3), ("t", 6)], "1", {("z", "z"): {"t": 1}})
    report = fc.validate(h)
    assert not report.graded_commutativity


# ---- sparse validate against the dense reference ----

def odd_sphere(n):
    return {"name": f"odd_sphere({n})",
            "basis": [{"label": "1", "degree": 0}, {"label": "z", "degree": n}],
            "unit": "1", "products": []}


# corpus_objects() plus exterior classes, whose products carry signs, and a
# degree (4) that holds decomposables and a generator
BASES = corpus_objects() + [
    product(odd_sphere(3), odd_sphere(3)),
    product(product(odd_sphere(1), odd_sphere(3)), even_sphere(2)),
    wedge(truncated_poly(2, 3), even_sphere(4)),
]
FAULTS = ("none", "coefficient", "out_of_order", "unit_row", "wrong_degree",
          "odd_square", "second_unit", "nonassociative", "scaled_coefficient",
          "graded_unit_row")


@pytest.mark.parametrize("k", range(len(BASES)))
def test_validate_matches_brute_on_corpus(k):
    h = parse_algebra_json(BASES[k])
    report = fc.validate(h)
    assert report == brute_validate(h)
    assert report.structure_ok


def rebased(h, rng):
    """h in a random basis of each positive degree: still a valid table, but
    with rows of several terms whose products can cancel."""
    new = [unit_vec(h.dim, i) for i in range(h.dim)]  # new basis, old coordinates
    old = list(new)  # old basis, new coordinates
    for n in set(h.degrees) - {0}:
        idx = h.degree_indices(n)
        t = sympy.zeros(len(idx))
        while t.det() == 0:
            t = sympy.Matrix(len(idx), len(idx), lambda *_: rng.randint(-2, 2))
        t_inv = t.inv()
        for a, i in enumerate(idx):
            new[i] = embed(h, idx, [Fraction(str(x)) for x in t.row(a)])
            old[i] = embed(h, idx, [Fraction(str(x)) for x in t_inv.row(a)])
    return in_basis(h, new, old)


def scaled(h, rng):
    """h with each basis element but the unit divided by 2, 3 or 7, so
    that the table's coefficients have several distinct denominators."""
    new = [unit_vec(h.dim, i) for i in range(h.dim)]
    old = list(new)
    for i in range(h.dim):
        if i != h.unit_index:
            s = rng.choice((2, 3, 7))
            new[i] = tuple(c / s for c in new[i])
            old[i] = tuple(c * s for c in old[i])
    return in_basis(h, new, old)


def out_of_order(h, pairs, rng, move=False):
    """h with the product of one of the `pairs` (i, j), i < j, also stored
    under (j, i), as a table given in both orders holds it, or with `move`
    only there, where no law but graded commutativity reads it.  Only a
    GradedAlgebra built directly, not through from_products, can hold this."""
    i, j = rng.choice(pairs)
    mult = dict(h.mult)
    mult[j, i] = h.both_orders()[j, i]
    if move:
        del mult[i, j]
    return GradedAlgebra(h.labels, h.degrees, h.unit_index, mult, h.scale)


def broken_table(h, fault, rng):
    """h's table with one seeded fault of the given kind."""
    coeff = Fraction(rng.choice((-2, -1, 3)), rng.choice((1, 2)))  # never 0 or 1
    if fault == "scaled_coefficient":
        h, fault = scaled(h, rng), "coefficient"
    if fault == "out_of_order":  # no product changes, so neither do the generators
        return out_of_order(h, sorted(p for p in h.mult if p[0] < p[1]), rng)

    basis = list(zip(h.labels, h.degrees))
    degree = dict(basis)
    unit = h.labels[h.unit_index]
    table = {(h.labels[i], h.labels[j]): {h.labels[k]: Fraction(c, h.scale) for k, c in row}
             for (i, j), row in h.mult.items() if i <= j}
    positive = [lab for lab, _ in basis if lab != unit]
    products = sorted(p for p in table if unit not in p)

    def pair(a, b):
        return (a, b) if h.labels.index(a) <= h.labels.index(b) else (b, a)

    if fault == "coefficient":
        assume(products)
        p = rng.choice(products)
        table[p][rng.choice(sorted(table[p]))] += coeff  # may cancel the term
    elif fault == "unit_row":
        target = rng.choice(h.labels)
        table[pair(unit, rng.choice(positive))] = {target: coeff}
    elif fault == "graded_unit_row":
        # grading and graded commutativity still hold, only the unit law fails
        x = rng.choice(positive)
        target = rng.choice([lab for lab in positive if degree[lab] == degree[x]])
        table[pair(unit, x)] = {target: coeff}
    elif fault == "wrong_degree":
        p = rng.choice(products) if products and rng.random() < 0.5 else \
            pair(rng.choice(positive), rng.choice(positive))
        wrong = [lab for lab, d in basis if d != degree[p[0]] + degree[p[1]]]
        table.setdefault(p, {})[rng.choice(wrong)] = coeff
    elif fault == "odd_square":
        d = rng.choice((1, 3, 5))
        basis += [("q", d), ("q2", 2 * d)]
        table[("q", "q")] = {"q2": coeff}
    elif fault == "second_unit":
        basis.insert(rng.randrange(1, len(basis) + 1), ("e", 0))
        if rng.random() < 0.5:
            table[("e", "e")] = {"e": 1}
    elif fault == "nonassociative":  # the table of test_validate_catches_nonassociative_table
        basis = [("1", 0), ("a", 2), ("b", 2), ("c", 2), ("d", 4), ("e", 4), ("t", 6)]
        unit = "1"
        table = {("a", "b"): {"d": 1}, ("b", "c"): {"e": 1},
                 ("c", "d"): {"t": 1}, ("a", "e"): {"t": coeff}}
    return GradedAlgebra.from_products(basis, unit, table)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, len(BASES) - 1), rebase=st.booleans(),
       fault=st.sampled_from(FAULTS), seed=st.integers(0, 2 ** 32 - 1))
def test_validate_matches_brute_on_broken_tables(k, rebase, fault, seed):
    rng = random.Random(seed)
    h = parse_algebra_json(BASES[k])
    h = broken_table(rebased(h, rng) if rebase else h, fault, rng)
    report = fc.validate(h)
    assert report == brute_validate(h)
    assert fc.choose_generators(h) == brute_generators(h)
    if fault == "none":
        assert report.structure_ok
    elif "coefficient" not in fault:  # a changed coefficient can keep the laws
        assert not report.structure_ok
    if fault == "graded_unit_row":
        assert report.graded_multiplicativity and report.graded_commutativity
        assert not report.unit_law


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, len(BASES) - 1), rebase=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_mul_on_rows_matches_the_dense_product(k, rebase, seed, data):
    # operands of up to five terms, in any degrees, and the unit on either side
    h = parse_algebra_json(BASES[k])
    h = rebased(h, random.Random(seed)) if rebase else h
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    terms = st.dictionaries(st.integers(0, h.dim - 1), coeff, max_size=5)
    a, b = (tuple(sorted(data.draw(terms).items())) for _ in range(2))
    # `mul` returns h.scale times the product
    for x, y in ((a, b), (b, a), (h.unit(), a), (b, h.unit()), (a, a)):
        assert h.mul(x, y) == as_row([h.scale * c for c in dense_mul(h, dense(h, x), dense(h, y))])
    assert h.mul(h.unit(), a) == tuple((k, h.scale * c) for k, c in a) == h.mul(a, h.unit())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, len(BASES) - 1), rebase=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_integral_table_matches_the_fraction_table(k, rebase, seed):
    # a file with several denominators: the parser's integral table and
    # `from_products` on the file's `Fraction`s give one algebra, one report,
    # one set of generators and one certificate, byte for byte
    rng = random.Random(seed)
    h = scaled(parse_algebra_json(BASES[k]), rng)
    raw = serialize_algebra(rebased(h, rng) if rebase else h)
    parsed = parse_algebra_json(raw)
    fraction = GradedAlgebra.from_products(
        [(b["label"], b["degree"]) for b in raw["basis"]], raw["unit"],
        {(item["left"], item["right"]): {t["label"]: Fraction(t["coeff"]) for t in item["value"]}
         for item in raw["products"]})
    denominators = [Fraction(t["coeff"]).denominator for item in raw["products"]
                    for t in item["value"]]
    assert parsed.scale == fraction.scale == math.lcm(*denominators)
    assert all(type(c) is int for row in parsed.mult.values() for _, c in row)
    assert parsed.validation == fraction.validation
    assert parsed.generators == fraction.generators
    certificates = [dump_json(certificate_json(fc.certify(a), raw, "0" * 64))
                    for a in (parsed, fraction)]
    assert certificates[0] == certificates[1]


def generator_indices(h):
    return [g.class_vector[0][0] for g in fc.choose_generators(h)]


def full_scan(h, report):
    """The lexicographic scan `validate` falls back on, with the skips its laws allow."""
    return _associativity_witness(
        h, exact_skip=report.unit_law and report.graded_multiplicativity,
        half=report.graded_multiplicativity and report.graded_commutativity)


def four_laws(report):
    return (report.single_unit_in_degree_zero and report.unit_law
            and report.graded_multiplicativity and report.graded_commutativity)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, len(BASES) - 1), rebase=st.booleans(),
       fault=st.sampled_from(FAULTS), seed=st.integers(0, 2 ** 32 - 1))
def test_light_test_agrees_with_the_full_scan_on_broken_tables(k, rebase, fault, seed):
    # with the four laws, the triples with a generator in the middle decide
    # associativity exactly, and the report names the full scan's first witness
    rng = random.Random(seed)
    h = broken_table(rebased(parse_algebra_json(BASES[k]), rng) if rebase
                     else parse_algebra_json(BASES[k]), fault, rng)
    report = fc.validate(h)
    witness = full_scan(h, report)
    assert report.associativity == (witness is None)
    if four_laws(report):
        light = _associativity_witness(h, True, True, generator_indices(h))
        assert (light is None) == (witness is None)
    if witness is not None:
        assert report.failures[-1] == "associativity fails on ({}, {}, {})".format(
            *(h.labels[i] for i in witness))


def mutated_table(h, rng):
    """h's table with one to three seeded changes of products of
    positive-degree classes, each in the right degree, so that the unit law
    and the grading stay and only associativity and, on an odd square,
    graded commutativity can fail.  One table in eight also gets a second
    degree-0 class and one in eight a product moved out of basis order."""
    labels, unit = h.labels, h.labels[h.unit_index]
    degree = dict(zip(labels, h.degrees))
    positive = [lab for lab in labels if lab != unit]
    table = {(labels[i], labels[j]): {labels[k]: Fraction(c, h.scale) for k, c in row}
             for (i, j), row in h.mult.items() if i <= j and h.unit_index not in (i, j)}
    for _ in range(rng.randint(1, 3)):
        a, b = sorted(rng.choices(positive, k=2), key=labels.index)
        fits = [lab for lab in positive if degree[lab] == degree[a] + degree[b]]
        if fits:
            table.setdefault((a, b), {})[rng.choice(fits)] = Fraction(rng.randint(-2, 2),
                                                                       rng.choice((1, 2)))
    basis, kind = list(zip(labels, h.degrees)), rng.randrange(8)
    if kind == 0:
        basis.insert(rng.randrange(1, len(basis) + 1), ("e", 0))
        table[("e", "e")] = {"e": 1}
    out = GradedAlgebra.from_products(basis, unit, table)
    pairs = sorted(p for p in out.mult if p[0] < p[1] and h.unit_index not in p)
    if kind == 1 and pairs:
        out = out_of_order(out, pairs, rng, move=True)
    return out


def test_light_test_on_a_corpus_of_mutated_tables():
    # 3,000 seeded tables, compared with the dense reference: the mutations
    # keep the laws Light's test needs on most tables, so most reports
    # rest on it, and some break the single unit or graded commutativity
    bases = [h for h in map(parse_algebra_json, BASES) if h.dim >= 4]  # room for a product
    # monomial in no basis; Fl(4) (dimension 24) would make the test four times slower
    bases += [build() for name, build in GROEBNER_RINGS.items() if name != "flag_4"]
    bases += [rebased(h, random.Random(i)) for i, h in enumerate(bases)]
    seen = {"light": 0, "not associative": 0, "single unit": 0, "commutativity": 0,
            "out of order": 0}
    for seed in range(3000):
        rng = random.Random(seed)
        h = mutated_table(bases[seed % len(bases)], rng)
        report = fc.validate(h)
        assert report == brute_validate(h), seed
        seen["light"] += four_laws(report)
        seen["not associative"] += not report.associativity
        seen["single unit"] += not report.single_unit_in_degree_zero
        seen["commutativity"] += not report.graded_commutativity
        seen["out of order"] += any(i > j for i, j in h.mult)
    assert seen["light"] > 2000 and seen["not associative"] > 500
    assert seen["single unit"] > 200 and seen["commutativity"] > 200
    assert seen["out of order"] > 200


def test_odd_classes_anticommute():
    # a*b is stored once, and b*a is read off it negated, by `mul` and by the
    # oracle's own mirror
    h = algebra(ODD_PAIR)
    a, b = h.basis_vector(1), h.basis_vector(2)
    assert sorted(h.mult) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2)]
    assert h.mul(b, a) == tuple((k, -c) for k, c in h.mul(a, b)) == ((3, -1),)
    for x, y in ((a, b), (b, a)):
        assert dense(h, h.mul(x, y)) == dense_mul(h, dense(h, x), dense(h, y))


def test_odd_square_keeps_its_message():
    square = {"left": "a", "right": "a", "value": [{"label": "ab", "coeff": "2"}]}
    with pytest.raises(InputError, match=r"^input: validation failure: graded "
                                         r"commutativity fails on \(a, a\)$"):
        parse_algebra_json(dict(ODD_PAIR, products=ODD_PAIR["products"] + [square]))
    h = GradedAlgebra.from_products([("1", 0), ("a", 3), ("b", 3), ("ab", 6)], "1",
                                    {("a", "b"): {"ab": 1}, ("a", "a"): {"ab": 2}})
    assert h.validation == brute_validate(h)
    assert h.validation.failures == ("graded commutativity fails on (a, a)",)


def test_a_table_in_both_orders_is_refused():
    # the old two-order form: every law but graded commutativity reads the
    # half table and holds; the first key out of order is reported
    h = algebra(ODD_PAIR)
    twin = GradedAlgebra(h.labels, h.degrees, h.unit_index, h.both_orders(), h.scale)
    assert twin.validation == brute_validate(twin)
    assert twin.validation.failures == ("graded commutativity fails on (a, 1)",)
    with pytest.raises(ValueError, match=r"^validation failure: graded commutativity "
                                         r"fails on \(a, 1\)$"):
        fc.certify(twin)


def test_validate_work_does_not_grow_with_the_top_degree():
    # validate chooses the generators; both visit the degrees that hold a
    # class, not every degree up to the top one
    h = GradedAlgebra.from_products([("1", 0), ("x", 2), ("z", 10 ** 6)], "1", {})
    tracemalloc.start()
    try:
        report, gens = fc.validate(h), h.generators
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.structure_ok and [g.degree for g in gens] == [2, 10 ** 6]
    assert peak < 10 ** 6


def test_validate_wrong_degree_term_after_a_right_one():
    h = GradedAlgebra.from_products(
        [("1", 0), ("x", 2), ("x^2", 4), ("x^3", 6)], "1",
        {("x", "x"): {"x^2": 1, "x^3": 1}, ("x", "x^2"): {"x^3": 1}})
    report = fc.validate(h)
    assert report == brute_validate(h)
    assert report.failures[0] == "product x*x has support in degree 6, expected 4"


@pytest.mark.parametrize("k", range(len(BASES)))
def test_decomposables_span_products_in_any_basis(k):
    h = rebased(parse_algebra_json(BASES[k]), random.Random(k))
    dec = decomposables(h)
    positive = [i for i in range(h.dim) if h.degrees[i] > 0]
    for n in range(1, h.top_degree + 1):
        products = [dense(h, h.mul(h.basis_vector(i), h.basis_vector(j)))
                    for i in positive for j in positive
                    if h.degrees[i] + h.degrees[j] == n]
        rank = sympy.Matrix(dec[n] + products or [[0]]).rank()
        assert sympy.Matrix(dec[n] or [[0]]).rank() == len(dec[n]) == rank


def test_structural_rejection():
    with pytest.raises(AlgebraStructureError):
        GradedAlgebra.from_products([("1", 0), ("x", -2)], "1", {})
    with pytest.raises(AlgebraStructureError):
        GradedAlgebra.from_products([("1", 0)], "u", {})
    with pytest.raises(AlgebraStructureError):
        GradedAlgebra.from_products([("1", 0), ("x", 2)], "1",
                                    {("x", "q"): {"x": 1}})


@pytest.mark.parametrize("coeff, message", [
    ("1/2", "coefficient '1/2' of 'y' is neither an int nor a Fraction"),
    (0.5, "floating point coefficients are not allowed"),
    (None, "coefficient None of 'y' is neither an int nor a Fraction")])
def test_from_products_takes_int_and_fraction_coefficients_only(coeff, message):
    # a string is read by `parse_rational`, not here, and a float is not exact
    with pytest.raises(AlgebraStructureError, match=f"^{message}$"):
        GradedAlgebra.from_products([("1", 0), ("x", 2), ("y", 4)], "1",
                                    {("x", "x"): {"y": coeff}})


def test_from_products_checks_the_basis_before_the_table():
    # the table is read only once the basis passes, so a bad basis is what
    # is reported, whatever the table holds
    for basis, message in (([("a", 2), ("a", 0)], "duplicate basis labels"),
                           ([], "empty basis"), ([("x", 2)], "missing unit")):
        with pytest.raises(AlgebraStructureError, match=f"^{message}$"):
            GradedAlgebra.from_products(basis, "1", {("y", "x"): {"z": 0.5}})


def test_table_is_read_only():
    # the reports cached on first read always describe the table: it cannot change
    h = cp2()
    assert h.validation.structure_ok
    with pytest.raises(TypeError):
        h.mult[(0, 1)] = ((1, 2),)  # 1·x = 2x
    with pytest.raises(TypeError):
        del h.mult[(1, 1)]
    assert h.validation == fc.validate(h)
    assert fc.certify(h).exit_code == 0
    for twin in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert twin == h
        with pytest.raises(TypeError):
            twin.mult[(0, 1)] = ((1, 2),)


def test_algebra_keeps_its_own_copy_of_the_table():
    # the dict an algebra is built from stays the caller's: changing it later
    # changes no algebra, and a changed copy builds a new one
    h = cp2()
    mult = dict(h.mult)
    kept = GradedAlgebra(h.labels, h.degrees, h.unit_index, mult)
    mult[(0, 1)] = ((1, 2),)
    assert kept.mult == h.mult and kept.mult[(0, 1)] == ((1, 1),)
    assert kept.validation.structure_ok
    changed = GradedAlgebra(h.labels, h.degrees, h.unit_index, mult)
    assert changed.mult[(0, 1)] == ((1, 2),)
    assert not changed.validation.unit_law


def test_replace_keeps_its_own_copy_of_the_table():
    # `_replace` and `_make` build through `__new__` as the constructor does
    h = cp2()
    mult = dict(h.mult)
    kept = h._replace(mult=mult)
    assert type(kept.mult) is not dict
    mult[(0, 1)] = ((1, 2),)
    assert kept.mult == h.mult and kept.validation.structure_ok
    assert type(GradedAlgebra._make(h).mult) is not dict


def test_decomposables_sphere():
    h = s2()
    dec = decomposables(h)
    assert all(rows == [] for rows in dec.values())


def test_decomposables_cp2():
    h = cp2()
    dec = decomposables(h)
    assert dec[2] == []
    assert dec[4] == [q_basis(h, "x^2")]
    assert dec.get(0, []) == []


def test_choose_generators_sphere():
    h = s2()
    gens = fc.choose_generators(h)
    assert [(g.label, g.degree) for g in gens] == [("v1", 2)]
    assert gens[0].class_vector == as_row(q_basis(h, "x"))


def test_choose_generators_cp2():
    gens = fc.choose_generators(cp2())
    assert [(g.label, g.degree) for g in gens] == [("v1", 2)]


def test_choose_generators_wedge():
    h = wedge_s2_s2()
    gens = fc.choose_generators(h)
    assert [g.degree for g in gens] == [2, 2]
    assert gens[0].class_vector == as_row(q_basis(h, "x"))
    assert gens[1].class_vector == as_row(q_basis(h, "x'"))


def test_choose_generators_deterministic():
    a = fc.choose_generators(cp2())
    b = fc.choose_generators(cp2())
    assert a == b


def test_generator_count_matches_codimension():
    for h in (s2(), cp2(), wedge_s2_s2()):
        dec = decomposables(h)
        gens = fc.choose_generators(h)
        for n in range(1, h.top_degree + 1):
            n_gens = sum(1 for g in gens if g.degree == n)
            assert len(dec[n]) + n_gens == h.dim_in_degree(n)


@pytest.mark.parametrize("k", range(len(BASES)))
def test_generators_follow_the_greedy_rule_in_any_basis(k):
    # e_i is a generator exactly when it raises the rank of the products of
    # its degree and the basis classes before it
    h = rebased(parse_algebra_json(BASES[k]), random.Random(k))
    positive = [i for i in range(h.dim) if h.degrees[i] > 0]

    def rank(rows):
        return sympy.Matrix(rows or [[0] * h.dim]).rank()

    expected = []
    for n in range(1, h.top_degree + 1):
        rows = [dense(h, h.mul(h.basis_vector(i), h.basis_vector(j)))
                for i in positive for j in positive if h.degrees[i] + h.degrees[j] == n]
        for i in h.degree_indices(n):
            if rank(rows + [unit_vec(h.dim, i)]) > rank(rows):
                expected.append((n, h.basis_vector(i)))
            rows.append(unit_vec(h.dim, i))
    gens = fc.choose_generators(h)
    assert [(g.degree, g.class_vector) for g in gens] == expected
    assert [g.label for g in gens] == [f"v{j + 1}" for j in range(len(gens))]
    assert gens == brute_generators(h)
    # rows of several terms with several denominators each
    for seed in range(3):
        h = scaled(h, random.Random(seed))
        assert fc.choose_generators(h) == brute_generators(h)


def phi(h, gens, *indices):
    """The product in h of the generator classes named by `indices`, as
    `phi_tilde` of a model with no odd generators evaluates it."""
    even = tuple((k, indices.count(k)) for k in sorted(set(indices)))
    m = fc.Monomial(even, (), sum(gens[k].degree for k in indices))
    return phi_tilde(fc.Model(gens, ()), h, {m: Fraction(1)})


def test_evaluate_phi_cp2():
    h = cp2()
    gens = fc.choose_generators(h)
    assert phi(h, gens, 0, 0) == q_basis(h, "x^2")
    assert phi(h, gens, 0) == q_basis(h, "x")


def test_evaluate_phi_truncates():
    h = s2()
    gens = fc.choose_generators(h)
    assert phi(h, gens, 0, 0) == zero_vec(h.dim)
    assert phi(h, gens, *[0] * 5000) == zero_vec(h.dim)  # deeper than the recursion limit


def test_evaluate_phi_multiplicative():
    h = cp3()
    gens = fc.choose_generators(h)
    left = phi(h, gens, 0)
    right = phi(h, gens, 0, 0)
    both = phi(h, gens, 0, 0, 0)
    assert h.mul(as_row(left), as_row(right)) == as_row(both)
