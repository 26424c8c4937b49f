"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's enumeration, matrix, and
rank code: bases come from itertools-style search over raw exponent data,
and ranks come from sympy.  Only the raw model data (generator degrees and
the exponent tuples of the differentials) is shared with the code under
test.  Products come from `dense_mul`, a product of dense vectors read
straight off the half table `h.mult` over `h.scale`, with its own mirrors,
never from `GradedAlgebra.mul` or `GradedAlgebra.both_orders`: the
reference validator, the greedy generator rule (which grows a
`reference.RowSpace` of the decomposables) and the E and good-object walks
all multiply with it, and convert the classes they return to rows with
`reference.as_row`.

`contract_violations` reads a certificate's JSON alone, with no library
code, and lists where its verdict, exit code and summary disagree with its
own flags and rows.  `claim_violations` reads the same JSON and the algebra
file it echoes, and lists where its E, good objects, model and rows
disagree with the table, `brute_dims` and sympy ranks.

The last section keeps small helpers that only the tests use: the product
of model monomials, a linear solver, a matrix-vector product and bases of
the decomposables.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from formacheck.algebra import Generator, GradedAlgebra, ValidationReport
from formacheck.model import EEntry, GoodObject, Monomial
from formacheck.reference import (ZERO, MatQ, RowSpace, Vec, _merge_even, as_row, as_vec,
                                  rref, unit_vec)


def dense_mul(h, a: Sequence, b: Sequence) -> Vec:
    """a * b in h for dense vectors a and b, read straight off `h.mult`,
    which holds `h.scale` times e_i e_j under (i, j), i <= j: e_j e_i is
    (-1)^(|e_i||e_j|) e_i e_j, and a key with i > j is not read."""
    out = [ZERO] * h.dim
    b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in b_terms:
            sign = -1 if i > j and h.degrees[i] % 2 and h.degrees[j] % 2 else 1
            for k, c in h.mult.get((min(i, j), max(i, j)), ()):
                out[k] += sign * ca * cb * Fraction(c, h.scale)
    return tuple(out)


def dense(h, row) -> Vec:
    """The row (nonzero (k, c) terms) of h as a dense vector."""
    out = [ZERO] * h.dim
    for k, c in row:
        out[k] = c
    return tuple(out)


def raw_model(model):
    """Strip a model down to plain data: even degrees + odd (degree, target)."""
    even_degs = list(model.even_degrees)
    odd = []
    for w in model.odd_generators:
        target = [0] * len(even_degs)
        for i, e in w.target.even:
            target[i] = e
        odd.append((w.degree, tuple(target)))
    return even_degs, odd


def brute_basis(even_degs, odd, n):
    """All (even exponent tuple, odd index subset) pairs of total degree n.
    Every odd generator has degree at least the least odd degree, so a
    subset of degree rem has at most rem // that degree elements."""
    out = []
    ranges = [range(n // d + 1) if d else range(1) for d in even_degs]
    least = min((d for d, _ in odd), default=1)
    for exps in itertools.product(*ranges):
        rem = n - sum(e * d for e, d in zip(exps, even_degs))
        if rem < 0:
            continue
        for r in range(min(len(odd), rem // least) + 1):
            for sub in itertools.combinations(range(len(odd)), r):
                if sum(odd[i][0] for i in sub) == rem:
                    out.append((exps, sub))
    return sorted(set(out))


def brute_differential(even_degs, odd, n):
    """The matrix of d from degree n to degree n+1, assembled by hand, as a
    sparse sympy `DomainMatrix` over ZZ: deleting the odd factor at each
    position gives a distinct monomial, so each entry is one sign."""
    dom = brute_basis(even_degs, odd, n)
    cod = brute_basis(even_degs, odd, n + 1)
    where = {m: i for i, m in enumerate(cod)}
    rows = {}
    for j, (exps, sub) in enumerate(dom):
        for pos, oi in enumerate(sub):
            sign = (-1) ** pos
            target = odd[oi][1]
            new_exps = tuple(e + t for e, t in zip(exps, target))
            new_sub = sub[:pos] + sub[pos + 1:]
            rows.setdefault(where[(new_exps, new_sub)], {})[j] = ZZ(sign)
    return DomainMatrix(rows, (len(cod), len(dom)), ZZ)


def brute_dims(even_degs, odd, cap):
    """dim H^n = dim ker(d_n) - rank(d_(n-1)) for 0 <= n <= cap, each d_n
    ranked once by sympy."""
    ranks = [brute_differential(even_degs, odd, n).rank() for n in range(cap + 1)]
    return [len(brute_basis(even_degs, odd, n)) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(cap + 1)]


def brute_model_dims(model, cap):
    return brute_dims(*raw_model(model), cap)


def brute_blocks(model, cap):
    """(|α|, α) for every multidegree α whose block meets a degree <= cap,
    by |α| and then lexicographically.  A face of size s lies in degree at
    least the sum of the s smallest odd degrees, so no face reaching the cap
    has more than s_max elements and every such block has |α| <= cap + s_max."""
    even_degs, odd = raw_model(model)
    odd_degs = sorted(d for d, _ in odd)
    s_max = max(s for s in range(len(odd_degs) + 1) if sum(odd_degs[:s]) <= cap)
    reach = cap + s_max
    out = []
    for alpha in itertools.product(*(range(reach // d + 1) for d in even_degs)):
        n = sum(a * d for a, d in zip(alpha, even_degs))
        if n <= reach:
            out.append((n, alpha))
    return sorted(out)


def brute_validate(h):
    """Dense reference for `formacheck.validate`: every law on every basis
    pair and triple, with the same failure messages in the same order."""
    failures = []

    degree_zero = [i for i, d in enumerate(h.degrees) if d == 0]
    single_unit = degree_zero == [h.unit_index]
    if not single_unit:
        failures.append(
            "degree 0 must contain exactly the unit; found "
            + ", ".join(h.labels[i] for i in degree_zero))

    def e(i):
        return unit_vec(h.dim, i)

    def mul(a, b):
        return dense_mul(h, a, b)

    graded = True
    for i, j in itertools.product(range(h.dim), repeat=2):
        entry = mul(e(i), e(j))
        expected = h.degrees[i] + h.degrees[j]
        bad = [k for k, c in enumerate(entry) if c != 0 and h.degrees[k] != expected]
        if bad:
            graded = False
            failures.append(
                f"product {h.labels[i]}*{h.labels[j]} has support in degree "
                f"{h.degrees[bad[0]]}, expected {expected}")
            break

    unit_ok = True
    u = e(h.unit_index)
    for j in range(h.dim):
        if mul(u, e(j)) != e(j) or mul(e(j), u) != e(j):
            unit_ok = False
            failures.append(f"unit law fails on {h.labels[j]}")
            break

    # the table holds e_i e_j under i <= j only: a key out of that order fails
    # the law, as does a product that does not commute
    commutative = True
    for i, j in itertools.product(range(h.dim), repeat=2):
        a, b = e(i), e(j)
        sign = -1 if (h.degrees[i] % 2 and h.degrees[j] % 2) else 1
        if (i > j and (i, j) in h.mult) or mul(a, b) != tuple(sign * x for x in mul(b, a)):
            commutative = False
            failures.append(f"graded commutativity fails on ({h.labels[i]}, {h.labels[j]})")
            break

    associative = True
    for i in range(h.dim):
        a = e(i)
        for j in range(h.dim):
            b = e(j)
            ab = mul(a, b)
            for k in range(h.dim):
                c = e(k)
                if mul(ab, c) != mul(a, mul(b, c)):
                    associative = False
                    failures.append(
                        f"associativity fails on ({h.labels[i]}, {h.labels[j]}, {h.labels[k]})")
                    break
            if not associative:
                break
        if not associative:
            break

    return ValidationReport(
        single_unit_in_degree_zero=single_unit,
        graded_multiplicativity=graded,
        unit_law=unit_ok,
        associativity=associative,
        graded_commutativity=commutative,
        finite_dimensional=True,
        odd_degrees_vanish=all(d % 2 == 0 for d in h.degrees),
        failures=tuple(failures),
    )


def decomposable_spans(h):
    """The span of the degree-n terms of the products e_i e_j of
    positive-degree classes, in each degree n of 1..top_degree, as a
    `RowSpace` in that degree's coordinates (basis order)."""
    positive = [i for i in range(h.dim) if h.degrees[i] > 0]
    products = [(h.degrees[i] + h.degrees[j],
                 dense_mul(h, unit_vec(h.dim, i), unit_vec(h.dim, j)))
                for i in positive for j in positive]
    spans = {}
    for n in range(1, h.top_degree + 1):
        idx = h.degree_indices(n)
        spans[n] = RowSpace(len(idx))
        for degree, value in products:
            if degree == n:
                spans[n].add([value[k] for k in idx])
    return spans


def brute_generators(h):
    """Reference for `formacheck.choose_generators`: the greedy rule.  In
    each degree the basis classes are added in basis order to the span of
    the decomposables, and each class that enlarges it is a generator."""
    gens = []
    for n, span in decomposable_spans(h).items():
        for slot, i in enumerate(h.degree_indices(n)):
            if span.add(unit_vec(span.dim, slot)) is not None:
                gens.append(Generator(f"v{len(gens) + 1}", n, as_row(unit_vec(h.dim, i))))
    return tuple(gens)


def _image(h, gens, exps):
    """Product in h of the generator classes with these exponents, one
    factor at a time, as a dense vector."""
    out = unit_vec(h.dim, h.unit_index)
    for g, e in zip(gens, exps):
        for _ in range(e):
            out = dense_mul(h, out, dense(h, g.class_vector))
    return out


def brute_E(h, gens):
    """Reference for `formacheck.compute_E`: every exponent tuple up to the
    top degree with >= 2 factors and a nonzero image, sorted by degree and
    then by the exponent tuple."""
    degs = tuple(g.degree for g in gens)
    found = []
    for exps in itertools.product(*(range(h.top_degree // d + 1) for d in degs)):
        degree = sum(e * d for e, d in zip(exps, degs))
        if sum(exps) < 2 or degree > h.top_degree:
            continue
        value = _image(h, gens, exps)
        if any(value):
            found.append((degree, exps, value))
    return tuple(EEntry(Monomial(tuple((i, e) for i, e in enumerate(exps) if e), (), degree),
                        as_row(value)) for degree, exps, value in sorted(found))


def brute_good_objects(h, gens):
    """Reference for `formacheck.good_objects`: walk every exponent tuple up
    to degree top + max generator degree and keep those with zero image
    whose proper divisors with >= 2 factors all have nonzero image, with
    those divisors as witnesses.  A longer candidate would have a proper
    divisor above the top degree, so nothing good lies past the bound."""
    degs = tuple(g.degree for g in gens)
    bound = h.top_degree + max(degs, default=0)

    def monomial(exps):
        return Monomial(tuple((i, e) for i, e in enumerate(exps) if e), (),
                        sum(e * d for e, d in zip(exps, degs)))

    goods = []
    for exps in itertools.product(*(range(bound // d + 1) for d in degs)):
        if sum(exps) < 2 or monomial(exps).degree > bound or any(_image(h, gens, exps)):
            continue
        witnesses = []
        for div in itertools.product(*(range(e + 1) for e in exps)):
            if div == exps or sum(div) < 2:
                continue
            value = _image(h, gens, div)
            if not any(value):
                break
            witnesses.append(EEntry(monomial(div), as_row(value)))
        else:
            witnesses.sort(key=lambda w: w.monomial.sort_key())
            goods.append(GoodObject(monomial(exps), tuple(witnesses)))
    return sorted(goods, key=lambda g: g.monomial.sort_key())


# ---- the certificate's contract, from its JSON alone ----

def contract_violations(cert: dict) -> list[str]:
    """What a certificate's JSON claims that its own flags and rows do not
    give, one message each; empty when it is consistent.

    The classification follows from `hypothesis_ok` and the two condition
    flags, the discrepancy from the classification and the rows'
    `bijective`, and the exit code from both; `overall` and `first_failure`
    summarize the rows, one per degree 0..cap, and each row's flags follow
    from its three dimensions.
    """
    verdict, quasi = cert["verdict"], cert["quasi_isomorphism"]
    found = []

    def expect(what, got, want):
        if got != want:
            found.append(f"{what} is {got!r}, expected {want!r}")

    ok = verdict["hypothesis_ok"]
    flags = (verdict["condition_i_trivial_products"], verdict["condition_ii_independent_family"])
    expect("odd_degrees_vanish", verdict["odd_degrees_vanish"], ok)
    expect("validation odd_degrees_vanish", cert["validation"]["odd_degrees_vanish"], ok)
    expect("the check's absence", quasi is None, not ok)
    if ok:
        expect("the condition flags' types", [type(f) for f in flags], [bool, bool])
        classification = "FORMAL_BY_THEOREM" if any(flags) else "INCONCLUSIVE"
    else:
        expect("the condition flags", flags, (None, None))
        classification = "HYPOTHESIS_VIOLATED"
    expect("classification", verdict["classification"], classification)
    failing = []
    if quasi is not None:
        rows = quasi["degrees"]
        expect("the check's cap", quasi["cap"], cert["cap"])
        expect("the rows' degrees", [r["degree"] for r in rows], list(range(cert["cap"] + 1)))
        for r in rows:
            rank, n = r["induced_map_rank"], r["degree"]
            expect(f"degree {n} injective", r["injective"], rank == r["model_cohomology_dim"])
            expect(f"degree {n} surjective", r["surjective"], rank == r["target_dim"])
            expect(f"degree {n} bijective", r["bijective"], r["injective"] and r["surjective"])
        failing = [r["degree"] for r in rows if not r["bijective"]]
        expect("overall", quasi["overall"], not failing)
        expect("first_failure", quasi["first_failure"], failing[0] if failing else None)
    discrepancy = classification == "FORMAL_BY_THEOREM" and bool(failing)
    expect("discrepancy", verdict["discrepancy"], discrepancy)
    expect("exit_code", cert["exit_code"], {"HYPOTHESIS_VIOLATED": 3, "INCONCLUSIVE": 2}.get(
        classification, 4 if discrepancy else 0))
    return found


# ---- the certificate's claims about its algebra, from its JSON alone ----

_Table = namedtuple("_Table", "dim degrees mult scale")  # what `dense_mul` reads of an algebra


def file_table(raw: dict) -> tuple[dict, list, _Table]:
    """The algebra file `raw` as (label -> index, degrees, table): the unit
    rows, then each product of the half table and its mirror, with the sign
    (-1)^(pq) for two odd degrees, so the table holds both orders."""
    index = {b["label"]: i for i, b in enumerate(raw["basis"])}
    degrees = [b["degree"] for b in raw["basis"]]
    u, dim = index[raw["unit"]], len(index)
    mult = {}
    for j in range(dim):
        mult[u, j] = mult[j, u] = ((j, Fraction(1)),)
    for item in raw["products"]:
        i, j = index[item["left"]], index[item["right"]]
        row = tuple(sorted((index[t["label"]], Fraction(t["coeff"])) for t in item["value"]))
        sign = -1 if degrees[i] % 2 and degrees[j] % 2 else 1
        mult[i, j], mult[j, i] = row, tuple((k, sign * c) for k, c in row)
    return index, degrees, _Table(dim, degrees, mult, 1)


def claim_violations(cert: dict, rows_up_to: Optional[int] = None) -> list[str]:
    """What a certificate's JSON says about its algebra that the algebra file
    it echoes (`input`) does not give, one message each; empty when every
    claim holds.  It reads no library code.

    Each class of E is the product of its monomial's generator classes, by
    `dense_mul` on the file's table.  Each good object is zero in H, and its
    divisors are exactly its proper divisors with two or more factors, each
    an entry of E with E's class.  The k-th odd generator is w_k, of degree
    |m| - 1, with d w_k = m for the k-th good object m.  Each row's
    `target_dim` is dim H^n, its `model_cohomology_dim` is `brute_dims` of
    the one-stage model on the listed generators and good objects (for the
    rows up to `rows_up_to` when it is given), and its `induced_map_rank` is
    the sympy rank of the listed classes of 1, the generators and E of
    degree n.
    """
    if cert["quasi_isomorphism"] is None:
        return []
    index, degrees, table = file_table(cert["input"])
    found = []

    def expect(what, got, want):
        if got != want:
            found.append(f"{what} is {got!r}, expected {want!r}")

    def vector(sparse: dict) -> Vec:
        return dense(table, [(index[label], Fraction(c)) for label, c in sparse.items()])

    one = unit_vec(table.dim, index[cert["input"]["unit"]])
    generators = {g["label"]: vector(g["class"]) for g in cert["generators"]}
    gen_degree = {g["label"]: g["degree"] for g in cert["generators"]}
    classes = [(0, one)] + [(g["degree"], generators[g["label"]]) for g in cert["generators"]]

    def image(monomial: dict) -> Vec:
        out = one
        for label, e in monomial["even"]:
            for _ in range(e):
                out = dense_mul(table, out, generators[label])
        return out

    def degree_of(monomial: dict) -> int:
        return sum(gen_degree[label] * e for label, e in monomial["even"])

    def exponents(monomial: dict) -> tuple[int, ...]:
        powers = dict(monomial["even"])
        return tuple(powers.get(label, 0) for label in generators)

    e_family = {}
    for entry in cert["e_family"]:
        text = entry["monomial"]["text"]
        degree = degree_of(entry["monomial"])
        expect(f"the degree of {text}", (entry["degree"], entry["monomial"]["degree"]),
               (degree, degree))
        value = vector(entry["class"])
        expect(f"the class of {text} and its being nonzero", (value, any(value)),
               (image(entry["monomial"]), True))
        e_family[exponents(entry["monomial"])] = value
        classes.append((entry["degree"], value))
    for good in cert["good_objects"]:
        text, exps = good["monomial"]["text"], exponents(good["monomial"])
        expect(f"the degree of {text}", good["monomial"]["degree"], degree_of(good["monomial"]))
        expect(f"the image of {text}", (any(image(good["monomial"])), good["phi_image"]),
               (False, {}))
        divisors = [exponents(w["monomial"]) for w in good["divisors"]]
        proper = {div for div in itertools.product(*(range(e + 1) for e in exps))
                  if div != exps and sum(div) >= 2}
        expect(f"the divisors of {text}", (sorted(divisors), sorted(proper & set(e_family))),
               (sorted(proper), sorted(proper)))
        for div, w in zip(divisors, good["divisors"]):
            expect(f"the class of {w['monomial']['text']} under {text}",
                   vector(w["class"]), e_family.get(div))
    odd = cert["model"]["odd_generators"]
    expect("the odd generators' labels", [w["label"] for w in odd],
           [f"w{k + 1}" for k in range(len(cert["good_objects"]))])
    for w, good in zip(odd, cert["good_objects"]):
        expect(f"the degree and target of {w['label']}",
               (w["degree"], w["differential"]),
               (good["monomial"]["degree"] - 1, {"coefficient": "1", "monomial": good["monomial"]}))
    expect("the model's even generators", cert["model"]["even_generators"],
           [{"label": label, "degree": d} for label, d in gen_degree.items()])
    raw_odd = [(good["monomial"]["degree"] - 1, exponents(good["monomial"]))
               for good in cert["good_objects"]]
    rows = cert["quasi_isomorphism"]["degrees"]
    checked = len(rows) - 1 if rows_up_to is None else min(rows_up_to, len(rows) - 1)
    dims = brute_dims(list(gen_degree.values()), raw_odd, checked)
    for r in rows:
        n = r["degree"]
        spanned = [v for degree, v in classes if degree == n]
        expect(f"degree {n} target_dim", r["target_dim"], degrees.count(n))
        expect(f"degree {n} induced_map_rank", r["induced_map_rank"],
               sympy.Matrix(spanned).rank() if spanned else 0)
        if n <= checked:
            expect(f"degree {n} model_cohomology_dim", r["model_cohomology_dim"], dims[n])
    return found


# ---- helpers used only by the tests ----

def multiply(model, a: Monomial, b: Monomial):
    """Product of canonical monomials: (sign, monomial) or (0, None).

    The sign is the Koszul sign of interleaving b's odd factors past a's;
    a repeated odd factor squares to zero.
    """
    if set(a.odd) & set(b.odd):
        return 0, None
    inversions = sum(1 for x in a.odd for y in b.odd if y < x)
    sign = -1 if inversions % 2 else 1
    product = Monomial(
        even=_merge_even(a.even, b.even),
        odd=tuple(sorted(a.odd + b.odd)),
        degree=a.degree + b.degree,
    )
    return sign, product


def matvec(m: MatQ, v: Sequence) -> Vec:
    x = as_vec(v)
    if len(x) != m.cols:
        raise ValueError("dimension mismatch in matvec")
    return tuple(sum((row[j] * x[j] for j in range(m.cols)), ZERO)
                 for row in m.entries)


def solve(m: MatQ, b: Sequence) -> Optional[Vec]:
    """One solution of m.x = b, or None if inconsistent.

    Free variables are set to zero, so the returned solution is unique for
    a given input.
    """
    rhs = as_vec(b)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = MatQ(m.rows, m.cols + 1,
               tuple(row + (rhs[i],) for i, row in enumerate(m.entries)))
    red, pivots, _ = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for j, p in enumerate(pivots):
        x[p] = red.entries[j][m.cols]
    return tuple(x)


def decomposables(h: GradedAlgebra) -> dict[int, list[Vec]]:
    """Degreewise bases of the span of products of positive-degree classes.

    Returns the canonical (RREF) basis of `decomposable_spans` in each
    degree 1..top_degree as full-length vectors; degree 0 is excluded by
    definition.
    """
    out = {}
    for n, span in decomposable_spans(h).items():
        idx = h.degree_indices(n)
        full = []
        for row in span.rows:
            vec = [ZERO] * h.dim
            for slot, k in enumerate(idx):
                vec[k] = row[slot]
            full.append(tuple(vec))
        out[n] = full
    return out
