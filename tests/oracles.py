"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's enumeration, matrix, and
rank code: bases come from itertools-style search over raw exponent data,
and ranks come from sympy.  Only the raw model data (generator degrees and
the exponent tuples of the differentials) is shared with the code under
test.  Products come from `dense_mul`, a product of dense vectors read
straight off the table `h.mult`, never from `GradedAlgebra.mul`: the
reference validator, the greedy generator rule (which grows a
`reference.RowSpace` of the decomposables) and the E and good-object walks
all multiply with it, and convert the classes they return to rows with
`reference.as_row`.

The last section keeps small helpers that only the tests use: the product
of model monomials, a linear solver, a matrix-vector product and bases of
the decomposables.
"""

import itertools
from typing import Optional, Sequence

import sympy

from formacheck.algebra import Generator, GradedAlgebra, ValidationReport
from formacheck.model import EEntry, GoodObject, Monomial
from formacheck.reference import (ZERO, MatQ, RowSpace, Vec, _merge_even, as_row, as_vec,
                                  rref, unit_vec)


def dense_mul(h, a: Sequence, b: Sequence) -> Vec:
    """a * b in h for dense vectors a and b, read straight off `h.mult`."""
    out = [ZERO] * h.dim
    b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in b_terms:
            for k, c in h.mult.get((i, j), ()):
                out[k] += ca * cb * c
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
    """All (even exponent tuple, odd index subset) pairs of total degree n."""
    out = []
    ranges = [range(n // d + 1) if d else range(1) for d in even_degs]
    for exps in itertools.product(*ranges):
        rem = n - sum(e * d for e, d in zip(exps, even_degs))
        if rem < 0:
            continue
        for r in range(len(odd) + 1):
            for sub in itertools.combinations(range(len(odd)), r):
                if sum(odd[i][0] for i in sub) == rem:
                    out.append((exps, sub))
    return sorted(set(out))


def brute_differential(even_degs, odd, n):
    """sympy matrix of d from degree n to degree n+1, assembled by hand."""
    dom = brute_basis(even_degs, odd, n)
    cod = brute_basis(even_degs, odd, n + 1)
    where = {m: i for i, m in enumerate(cod)}
    mat = sympy.zeros(len(cod), len(dom))
    for j, (exps, sub) in enumerate(dom):
        for pos, oi in enumerate(sub):
            sign = (-1) ** pos
            target = odd[oi][1]
            new_exps = tuple(e + t for e, t in zip(exps, target))
            new_sub = sub[:pos] + sub[pos + 1:]
            mat[where[(new_exps, new_sub)], j] += sign
    return mat


def brute_cohomology_dim(even_degs, odd, n):
    """dim H^n = dim ker(d_n) - rank(d_(n-1)), all via sympy ranks."""
    dom = brute_basis(even_degs, odd, n)
    rank_out = brute_differential(even_degs, odd, n).rank()
    rank_in = brute_differential(even_degs, odd, n - 1).rank() if n > 0 else 0
    return len(dom) - rank_out - rank_in


def brute_model_dims(model, cap):
    even_degs, odd = raw_model(model)
    return [brute_cohomology_dim(even_degs, odd, n) for n in range(cap + 1)]


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

    commutative = True
    for i in range(h.dim):
        for j in range(i, h.dim):
            a, b = e(i), e(j)
            ab = mul(a, b)
            ba = mul(b, a)
            sign = -1 if (h.degrees[i] % 2 and h.degrees[j] % 2) else 1
            if ab != tuple(sign * x for x in ba):
                commutative = False
                failures.append(
                    f"graded commutativity fails on ({h.labels[i]}, {h.labels[j]})")
                break
        if not commutative:
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
