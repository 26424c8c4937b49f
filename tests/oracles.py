"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's enumeration, matrix, and
rank code: bases come from itertools-style search over raw exponent data,
and ranks come from sympy.  Only the raw model data (generator degrees and
the exponent tuples of the differentials) is shared with the code under
test.  The reference validator reads the multiplication table only through
`GradedAlgebra.mul` on dense basis vectors.
"""

import itertools
from fractions import Fraction

import sympy

from formacheck.algebra import ValidationReport


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

    graded = True
    for i, j in itertools.product(range(h.dim), repeat=2):
        entry = h.mul(h.basis_vector(i), h.basis_vector(j))
        expected = h.degrees[i] + h.degrees[j]
        bad = [k for k, c in enumerate(entry) if c != 0 and h.degrees[k] != expected]
        if bad:
            graded = False
            failures.append(
                f"product {h.labels[i]}*{h.labels[j]} has support in degree "
                f"{h.degrees[bad[0]]}, expected {expected}")
            break

    unit_ok = True
    u = h.unit()
    for j in range(h.dim):
        e = h.basis_vector(j)
        if h.mul(u, e) != e or h.mul(e, u) != e:
            unit_ok = False
            failures.append(f"unit law fails on {h.labels[j]}")
            break

    commutative = True
    for i in range(h.dim):
        for j in range(i, h.dim):
            a, b = h.basis_vector(i), h.basis_vector(j)
            ab = h.mul(a, b)
            ba = h.mul(b, a)
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
        a = h.basis_vector(i)
        for j in range(h.dim):
            b = h.basis_vector(j)
            ab = h.mul(a, b)
            for k in range(h.dim):
                c = h.basis_vector(k)
                if h.mul(ab, c) != h.mul(a, h.mul(b, c)):
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
