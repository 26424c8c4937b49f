"""Shared builders for the test suite."""

import operator
from fractions import Fraction

import sympy

import formacheck as fc
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formats import format_rational, parse_algebra_json
from formacheck.reference import MatQ, unit_vec

from oracles import dense_mul


def algebra(obj):
    return parse_algebra_json(obj)


def serialize_algebra(h, name=""):
    """The input JSON object of h: the half table (left <= right), omitting
    zero products and the implicit unit rows."""
    products = []
    u = h.unit_index
    for (i, j), entry in sorted(h.mult.items()):
        if i > j:
            continue
        if u in (i, j) and entry == ((j if i == u else i, Fraction(1)),):
            continue  # implicit unit row
        value = [{"label": h.labels[k], "coeff": format_rational(c)} for k, c in entry]
        products.append({"left": h.labels[i], "right": h.labels[j], "value": value})
    return {
        "name": name,
        "basis": [{"label": lab, "degree": deg}
                  for lab, deg in zip(h.labels, h.degrees)],
        "unit": h.labels[h.unit_index],
        "products": products,
    }


def s2():
    return algebra(even_sphere(2))


def cp2():
    return algebra(truncated_poly(2, 3))


def cp3():
    return algebra(truncated_poly(2, 4))


def wedge_s2_s2():
    return algebra(wedge(even_sphere(2), even_sphere(2)))


def s2_power_4():
    s2x2 = product(even_sphere(2), even_sphere(2))
    return algebra(product(s2x2, s2x2))


def cp2_power_3():
    cp2_obj = truncated_poly(2, 3)
    return algebra(product(product(cp2_obj, cp2_obj), cp2_obj))


def cp2_power_4():
    cp2_obj = truncated_poly(2, 3)
    return algebra(product(product(product(cp2_obj, cp2_obj), cp2_obj), cp2_obj))


def sphere_wedge_8():
    w2 = wedge(even_sphere(2), even_sphere(2))
    w4 = wedge(w2, w2)
    return algebra(wedge(w4, w4))


def dependent_family():
    """a^2 = b^2 = c with ab = 0: two distinct monomials share one class,
    so conditions (i) and (ii) both fail and the verdict is inconclusive."""
    return fc.GradedAlgebra.from_products(
        [("1", 0), ("a", 2), ("b", 2), ("c", 4)], "1",
        {("a", "a"): {"c": 1}, ("b", "b"): {"c": 1}})


def cp2_sharp_cp2():
    """H*(CP^2 # CP^2): x^2 = y^2 = z and xy = 0.  It is monomial in no
    basis over Q, as x^2 + y^2 has no rational isotropic line; it is the
    ring of `dependent_family`, with the labels of the connected sum."""
    return fc.GradedAlgebra.from_products(
        [("1", 0), ("x", 2), ("y", 2), ("z", 4)], "1",
        {("x", "x"): {"z": 1}, ("y", "y"): {"z": 1}})


def quotient_ring(degrees, relations):
    """Q[x]/I for an Artinian ideal I of relations homogeneous in `degrees`
    (variable name -> degree).  The basis is the standard monomials of the
    grevlex Gröbner basis of I (sympy), ordered by degree and then by their
    exponents, and each product is the normal form of the two monomials'
    product, so a table row may have several terms."""
    xs = sympy.symbols(list(degrees))
    grobner = sympy.groebner(relations(*xs), *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in grobner.exprs]

    def standard(m):
        return not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)

    monos, level = set(), {(0,) * len(xs)}
    while level:
        monos |= level
        level = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in level for i in range(len(xs))}
        level = {m for m in level if standard(m)} - monos
    weight = list(degrees.values())
    monos = sorted(monos, key=lambda m: (sum(map(operator.mul, m, weight)), m[::-1]))
    label = {m: "*".join(f"{x}^{e}" if e > 1 else str(x) for x, e in zip(xs, m) if e) or "1"
             for m in monos}
    table = {}
    for a, left in enumerate(monos[1:], 1):
        for right in monos[a:]:
            form = grobner.reduce(sympy.Mul(*(x ** (p + q) for x, p, q in zip(xs, left, right))))[1]
            if form != 0:
                table[(label[left], label[right])] = {
                    label[m]: int(c) if c.is_integer else Fraction(int(c.p), int(c.q))
                    for m, c in sympy.Poly(form, *xs).terms()}
    return fc.GradedAlgebra.from_products(
        [(label[m], sum(map(operator.mul, m, weight))) for m in monos], "1", table)


def grassmannian_2_4():
    """H*(Gr(2,4)) = Q[c1,c2]/(h3,h4), h_k the complete symmetric polynomial
    of degree k in the Chern roots: dimensions 1, 1, 2, 1, 1 in degrees 0-8."""
    return quotient_ring({"c1": 2, "c2": 4}, lambda c1, c2: [
        c1 ** 3 - 2 * c1 * c2, c1 ** 4 - 3 * c1 ** 2 * c2 + c2 ** 2])


def flag_3():
    """H*(Fl(3)), the coinvariants Q[x1,x2,x3]/(e1,e2,e3) of the symmetric
    group: dimensions 1, 2, 2, 1 in degrees 0-6."""
    return quotient_ring({"x1": 2, "x2": 2, "x3": 2}, lambda x1, x2, x3: [
        x1 + x2 + x3, x1 * x2 + x1 * x3 + x2 * x3, x1 * x2 * x3])


def quadric_intersection():
    """Q[x,y,z]/(x^2 + yz, y^2 + xz, z^2 + xy), a complete intersection of
    three quadrics: dimensions 1, 3, 3, 1 in degrees 0-6."""
    return quotient_ring({"x": 2, "y": 2, "z": 2}, lambda x, y, z: [
        x ** 2 + y * z, y ** 2 + x * z, z ** 2 + x * y])


# rings monomial in no basis, read off Gröbner bases
GROEBNER_RINGS = {
    "grassmannian_2_4": grassmannian_2_4,
    "flag_3": flag_3,
    "quadric_intersection": quadric_intersection,
}


def dependent_pair():
    """a^2 = c + d, b^2 = 2c + 2d and ab = f in a three-dimensional H^4: E
    has as many classes as H^4 has dimensions, two of them dependent, so
    only elimination tells that condition (ii) fails."""
    return fc.GradedAlgebra.from_products(
        [("1", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 4), ("f", 4)], "1",
        {("a", "a"): {"c": 1, "d": 1}, ("a", "b"): {"f": 1},
         ("b", "b"): {"c": 2, "d": 2}})


def corpus_objects():
    """A spread of small valid inputs used by the property suites."""
    s2_obj = even_sphere(2)
    s4_obj = even_sphere(4)
    s6_obj = even_sphere(6)
    return [
        s2_obj,
        s4_obj,
        s6_obj,
        truncated_poly(2, 3),
        truncated_poly(2, 4),
        truncated_poly(2, 5),
        truncated_poly(4, 3),
        wedge(s2_obj, s2_obj),
        wedge(s2_obj, s4_obj),
        wedge(truncated_poly(2, 3), s2_obj),
        product(s2_obj, s2_obj),
        product(s2_obj, s4_obj),
        product(truncated_poly(2, 3), s2_obj),
        # many multidegree blocks per degree
        product(product(s2_obj, s2_obj), s2_obj),
        wedge(wedge(s2_obj, s2_obj), s2_obj),
    ]


def pipeline(h, cap=None):
    """Run `certify`; returns (gens, e, goods, model, quasi-isomorphism report)."""
    cert = fc.certify(h, fc.validate(h), cap)
    return cert.generators, cert.e_family, cert.good_objects, cert.model, cert.quasi_isomorphism


def frac_matrix(rows):
    return MatQ.from_rows([[Fraction(x) for x in row] for row in rows])


def random_invertible(rng, n):
    """(T, T^-1) with small integer entries, built from elementary ops."""
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    tinv = [row[:] for row in t]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.8:
            c = Fraction(rng.randint(-2, 2))
            # row_j += c * row_i on t; col_i -= c * col_j on tinv
            t[j] = [a + c * b for a, b in zip(t[j], t[i])]
            for row in tinv:
                row[i] -= c * row[j]
        else:
            t[i], t[j] = t[j], t[i]
            for row in tinv:
                row[i], row[j] = row[j], row[i]
    left = MatQ.from_rows(t, cols=n)
    right = MatQ.from_rows(tinv, cols=n)
    assert left.matmul(right) == MatQ.identity(n)
    return left, right


def embed(h, idx, local):
    """The vector of h with coordinates `local` on the positions `idx`."""
    vec = [Fraction(0)] * h.dim
    for k, c in zip(idx, local):
        vec[k] = c
    return tuple(vec)


def in_basis(h, new, old):
    """h's table in the basis `new` (dense vectors in the old basis), where
    `old` holds the old basis vectors in the new basis; the products come
    from `oracles.dense_mul`, not from the code under test."""
    table = {}
    for i in range(h.dim):
        for j in range(i, h.dim):
            terms = [(k, c) for k, c in enumerate(dense_mul(h, new[i], new[j])) if c]
            coords = [sum((c * old[k][m] for k, c in terms), Fraction(0))
                      for m in range(h.dim)]
            table[(h.labels[i], h.labels[j])] = {
                h.labels[m]: c for m, c in enumerate(coords) if c != 0}
    return fc.GradedAlgebra.from_products(
        list(zip(h.labels, h.degrees)), h.labels[h.unit_index], table)


def change_basis(h, rng):
    """h in a random basis of each positive degree, built with
    `random_invertible`: the same ring, but a product of basis elements may
    be a sum of several, so its relations need not be monomial."""
    new = [unit_vec(h.dim, i) for i in range(h.dim)]
    old = list(new)
    for n in sorted(set(h.degrees) - {0}):
        idx = h.degree_indices(n)
        t, t_inv = random_invertible(rng, len(idx))
        for a, i in enumerate(idx):
            new[i] = embed(h, idx, t.entries[a])
            old[i] = embed(h, idx, t_inv.entries[a])
    return in_basis(h, new, old)


def random_chain_complex(rng, max_dim=5, max_deg=6):
    """Random complex with d*d = 0 by construction and known homology.

    Start from a staircase normal form (sources map isomorphically onto
    boundary slots) and conjugate each degree by a random invertible matrix.
    Returns (dims, boundaries, homology dims), where boundaries[k] is the
    matrix of d_(k+1): C_(k+1) -> C_k, a tuple of dims[k] rows of dims[k+1]
    `Fraction`s.
    """
    top = rng.randint(1, max_deg)
    dims = [rng.randint(0, max_dim) for _ in range(top + 1)]
    ranks = [0] * (top + 2)
    for n in range(top, 0, -1):
        bound = min(dims[n] - ranks[n + 1], dims[n - 1])
        ranks[n] = rng.randint(0, max(bound, 0)) if bound > 0 else 0
    canonical = []
    for n in range(1, top + 1):
        rows = [[Fraction(0)] * dims[n] for _ in range(dims[n - 1])]
        for j in range(ranks[n]):
            rows[ranks[n - 1] + j][j] = Fraction(1)
        canonical.append(MatQ.from_rows(rows, cols=dims[n]))
    base_change = [random_invertible(rng, dims[n]) for n in range(top + 1)]
    boundaries = tuple(
        base_change[n - 1][0].matmul(canonical[n - 1]).matmul(base_change[n][1]).entries
        for n in range(1, top + 1))
    homology = [dims[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]
    return tuple(dims), boundaries, homology


def random_even_monomial_algebra(rng):
    """Quotient of an even polynomial ring by a monomial ideal plus a degree
    cut: associative, commutative, and unital by construction."""
    num = rng.randint(1, 4)
    degs = sorted(rng.choice((2, 4, 6)) for _ in range(num))
    top = rng.randrange(max(degs), 13, 2)

    monos = []

    def walk(i, acc):
        if i == num:
            monos.append(tuple(acc))
            return
        budget = top - sum(e * d for e, d in zip(acc, degs))
        for e in range(budget // degs[i] + 1):
            walk(i + 1, acc + [e])

    walk(0, [])
    monos.sort()
    candidates = [m for m in monos if sum(m) >= 2]
    k = min(len(candidates), rng.randint(0, 3))
    ideal = sorted(rng.sample(candidates, k=k)) if k else []

    def killed(m):
        return any(all(a >= b for a, b in zip(m, g)) for g in ideal)

    basis = [m for m in monos if not killed(m)]
    label = {m: "m" + "".join(map(str, m)) for m in basis}
    basis_set = set(basis)
    products = {}
    for i, a in enumerate(basis):
        for b in basis[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if a != (0,) * num and b != (0,) * num and s in basis_set:
                products[(label[a], label[b])] = {label[s]: 1}
    return fc.GradedAlgebra.from_products(
        [(label[m], sum(e * d for e, d in zip(m, degs))) for m in basis],
        label[(0,) * num], products)
