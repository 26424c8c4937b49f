"""Free graded-commutative algebra machinery and the one-stage model.

Even generators v (polynomial part) come from the chosen generator set of
the input ring; odd generators w (exterior part) are added one per good
object m, with dw = m.  Monomials are kept in a canonical signed form:
even factors and odd factors by strictly increasing generator index,
sign +1.  An even part is sparse, the (i, e) with e > 0 by ascending i:
E, the good objects and the targets are built in that form, and only the
walk over the blocks in `cohomology` reads dense exponent tuples.

The model's monomial basis in each degree, the matrix of d on it and
phi~ are the degree-by-degree reference, which `check` never runs; they
live in `reference`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .algebra import Generator, GradedAlgebra
from .linalg import _moved_to_reference

__getattr__ = _moved_to_reference(__name__, {
    "differential_matrix", "monomials_of_degree", "phi_tilde"})

EvenPart = tuple[tuple[int, int], ...]  # (generator index, exponent > 0), ascending


class Monomial(namedtuple("Monomial", "even odd degree")):
    """A canonical monomial: sparse `even` part, increasing `odd` indices, degree."""

    __slots__ = ()

    def __new__(cls, even: EvenPart, odd: tuple[int, ...], degree: int):
        if any(e <= 0 for _, e in even):
            raise ValueError("even exponents must be positive")
        if [i for i, _ in even] != sorted({i for i, _ in even}):
            raise ValueError("even factors must be sorted by generator index, each index once")
        if list(odd) != sorted(set(odd)):
            raise ValueError("odd factors must be strictly increasing")
        return super().__new__(cls, even, odd, degree)

    @property
    def length(self) -> int:
        return sum(e for _, e in self.even) + len(self.odd)

    def sort_key(self):
        return (self.degree, self.even, self.odd)


def format_monomial(m: Monomial, even_labels, odd_labels) -> str:
    if not m.even and not m.odd:
        return "1"
    parts = []
    for i, e in m.even:
        parts.append(even_labels[i] if e == 1 else f"{even_labels[i]}^{e}")
    parts.extend(odd_labels[i] for i in m.odd)
    return "*".join(parts)


def _shift(even: EvenPart, i: int, by: int) -> EvenPart:
    """`even` with the power of v_i moved by `by` (+1, or -1 if v_i divides it)."""
    p = bisect_left(even, (i,))
    if p < len(even) and even[p][0] == i:
        e = even[p][1] + by
        return even[:p] + (((i, e),) if e else ()) + even[p + 1:]
    return even[:p] + ((i, by),) + even[p:]


class EEntry(namedtuple("EEntry", "monomial class_vector")):
    """A nonzero product of >= 2 generators: its monomial and its class (a Row)."""

    __slots__ = ()


class GoodObject(namedtuple("GoodObject", "monomial divisor_witnesses")):
    """A pure even monomial of length >= 2 with zero image, and the entries of E dividing it."""

    __slots__ = ()


class OddGenerator(namedtuple("OddGenerator", "label degree target")):
    """An odd generator w: its label, its odd degree and its target dw."""

    __slots__ = ()


class Model(namedtuple("Model", "generators odd_generators")):
    """The free CDGA on the even generators plus one w per good object.

    d vanishes on even generators, sends each w to its good object, and is
    extended as a degree +1 derivation.  Exactly one stage: good objects
    are not recomputed after the w's are added.
    """

    __slots__ = ()

    @property
    def even_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    @property
    def odd_degrees(self) -> tuple[int, ...]:
        return tuple(w.degree for w in self.odd_generators)


def _require_even(gens: tuple[Generator, ...]):
    if any(g.degree % 2 for g in gens):
        raise ValueError("construction requires all generators in even degrees")


def compute_E(h: GradedAlgebra, gens: tuple[Generator, ...]) -> tuple[EEntry, ...]:
    """All nonzero products of >= 2 generators, up to the top degree of h,
    by degree and then lexicographically in the dense exponents.

    The nonzero monomials N (the generators and E) grow degree by degree.
    A candidate is v_j times a member x of N of lower degree with j at most
    every index of x, so v_j is its first factor and x the product with it
    removed; it joins E if g_j * x is nonzero.  Nothing past top_degree(h),
    zero by grading, is formed.  With 1 and the generators, E spans H, which
    is why `verify_quasi_iso` knows the induced map is onto.
    """
    _require_even(gens)
    # members of N by degree, as (sparse exponents, nonzero class)
    level = [[] for _ in range(h.top_degree + 1)]
    for i, g in enumerate(gens):
        level[g.degree].append((((i, 1),), g.class_vector))
    entries = []
    for degree in range(h.top_degree + 1):
        found = []
        for j, g in enumerate(gens):
            below = level[degree - g.degree] if g.degree < degree else ()
            for even, rest in below:
                if j <= even[0][0]:
                    value = h.mul(g.class_vector, rest)
                    if value:
                        found.append((_shift(even, j, 1), value))
        # in the dense order, the lower of two first differing indices ranks later
        found.sort(key=lambda f: [(-i, e) for i, e in f[0]])
        level[degree] += found
        entries += [EEntry(Monomial(even, (), degree), value) for even, value in found]
    return tuple(entries)


def good_objects(gens: tuple[Generator, ...], e: tuple[EEntry, ...]) -> list[GoodObject]:
    """Monomials with zero image whose proper divisors (>= 2 factors) all
    have nonzero image, read off the family E = `compute_E(h, gens)`.

    The nonzero monomials N = E plus the single generators are closed under
    division, so the good objects are the minimal monomials outside N (the
    minimal generators of the complementary monomial ideal): one factor more
    than a member of N, not in N, and in N whenever any one factor is
    removed.  Each candidate v_j * x is formed once, from its first factor
    v_j and x in N.  Its divisor witnesses are the entries of E dividing it.
    """
    entries = {entry.monomial.even: entry for entry in e}
    nonzero = set(entries).union(((i, 1),) for i in range(len(gens)))
    goods = []
    for x in nonzero:
        for j in range(x[0][0] + 1):
            even = _shift(x, j, 1)
            if even in nonzero or any(_shift(even, i, -1) not in nonzero for i, _ in even):
                continue
            powers = dict(even)
            witnesses = sorted((entry for div, entry in entries.items()
                                if all(powers.get(i, 0) >= p for i, p in div)),
                               key=lambda w: w.monomial.sort_key())
            degree = sum(p * gens[i].degree for i, p in even)
            goods.append(GoodObject(Monomial(even, (), degree), tuple(witnesses)))
    goods.sort(key=lambda g: g.monomial.sort_key())
    return goods


def build_model(gens: tuple[Generator, ...], goods: list[GoodObject]) -> Model:
    """One-stage model: d(v) = 0 and one w per good object with d(w) = m."""
    _require_even(gens)
    odd = tuple(
        OddGenerator(label=f"w{k + 1}", degree=g.monomial.degree - 1, target=g.monomial)
        for k, g in enumerate(goods))
    assert all(w.degree % 2 == 1 for w in odd)
    return Model(generators=gens, odd_generators=odd)
