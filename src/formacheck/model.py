"""Free graded-commutative algebra machinery and the one-stage model.

Even generators v (polynomial part) come from the chosen generator set of
the input ring; odd generators w (exterior part) are added one per good
object m, with dw = m.  Monomials are kept in a canonical signed form:
even factors and odd factors by strictly increasing generator index,
sign +1.

The model's monomial basis in each degree, the matrix of d on it and
phi~ are the degree-by-degree reference, which `check` never runs; they
live in `reference`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .algebra import Generator, GradedAlgebra
from .linalg import Row, _moved_to_reference

__getattr__ = _moved_to_reference(__name__, {
    "differential_matrix", "monomials_of_degree", "phi_tilde"})

EvenPart = tuple[tuple[int, int], ...]  # (generator index, exponent > 0), ascending


class _Monomial(NamedTuple):
    even: EvenPart
    odd: tuple[int, ...]  # strictly increasing odd-generator indices
    degree: int


class Monomial(_Monomial):
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


def _pack(exponents: Iterable[int]) -> EvenPart:
    return tuple((i, e) for i, e in enumerate(exponents) if e)


class EEntry(NamedTuple):
    """A nonzero product of >= 2 generators: its monomial and its class."""

    monomial: Monomial
    class_vector: Row


class GoodObject(NamedTuple):
    monomial: Monomial  # pure even, length >= 2, zero image
    divisor_witnesses: tuple[EEntry, ...]  # the entries of E dividing it


class OddGenerator(NamedTuple):
    label: str
    degree: int  # target degree - 1, always odd
    target: Monomial  # pure even monomial, the value of d


class Model(NamedTuple):
    """The free CDGA on the even generators plus one w per good object.

    d vanishes on even generators, sends each w to its good object, and is
    extended as a degree +1 derivation.  Exactly one stage: good objects
    are not recomputed after the w's are added.
    """

    generators: tuple[Generator, ...]
    odd_generators: tuple[OddGenerator, ...]

    @property
    def even_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    @property
    def odd_degrees(self) -> tuple[int, ...]:
        return tuple(w.degree for w in self.odd_generators)


def _exponents(degrees: tuple[int, ...], n: int, bound: tuple[int, ...]):
    """Exponent tuples over positive `degrees` of weighted degree exactly n
    and at most `bound` in each coordinate, in lexicographic order."""
    if not degrees:
        if n == 0:
            yield ()
        return
    for e in range(min(n // degrees[0], bound[0]) + 1):
        for rest in _exponents(degrees[1:], n - e * degrees[0], bound[1:]):
            yield (e,) + rest


def _require_even(gens: tuple[Generator, ...]):
    if any(g.degree % 2 for g in gens):
        raise ValueError("construction requires all generators in even degrees")


def compute_E(h: GradedAlgebra, gens: tuple[Generator, ...]) -> tuple[EEntry, ...]:
    """All nonzero products of >= 2 generators, up to the top degree of h,
    by degree and then lexicographically in the exponents.

    Products of degree beyond top_degree(h) are zero by grading, so the
    enumeration bound loses nothing.  A product is its first generator
    times the product with that factor removed, which has a lower degree,
    so it is among the generators or the entries found before, or else it
    is zero.  `verify_quasi_iso` reads the induced map off E as well.
    """
    _require_even(gens)
    degrees = tuple(g.degree for g in gens)
    bound = tuple(h.top_degree // d for d in degrees)
    # dense exponent tuple -> nonzero class, for the generators and E so far
    nonzero = {tuple(int(i == j) for j in range(len(gens))): g.class_vector
               for i, g in enumerate(gens)}
    entries = []
    for degree in range(h.top_degree + 1):
        for exps in _exponents(degrees, degree, bound):
            if sum(exps) < 2:
                continue
            i = next(k for k, e in enumerate(exps) if e)
            rest = nonzero.get(exps[:i] + (exps[i] - 1,) + exps[i + 1:])
            if rest is None:
                continue
            value = h.mul(gens[i].class_vector, rest)
            if value:
                nonzero[exps] = value
                entries.append(EEntry(Monomial(_pack(exps), (), degree), value))
    return tuple(entries)


def good_objects(gens: tuple[Generator, ...], e: tuple[EEntry, ...]) -> list[GoodObject]:
    """Monomials with zero image whose proper divisors (>= 2 factors) all
    have nonzero image, read off the family E = `compute_E(h, gens)`.

    The nonzero monomials N = E plus the single generators are closed under
    division, so the good objects are the minimal monomials outside N (the
    minimal generators of the complementary monomial ideal): one factor more
    than a member of N, not in N, and in N whenever any one factor is
    removed.  The divisor witnesses of a good object are the entries of E
    that divide it.
    """
    n = len(gens)
    entries = {}  # dense exponent tuple -> entry of E
    for entry in e:
        exps = [0] * n
        for i, power in entry.monomial.even:
            exps[i] = power
        entries[tuple(exps)] = entry
    nonzero = set(entries).union(tuple(int(i == j) for j in range(n)) for i in range(n))

    def shifted(exps, i, by):
        return exps[:i] + (exps[i] + by,) + exps[i + 1:]

    goods = []
    for exps in {shifted(m, i, 1) for m in nonzero for i in range(n)} - nonzero:
        if all(not e or shifted(exps, i, -1) in nonzero for i, e in enumerate(exps)):
            witnesses = sorted((entry for div, entry in entries.items()
                                if all(a <= b for a, b in zip(div, exps))),
                               key=lambda w: w.monomial.sort_key())
            degree = sum(e * g.degree for e, g in zip(exps, gens))
            goods.append(GoodObject(Monomial(_pack(exps), (), degree), tuple(witnesses)))
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


def multidegree(model: Model, m: Monomial) -> tuple[int, ...]:
    """Even exponents of m plus the exponents of the targets of its odd
    factors, as a dense tuple over the even generators.

    With v_i in multidegree e_i and each w in the multidegree of its target,
    d preserves multidegree, so the model is a direct sum of finite blocks.
    """
    out = [0] * len(model.generators)
    for i, e in m.even:
        out[i] += e
    for oi in m.odd:
        for i, e in model.odd_generators[oi].target.even:
            out[i] += e
    return tuple(out)


