"""Free graded-commutative algebra machinery and the one-stage model.

Even generators v (polynomial part) come from the chosen generator set of
the input ring; odd generators w (exterior part) are added one per good
object m, with dw = m.  Monomials are kept in a canonical signed form:
even exponents sorted by generator index, odd factors strictly increasing,
sign +1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional

from .algebra import GeneratorSet, GradedAlgebra, _PhiTable
from .linalg import MatQ, Vec, vec_is_zero

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
        if list(even) != sorted(even, key=lambda t: t[0]):
            raise ValueError("even factors must be sorted by generator index")
        if list(odd) != sorted(set(odd)):
            raise ValueError("odd factors must be strictly increasing")
        return super().__new__(cls, even, odd, degree)

    @property
    def length(self) -> int:
        return self.even_length + len(self.odd)

    @property
    def even_length(self) -> int:
        return sum(e for _, e in self.even)

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


def _merge_even(a: EvenPart, b: EvenPart) -> EvenPart:
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


class EEntry(NamedTuple):
    monomial: Monomial
    class_vector: Vec
    degree: int


class EFamily(NamedTuple):
    """Nonzero products of >= 2 generators, indexed by distinct monomials."""

    entries: tuple[EEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __reduce__(self):
        # pickle and copy by field; iteration yields the entries instead
        return EFamily, (self.entries,)

    def is_empty(self) -> bool:
        return not self.entries


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

    generators: GeneratorSet
    odd_generators: tuple[OddGenerator, ...]

    @property
    def even_degrees(self) -> tuple[int, ...]:
        return self.generators.degrees

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


# cohomology_basis asks for degrees n and n - 1 only, so two entries suffice
@lru_cache(maxsize=2)
def _monomials_cached(even_degs: tuple[int, ...], odd_degs: tuple[int, ...],
                      n: int) -> tuple[Monomial, ...]:
    # keyed on the degrees alone: hashing a whole Model hashes every class vector
    evens: list = [None] * (n + 1)  # even parts by degree, shared by all odd parts
    bound = tuple(n // d for d in even_degs)
    found: list[Monomial] = []

    def pick_odd(i: int, remaining: int, acc: tuple[int, ...]):
        if remaining < 0:
            return
        if evens[remaining] is None:
            evens[remaining] = [_pack(exps) for exps in _exponents(even_degs, remaining, bound)]
        found.extend(Monomial(even, acc, n) for even in evens[remaining])
        for j in range(i, len(odd_degs)):
            pick_odd(j + 1, remaining - odd_degs[j], acc + (j,))

    pick_odd(0, n, ())
    return tuple(sorted(set(found), key=Monomial.sort_key))


def monomials_of_degree(model: Model, n: int) -> list[Monomial]:
    """All canonical monomials of the given degree, duplicate free, sorted.

    Used by the degree-by-degree reference (`cohomology_basis`,
    `differential_matrix`); `verify_quasi_iso` enumerates no monomials.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials_cached(model.even_degrees, model.odd_degrees, n))


def _require_even(gens: GeneratorSet):
    if not gens.all_even():
        raise ValueError("construction requires all generators in even degrees")


def compute_E(h: GradedAlgebra, gens: GeneratorSet) -> EFamily:
    """All nonzero products of >= 2 generators, up to the top degree of h,
    by degree and then lexicographically in the exponents.

    Products of degree beyond top_degree(h) are zero by grading, so the
    enumeration bound loses nothing.
    """
    _require_even(gens)
    phi = _PhiTable(h, gens)
    bound = tuple(h.top_degree // d for d in gens.degrees)
    entries = []
    for degree in range(h.top_degree + 1):
        for exps in _exponents(gens.degrees, degree, bound):
            if sum(exps) < 2:
                continue
            value = phi.value(exps)
            if not vec_is_zero(value):
                entries.append(EEntry(Monomial(_pack(exps), (), degree), value, degree))
    return EFamily(tuple(entries))


def good_objects(h: GradedAlgebra, gens: GeneratorSet,
                 e: Optional[EFamily] = None) -> list[GoodObject]:
    """Monomials with zero image whose proper divisors (>= 2 factors) all
    have nonzero image, read off the family E.

    `e` is `compute_E(h, gens)`, passed in by a caller that already has it
    (as `certify` does) and computed here when omitted.  The nonzero
    monomials N = E plus the single generators are closed under division,
    so the good objects are the minimal monomials outside N (the minimal
    generators of the complementary monomial ideal): one factor more than a
    member of N, not in N, and in N whenever any one factor is removed.
    The divisor witnesses of a good object are the entries of E that divide
    it.
    """
    n = len(gens)
    entries = {}  # dense exponent tuple -> entry of E
    for entry in compute_E(h, gens) if e is None else e:
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
            degree = sum(e * d for e, d in zip(exps, gens.degrees))
            goods.append(GoodObject(Monomial(_pack(exps), (), degree), tuple(witnesses)))
    goods.sort(key=lambda g: g.monomial.sort_key())
    return goods


def build_model(h: GradedAlgebra, gens: GeneratorSet,
                goods: Optional[list[GoodObject]] = None) -> Model:
    """One-stage model: d(v) = 0 and one w per good object with d(w) = m."""
    _require_even(gens)
    if goods is None:
        goods = good_objects(h, gens)
    odd = tuple(
        OddGenerator(label=f"w{k + 1}", degree=g.monomial.degree - 1, target=g.monomial)
        for k, g in enumerate(goods))
    assert all(w.degree % 2 == 1 for w in odd)
    return Model(generators=gens, odd_generators=odd)


def differentiate(model: Model, m: Monomial) -> list[tuple[int, Monomial]]:
    """d of one canonical monomial, as (sign, canonical monomial) terms.

    For (even part) * w_{o_1} ... w_{o_k} the even part is closed and
    contributes no sign, and moving d past the first t odd factors costs
    (-1)^t, so

        d(m) = sum_t (-1)^t (even part * target(o_t)) * (odd factors minus o_t).

    The replaced target is pure even and commutes to the front freely.  The
    terms are distinct, and each has the multidegree of m.
    """
    return [(-1 if t % 2 else 1,
             Monomial(even=_merge_even(m.even, model.odd_generators[oi].target.even),
                      odd=m.odd[:t] + m.odd[t + 1:],
                      degree=m.degree + 1))
            for t, oi in enumerate(m.odd)]


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


def blocks_of_degree(model: Model, n: int) -> dict[tuple[int, ...], list[int]]:
    """Positions in monomials_of_degree(model, n), grouped by multidegree.

    Blocks come in ascending multidegree and positions ascend within each.
    """
    out: dict[tuple[int, ...], list[int]] = {}
    if n < 0:
        return out
    for j, m in enumerate(monomials_of_degree(model, n)):
        out.setdefault(multidegree(model, m), []).append(j)
    return dict(sorted(out.items()))


@lru_cache(maxsize=2)
def differential_matrix(model: Model, n: int) -> MatQ:
    """Dense matrix of d from the degree-n monomial basis to the degree-(n+1)
    one, assembled from `differentiate`.

    Reference only: `verify_quasi_iso` works on the complexes Δ_α instead.
    The tests check d^2 = 0 and phi~ o d = 0 on this matrix.
    """
    rows_basis = monomials_of_degree(model, n + 1)
    cols_basis = monomials_of_degree(model, n)
    row_index = {m: i for i, m in enumerate(rows_basis)}
    entries = [[Fraction(0)] * len(cols_basis) for _ in rows_basis]
    for j, m in enumerate(cols_basis):
        for sign, image in differentiate(model, m):
            entries[row_index[image]][j] += sign
    return MatQ.from_rows(entries, cols=len(cols_basis))


def phi_tilde(model: Model, h: GradedAlgebra,
              element: Mapping[Monomial, Fraction]) -> Vec:
    """Algebra morphism into (H, 0): v maps to its class, every w to zero.

    `element` is a linear combination of canonical monomials and must be
    homogeneous.  Monomials containing any odd factor die; pure even ones
    evaluate through the generator classes, and the empty monomial is the
    unit.

    Reference only, for the tests and `induced_map`; it builds a new
    product table on every call, where `verify_quasi_iso` keeps one per run.
    """
    degrees = {m.degree for m in element}
    if len(degrees) > 1:
        raise ValueError("phi_tilde needs a homogeneous element")
    phi = _PhiTable(h, model.generators)
    out = [Fraction(0)] * h.dim
    for m, coeff in sorted(element.items(), key=lambda kv: kv[0].sort_key()):
        if coeff == 0 or m.odd:
            continue
        # a pure even monomial's multidegree is its dense exponent tuple
        for k, c in enumerate(phi.value(multidegree(model, m))):
            if c != 0:
                out[k] += coeff * c
    return tuple(out)
