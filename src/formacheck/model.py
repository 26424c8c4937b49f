"""Free graded-commutative algebra machinery and the one-stage model.

Even generators v (polynomial part) come from the chosen generator set of
the input ring; odd generators w (exterior part) are added one per good
object m, with dw = m.  Monomials are kept in a canonical signed form:
even exponents sorted by generator index, odd factors strictly increasing,
sign +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .algebra import GeneratorSet, GradedAlgebra, evaluate_phi
from .linalg import MatQ, Vec, vec_is_zero

EvenPart = tuple[tuple[int, int], ...]  # (generator index, exponent > 0), ascending


@dataclass(frozen=True)
class Monomial:
    even: EvenPart
    odd: tuple[int, ...]  # strictly increasing odd-generator indices
    degree: int

    def __post_init__(self):
        if any(e <= 0 for _, e in self.even):
            raise ValueError("even exponents must be positive")
        if list(self.even) != sorted(self.even, key=lambda t: t[0]):
            raise ValueError("even factors must be sorted by generator index")
        if list(self.odd) != sorted(set(self.odd)):
            raise ValueError("odd factors must be strictly increasing")

    @property
    def length(self) -> int:
        return self.even_length + len(self.odd)

    @property
    def even_length(self) -> int:
        return sum(e for _, e in self.even)

    def even_indices(self) -> list[int]:
        """Generator indices with repetition."""
        out = []
        for i, e in self.even:
            out.extend([i] * e)
        return out

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


@dataclass(frozen=True)
class EEntry:
    monomial: Monomial
    class_vector: Vec
    degree: int


@dataclass(frozen=True)
class EFamily:
    """Nonzero products of >= 2 generators, indexed by distinct monomials."""

    entries: tuple[EEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def is_empty(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class DivisorWitness:
    monomial: Monomial
    class_vector: Vec  # nonzero by definition of a good object


@dataclass(frozen=True)
class GoodObject:
    monomial: Monomial  # pure even, length >= 2, zero image
    divisor_witnesses: tuple[DivisorWitness, ...]


@dataclass(frozen=True)
class OddGenerator:
    label: str
    degree: int  # target degree - 1, always odd
    target: Monomial  # pure even monomial, the value of d


@dataclass(frozen=True)
class Model:
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

    def even_labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)

    def odd_labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.odd_generators)


def multiply(model: Model, a: Monomial, b: Monomial):
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


@lru_cache(maxsize=None)
def _monomials_cached(model: Model, n: int) -> tuple[Monomial, ...]:
    even_degs = model.even_degrees
    odd_degs = model.odd_degrees
    found: list[Monomial] = []

    def fill_even(i: int, remaining: int, acc: list[int], odd: tuple[int, ...]):
        if i == len(even_degs):
            if remaining == 0:
                found.append(Monomial(_pack(acc), odd, n))
            return
        # generator degrees are >= 2, so the exponent range is finite
        for e in range(remaining // even_degs[i] + 1):
            fill_even(i + 1, remaining - e * even_degs[i], acc + [e], odd)

    def pick_odd(i: int, remaining: int, acc: tuple[int, ...]):
        if remaining < 0:
            return
        fill_even(0, remaining, [], acc)
        for j in range(i, len(odd_degs)):
            pick_odd(j + 1, remaining - odd_degs[j], acc + (j,))

    pick_odd(0, n, ())
    return tuple(sorted(set(found), key=Monomial.sort_key))


def monomials_of_degree(model: Model, n: int) -> list[Monomial]:
    """All canonical monomials of the given degree, duplicate free, sorted."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials_cached(model, n))


class _PhiTable:
    """Memoized phi values keyed by full exponent tuples over the generators."""

    def __init__(self, h: GradedAlgebra, gens: GeneratorSet):
        self.h = h
        self.gens = gens
        unit = h.unit()
        self.cache: dict[tuple[int, ...], Vec] = {(0,) * len(gens): unit}

    def value(self, exps: tuple[int, ...]) -> Vec:
        hit = self.cache.get(exps)
        if hit is not None:
            return hit
        i = next(k for k, e in enumerate(exps) if e)
        sub = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        out = self.h.mul(self.gens[i].class_vector, self.value(sub))
        self.cache[exps] = out
        return out


def _require_even(gens: GeneratorSet):
    if not gens.all_even():
        raise ValueError("construction requires all generators in even degrees")


def _exponent_tuples(degrees: tuple[int, ...], max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with 2 <= total factors and weighted degree <= max_degree."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, budget: int, acc: list[int]):
        if i == len(degrees):
            if sum(acc) >= 2:
                out.append(tuple(acc))
            return
        for e in range(budget // degrees[i] + 1):
            rec(i + 1, budget - e * degrees[i], acc + [e])

    if degrees:
        rec(0, max_degree, [])
    return sorted(out, key=lambda t: (sum(e * d for e, d in zip(t, degrees)), t))


def compute_E(h: GradedAlgebra, gens: GeneratorSet) -> EFamily:
    """All nonzero products of >= 2 generators, up to the top degree of h.

    Products of degree beyond top_degree(h) are zero by grading, so the
    enumeration bound loses nothing.
    """
    _require_even(gens)
    phi = _PhiTable(h, gens)
    entries = []
    for exps in _exponent_tuples(gens.degrees, h.top_degree):
        value = phi.value(exps)
        if not vec_is_zero(value):
            degree = sum(e * d for e, d in zip(exps, gens.degrees))
            entries.append(EEntry(Monomial(_pack(exps), (), degree), value, degree))
    return EFamily(tuple(entries))


def _proper_divisors(exps: tuple[int, ...]):
    """Proper sub-multisets with at least 2 factors, in lexicographic order."""
    def rec(i: int, acc: list[int]):
        if i == len(exps):
            t = tuple(acc)
            if t != exps and sum(t) >= 2:
                yield t
            return
        for e in range(exps[i] + 1):
            yield from rec(i + 1, acc + [e])

    yield from rec(0, [])


def good_objects(h: GradedAlgebra, gens: GeneratorSet) -> list[GoodObject]:
    """Monomials with zero image whose proper divisors (>= 2 factors) all
    have nonzero image.

    The enumeration stops at degree top_degree(h) + max generator degree:
    any longer candidate has a proper divisor of degree above top_degree(h),
    whose image is already zero, so nothing good lives beyond the bound.
    """
    _require_even(gens)
    if len(gens) == 0:
        return []
    phi = _PhiTable(h, gens)
    bound = h.top_degree + max(gens.degrees)
    goods = []
    for exps in _exponent_tuples(gens.degrees, bound):
        if not vec_is_zero(phi.value(exps)):
            continue
        witnesses = []
        good = True
        for div in _proper_divisors(exps):
            value = phi.value(div)
            if vec_is_zero(value):
                good = False
                break
            degree = sum(e * d for e, d in zip(div, gens.degrees))
            witnesses.append(DivisorWitness(Monomial(_pack(div), (), degree), value))
        if not good:
            continue
        degree = sum(e * d for e, d in zip(exps, gens.degrees))
        witnesses.sort(key=lambda w: w.monomial.sort_key())
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


@lru_cache(maxsize=None)
def differential_matrix(model: Model, n: int) -> MatQ:
    """Dense matrix of d from the degree-n monomial basis to the degree-(n+1)
    one, assembled from `differentiate`.

    The reference form of d: the cohomology computation works block by
    block instead, and the tests compare the two.
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
    """
    degrees = {m.degree for m in element}
    if len(degrees) > 1:
        raise ValueError("phi_tilde needs a homogeneous element")
    out = [Fraction(0)] * h.dim
    for m, coeff in sorted(element.items(), key=lambda kv: kv[0].sort_key()):
        if coeff == 0 or m.odd:
            continue
        if not m.even:
            image = h.unit()
        else:
            image = evaluate_phi(h, model.generators, m.even_indices())
        for k, c in enumerate(image):
            if c != 0:
                out[k] += coeff * c
    return tuple(out)
