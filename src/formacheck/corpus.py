"""Corpus generators: spheres, truncated polynomial rings, products, wedges.

Each generator builds an index table and hands it to `algebra_file`, the one
writer of the algebra-file JSON, which puts the result through the regular
parser: every returned object passes validation, and a table that fails it
(`truncated_poly(1, 3)`: x*x != 0 with |x| odd) raises InputError instead.
`truncated_poly` and `product` count the products of the half table they
would build and raise InputError, before building it, when there are more
than `formality.MAX_PRODUCTS`.
"""

from __future__ import annotations

import math

from .formality import MAX_PRODUCTS
from .formats import InputError, _read_json, format_rational, parse_algebra_json


def _within_budget(name: str, products: int):
    """Raise InputError when a half table of `products` entries is over budget."""
    if products > MAX_PRODUCTS:
        raise InputError(f"{name} would have {products} products, more than {MAX_PRODUCTS}")


def algebra_file(name: str, labels, degrees, unit: int, table: dict, scale: int = 1) -> dict:
    """The algebra file of the basis `labels` in `degrees` with the unit at
    index `unit` and the half table `table`, {(i, j): {k: c}} with i <= j,
    each product times `scale`, zero products and the unit rows left out;
    raises InputError unless the parser accepts it."""
    obj = {
        "name": name,
        "basis": [{"label": lab, "degree": deg} for lab, deg in zip(labels, degrees)],
        "unit": labels[unit],
        "products": [{"left": labels[i], "right": labels[j],
                      "value": [{"label": labels[k], "coeff": format_rational(c, scale)}
                                for k, c in sorted(value.items())]}
                     for (i, j), value in sorted(table.items())],
    }
    parse_algebra_json(obj, name or "algebra")
    return obj


def even_sphere(n: int) -> dict:
    """Cohomology of an even sphere: one class x in degree n, x*x = 0."""
    if not isinstance(n, int) or n <= 0 or n % 2:
        raise InputError(f"even_sphere needs a positive even degree, got {n!r}")
    return algebra_file(f"even_sphere({n})", ["1", "x"], [0, n], 0, {})


def truncated_poly(degree: int, height: int) -> dict:
    """Q[x]/(x^height) with |x| = degree: basis 1, x, ..., x^(height-1)."""
    if not isinstance(degree, int) or degree <= 0:
        raise InputError(f"truncated_poly needs a positive degree, got {degree!r}")
    if not isinstance(height, int) or height < 2:
        raise InputError(f"truncated_poly needs height >= 2, got {height!r}")
    name = f"truncated_poly({degree},{height})"
    _within_budget(name, (height - 1) ** 2 // 4)  # the pairs 1 <= i <= j, i + j < height
    labels = ["1"] + ["x" if k == 1 else f"x^{k}" for k in range(1, height)]
    table = {(i, j): {i + j: 1} for i in range(1, height) for j in range(i, height - i)}
    return algebra_file(name, labels, [k * degree for k in range(height)], 0, table)


def product(a_obj: dict, b_obj: dict) -> dict:
    """Tensor product of two algebra files (Koszul sign included); the basis
    pair (i, j) sits at position i * b.dim + j.  It reads each factor's
    `both_orders()` and keeps the pairs p <= q, the product's half table."""
    a = parse_algebra_json(a_obj, "product left factor")
    b = parse_algebra_json(b_obj, "product right factor")
    name = f"product({a_obj.get('name') or 'algebra'},{b_obj.get('name') or 'algebra'})"
    a_mult, b_mult = a.both_orders(), b.both_orders()
    # of the |a_mult|·|b_mult| products of the views (both orders, unit rows too), the half
    # table keeps each diagonal one and one of each mirror pair, less the a.dim·b.dim unit rows
    diagonal = sum(i == k for i, k in a.mult) * sum(j == l for j, l in b.mult)
    _within_budget(name, (len(a_mult) * len(b_mult) + diagonal) // 2 - a.dim * b.dim)
    unit = a.unit_index * b.dim + b.unit_index
    table = {}
    for (i, k), left in a_mult.items():
        for (j, l), right in b_mult.items():
            p, q = i * b.dim + j, k * b.dim + l
            if p <= q and unit not in (p, q):  # unit rows are implicit
                sign = -1 if b.degrees[j] % 2 and a.degrees[k] % 2 else 1
                table[(p, q)] = {m * b.dim + n: sign * cm * cn
                                 for m, cm in left for n, cn in right}
    return algebra_file(
        name, [f"{x}*{y}" for x in a.labels for y in b.labels],
        [x + y for x in a.degrees for y in b.degrees], unit, table, a.scale * b.scale)


def wedge(a_obj: dict, b_obj: dict) -> dict:
    """Wedge: direct sum of the positive parts, unit identified, zero cross
    products; each summand's half table is copied as it is, unit rows aside.
    A label already taken gets primes until it is free."""
    labels, degrees, taken, table = ["1"], [0], {"1"}, {}
    summands = [parse_algebra_json(obj, f"wedge {side} summand")
                for side, obj in (("left", a_obj), ("right", b_obj))]
    scale = math.lcm(*(h.scale for h in summands))  # both tables brought to one scale
    for h in summands:
        relabel = {}
        for i, (lab, deg) in enumerate(zip(h.labels, h.degrees)):
            if deg > 0:
                while lab in taken:
                    lab += "'"
                taken.add(lab)
                relabel[i] = len(labels)
                labels.append(lab)
                degrees.append(deg)
        # positive-degree products stay in positive degrees, inside `relabel`, in order
        table.update(((relabel[i], relabel[j]),
                      {relabel[k]: c * (scale // h.scale) for k, c in entry})
                     for (i, j), entry in h.mult.items() if i in relabel and j in relabel)
    return algebra_file(
        f"wedge({a_obj.get('name') or 'algebra'},{b_obj.get('name') or 'algebra'})",
        labels, degrees, 0, table, scale)


def generate(kind: str, params: list) -> dict:
    """CLI dispatch for `corpus <kind> [params]`."""
    def as_int(value, name):
        try:
            return int(value)
        except (TypeError, ValueError):
            raise InputError(f"corpus {kind}: {name} must be an integer, got {value!r}")

    if kind == "even_sphere":
        if len(params) != 1:
            raise InputError("corpus even_sphere needs exactly one parameter: the degree")
        return even_sphere(as_int(params[0], "degree"))
    if kind == "truncated_poly":
        if len(params) != 2:
            raise InputError("corpus truncated_poly needs two parameters: degree and height")
        return truncated_poly(as_int(params[0], "degree"), as_int(params[1], "height"))
    if kind in ("product", "wedge"):
        if len(params) != 2:
            raise InputError(f"corpus {kind} needs two algebra file paths")
        a_obj, b_obj = (_read_json(path)[1] for path in params)
        return product(a_obj, b_obj) if kind == "product" else wedge(a_obj, b_obj)
    raise InputError(f"unknown corpus kind {kind!r}; "
                     "expected even_sphere, truncated_poly, product, or wedge")
