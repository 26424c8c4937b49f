"""Corpus generators: spheres, truncated polynomial rings, products, wedges.

Every generator returns an algebra-file JSON object that passes validation;
the product and wedge constructions revalidate their output through the
regular parser before returning it.
"""

from __future__ import annotations

from .algebra import GradedAlgebra
from .formats import InputError, _read_json, format_rational, parse_algebra_json


def even_sphere(n: int) -> dict:
    """Cohomology of an even sphere: one class x in degree n, x*x = 0."""
    if not isinstance(n, int) or n <= 0 or n % 2:
        raise InputError(f"even_sphere needs a positive even degree, got {n!r}")
    return {
        "name": f"even_sphere({n})",
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": n}],
        "unit": "1",
        "products": [],
    }


def truncated_poly(degree: int, height: int) -> dict:
    """Q[x]/(x^height) with |x| = degree: basis 1, x, ..., x^(height-1)."""
    if not isinstance(degree, int) or degree <= 0:
        raise InputError(f"truncated_poly needs a positive degree, got {degree!r}")
    if not isinstance(height, int) or height < 2:
        raise InputError(f"truncated_poly needs height >= 2, got {height!r}")
    labels = ["1"] + ["x" if k == 1 else f"x^{k}" for k in range(1, height)]
    basis = [{"label": labels[k], "degree": k * degree} for k in range(height)]
    products = []
    for i in range(1, height):
        for j in range(i, height):
            if i + j < height:
                products.append({
                    "left": labels[i], "right": labels[j],
                    "value": [{"label": labels[i + j], "coeff": "1"}],
                })
    return {"name": f"truncated_poly({degree},{height})",
            "basis": basis, "unit": "1", "products": products}


def _product_table(a: GradedAlgebra, b: GradedAlgebra):
    """Basis pairs and the signed tensor-product multiplication."""
    pairs = [(i, j) for i in range(a.dim) for j in range(b.dim)]
    pos = {p: k for k, p in enumerate(pairs)}

    def mul(p, q):
        (i, j), (k, l) = p, q
        left = a.mult.get((i, k))
        right = b.mult.get((j, l))
        out = {}
        if left is None or right is None:
            return out
        sign = -1 if (b.degrees[j] % 2 and a.degrees[k] % 2) else 1
        for m, cm in left:
            for n, cn in right:
                out[pos[(m, n)]] = out.get(pos[(m, n)], 0) + sign * cm * cn
        return {k2: v for k2, v in out.items() if v != 0}

    return pairs, mul


def product(a_obj: dict, b_obj: dict) -> dict:
    """Tensor product of two algebra files (Koszul sign included)."""
    a = parse_algebra_json(a_obj, "product left factor")
    b = parse_algebra_json(b_obj, "product right factor")
    pairs, mul = _product_table(a, b)
    labels = [f"{a.labels[i]}*{b.labels[j]}" for i, j in pairs]
    degrees = [a.degrees[i] + b.degrees[j] for i, j in pairs]
    unit = labels[pairs.index((a.unit_index, b.unit_index))]
    products = []
    for p in range(len(pairs)):
        for q in range(p, len(pairs)):
            if pairs[p][0] == a.unit_index and pairs[p][1] == b.unit_index:
                continue  # unit rows are implicit
            if pairs[q][0] == a.unit_index and pairs[q][1] == b.unit_index:
                continue
            value = mul(pairs[p], pairs[q])
            if value:
                products.append({
                    "left": labels[p], "right": labels[q],
                    "value": [{"label": labels[k], "coeff": format_rational(c)}
                              for k, c in sorted(value.items())],
                })
    name_a = a_obj.get("name") or "algebra"
    name_b = b_obj.get("name") or "algebra"
    out = {
        "name": f"product({name_a},{name_b})",
        "basis": [{"label": lab, "degree": deg} for lab, deg in zip(labels, degrees)],
        "unit": unit,
        "products": products,
    }
    parse_algebra_json(out, "product result")  # self check
    return out


def wedge(a_obj: dict, b_obj: dict) -> dict:
    """Wedge: direct sum of the positive parts, unit identified, zero cross
    products."""
    a = parse_algebra_json(a_obj, "wedge left summand")
    b = parse_algebra_json(b_obj, "wedge right summand")

    labels = ["1"]
    degrees = [0]
    taken = {"1"}

    def fresh(lab):
        while lab in taken:
            lab += "'"
        taken.add(lab)
        return lab

    a_map = {}
    for i in range(a.dim):
        if a.degrees[i] > 0:
            a_map[i] = len(labels)
            labels.append(fresh(a.labels[i]))
            degrees.append(a.degrees[i])
    b_map = {}
    for j in range(b.dim):
        if b.degrees[j] > 0:
            b_map[j] = len(labels)
            labels.append(fresh(b.labels[j]))
            degrees.append(b.degrees[j])

    products = []

    def emit(side, old_map):
        for (i, j), entry in sorted(side.mult.items()):
            if i not in old_map or j not in old_map or old_map[i] > old_map[j]:
                continue
            # positive-degree products stay in positive degrees, so the
            # whole support lies inside old_map
            value = [{"label": labels[old_map[k]], "coeff": format_rational(c)}
                     for k, c in entry]
            products.append({"left": labels[old_map[i]],
                             "right": labels[old_map[j]], "value": value})

    emit(a, a_map)
    emit(b, b_map)
    name_a = a_obj.get("name") or "algebra"
    name_b = b_obj.get("name") or "algebra"
    out = {
        "name": f"wedge({name_a},{name_b})",
        "basis": [{"label": lab, "degree": deg} for lab, deg in zip(labels, degrees)],
        "unit": "1",
        "products": products,
    }
    parse_algebra_json(out, "wedge result")  # self check
    return out


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
