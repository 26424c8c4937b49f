"""Certificates are fixed byte for byte across commits.

Each digest is the sha256 of `json.dumps(certificate_json(cert, raw, digest),
sort_keys=True)` for one input, where `raw` is the input object and `digest`
the sha256 of its sorted JSON.  `GOLDEN` is taken at the default cap, and
`GOLDEN_AT_CAP` at the caps the benchmark's workloads run, and the 8-fold
S^2 wedge also at caps 15 and 17, where its boundary ranks are large.  The
rings of `GROEBNER_RINGS` are monomial in no basis.  A change that
moves any field of any certificate (a value, an order, a key) moves its
digest.
A file's integral coefficients are read as `int`s; a table built with
`Fraction(n)` in place of every integral `n` gives the same stages and the
same certificate, byte for byte.
The rebased inputs (`change_basis` with a seeded `random.Random`) have E
classes with several terms and coefficients other than 1, so their digests
pin how a class is written; a change in the rebasing moves them too.  Their
coefficients are all integers; `HALF_SQUARE`, CP^2 with x*x = 1/2 x^2, pins
how a class with a coefficient `p/q` is written.
Regenerate a digest only for a change that means to alter the certificate.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

import formacheck as fc
from formacheck.corpus import truncated_poly
from formacheck.formats import certificate_json, dump_json, parse_rational

from util import (GROEBNER_RINGS, algebra, change_basis, corpus_objects, cp2_power_3,
                  cp2_power_4, dependent_family, dependent_pair, s2_power_4, serialize_algebra,
                  sphere_wedge_8)

GOLDEN = {
    "even_sphere(2)": "032c5ae0e0c5dd831f118772135c6675ec3acceb793e4737018afdf5bd4243b1",
    "even_sphere(4)": "79ee6d702697809e70c93de2dd1ed13bfb84870d982c10e7f84da938cdff3931",
    "even_sphere(6)": "fb0705ed5f877c783fec665dc56a5af99964380e84ae79506b631371a44a404d",
    "truncated_poly(2,3)": "06c7fab0f9b575a5d706b713ad6c545663f17ce1362d8a22aa800b87ad9ee791",
    "truncated_poly(2,4)": "9d601143cc26632247b4fe5f94cf7d91ac1f699bbedb8b544871d3f5736b9574",
    "truncated_poly(2,5)": "3c053043360236f061e0e363ed3a54c43ca096fb34ff037361e358b27125c6f3",
    "truncated_poly(4,3)": "5dea74a55d54fd21608690808812b0d4534e0a1a381c68988640bd981973582e",
    "wedge(even_sphere(2),even_sphere(2))":
        "cd09a69b5b3e220e76185d34b4a09e63f039367b196e11f77648e912a037acfe",
    "wedge(even_sphere(2),even_sphere(4))":
        "c8069326416b3b97f29d207a4f81a432fddfdd4e4dd7564f326c0bf14b28ca48",
    "wedge(truncated_poly(2,3),even_sphere(2))":
        "02d54980440dd1b96275c9fe6d06b63e517da05a6875229f416312370f033337",
    "product(even_sphere(2),even_sphere(2))":
        "f35e39d546700b24a4b22f8a7323a6a4afaab3d6eef3acc2325fb5aaa0aa861e",
    "product(even_sphere(2),even_sphere(4))":
        "a9b48ab8ce79a2a115df1f57272044f05ac5438f2d80abe22380e4c663533b63",
    "product(truncated_poly(2,3),even_sphere(2))":
        "5c93e8a8d21335b746f16bf541fd6f5d54cb102553f50d8d114e6de30108a919",
    "product(product(even_sphere(2),even_sphere(2)),even_sphere(2))":
        "5872525965d9f8acb7f4ff30e41a6e30a47a3e9dda76e0c6ebdd1c934d9e3a68",
    "wedge(wedge(even_sphere(2),even_sphere(2)),even_sphere(2))":
        "f4771e775f63c086fd61b3795a4c3e88aadf7ed574422f7f94ebb281b06d68d9",
    "dependent_family": "5af5c217cc73f32fa13fe775012ef33f3a9602c53f987627c289c56d269dc8d8",
    "sphere_wedge_8": "9e02002f88111c80dcf64e7008464ddc7193170f5bcfa5a0a9992b6050d2726b",
    "rebased(cp2_power_3,1)":
        "057496a4980ede00702a42b403261ae3e4863e3975ac9a4b340986ac19291c68",
    "rebased(cp2_power_4,1)":
        "2aa0c3d1cd9aab64fc5cedbc244dec5e8b2df09e00819a4b516b405f9f15f6c2",
    "rebased(dependent_family,1)":
        "b0b6e6fabae6bbedeef6583288ff39ab21854b099468ee13954ba42916c258ab",
    "rebased(dependent_pair,1)":
        "4783090e061553e59f7fc711cf607eeb81ac2008bcb386dcf56875ac0066ff95",
    "half_square(truncated_poly(2,3))":
        "03a393daaf35983da6d814fa711e30e1c5018592d10404301c67ffb7fdb04095",
    "grassmannian_2_4": "3628db8436a393a5b6d41aa7583472e51df6f4603dc2c117df40b61598458698",
    "flag_3": "63cc1b3cdf91a4b74015c54400141a41f2c0f7d674897f0fcd173d183373d9af",
    "quadric_intersection": "218e47f24b6af9c66bd2c8c3fba8ace10387fec714f70598727232fe8a6a7be9",
    "rebased(grassmannian_2_4,1)":
        "d012a9180757fadfdf14c1ae2b3eac94948fdb23a46eae645da4a50a7325bfa6",
    "rebased(flag_3,1)":
        "bb96101eede79cc36ef0c3ca73140bf180aa79884aee196a9521f0c12c879bc6",
    "rebased(quadric_intersection,1)":
        "81cb60091f5935329a8067a26c51b635225d5ab386d11a6bdaa30be04cf9c95a",
}
HALF_SQUARE = "half_square(truncated_poly(2,3))"

# name -> (builder, seed) of the rebased inputs
REBASED = {
    "rebased(cp2_power_3,1)": (cp2_power_3, 1),
    "rebased(cp2_power_4,1)": (cp2_power_4, 1),
    "rebased(dependent_family,1)": (dependent_family, 1),
    "rebased(dependent_pair,1)": (dependent_pair, 1),
    **{f"rebased({name},1)": (build, 1) for name, build in GROEBNER_RINGS.items()},
}

# (input, cap) -> digest
GOLDEN_AT_CAP = {
    ("s2_power_4", 13): "45d2c1472fb07c5fa611365060bc395bb635a1973fad640a18e9ae41f9209a0d",
    ("cp2_power_3", 12): "62658c94bb8a547211c237a6876bf994c529f91eaaf9622e1496fe895b3ca435",
    ("sphere_wedge_8", 9): "46087b2c11c775fb1ca75d99fb2db93ba6a29b62a7e9cd19626c79403b356f7a",
    ("sphere_wedge_8", 15): "288724f1f6c89e487b546f5ce7df98732d1590629ac82d8e001b157a040c2db1",
    ("sphere_wedge_8", 17): "9f7ea22d78b034cd18b2a26fbe02a9f38370963d4b88a327782ec005b3dc861e",
}


@functools.cache
def inputs() -> dict:
    """Each golden input's algebra-file object, by name, built once."""
    out = {obj["name"]: obj for obj in corpus_objects()}
    out["dependent_family"] = serialize_algebra(dependent_family(), name="dependent_family")
    out["sphere_wedge_8"] = serialize_algebra(sphere_wedge_8(), name="sphere_wedge_8")
    out["s2_power_4"] = serialize_algebra(s2_power_4(), name="s2_power_4")
    out["cp2_power_3"] = serialize_algebra(cp2_power_3(), name="cp2_power_3")
    for name, build in GROEBNER_RINGS.items():
        out[name] = serialize_algebra(build(), name=name)
    for name, (build, seed) in REBASED.items():
        out[name] = serialize_algebra(change_basis(build(), random.Random(seed)), name=name)
    out[HALF_SQUARE] = truncated_poly(2, 3)
    out[HALF_SQUARE]["name"] = HALF_SQUARE
    out[HALF_SQUARE]["products"][0]["value"][0]["coeff"] = "1/2"
    return out


def certificate_digest(raw: dict, cap=None) -> str:
    h = algebra(raw)
    cert = fc.certify(h, fc.validate(h), cap)
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
    text = json.dumps(certificate_json(cert, raw, digest), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_input_has_a_digest():
    assert sorted(inputs()) == sorted(set(GOLDEN) | {name for name, _ in GOLDEN_AT_CAP})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_digest(name):
    assert certificate_digest(inputs()[name]) == GOLDEN[name]


def test_half_square_writes_its_fraction():
    # x*x = 1/2 x^2: in the echoed input, in E (the class of v1^2) and in the
    # witness of the good object v1^3
    raw = inputs()[HALF_SQUARE]
    h = algebra(raw)
    cert = fc.certify(h, fc.validate(h))
    assert (cert.verdict.classification, cert.exit_code) == (fc.FORMAL_BY_THEOREM, 0)
    assert dump_json(certificate_json(cert, raw, "0" * 64)).count('"1/2"') == 3


@pytest.mark.parametrize("name,cap", sorted(GOLDEN_AT_CAP))
def test_certificate_digest_at_cap(name, cap):
    assert certificate_digest(inputs()[name], cap) == GOLDEN_AT_CAP[(name, cap)]


def table(raw: dict, coefficient) -> fc.GradedAlgebra:
    """The algebra of the file `raw`, each coefficient read by `coefficient`."""
    products = {(item["left"], item["right"]): {term["label"]: coefficient(term["coeff"])
                                                for term in item["value"]}
                for item in raw["products"]}
    return fc.GradedAlgebra.from_products([(b["label"], b["degree"]) for b in raw["basis"]],
                                          raw["unit"], products)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_int_and_fraction_coefficients_give_one_certificate(name):
    raw = inputs()[name]
    h, h_fraction = table(raw, parse_rational), table(raw, Fraction)
    assert all(type(c) is int or c.denominator > 1 for row in h.mult.values() for _, c in row)
    assert all(type(c) is Fraction for (i, j), row in h_fraction.mult.items()
               if h.unit_index not in (i, j) for _, c in row)
    assert h.mult == h_fraction.mult
    assert h.generators == h_fraction.generators
    assert fc.compute_E(h, h.generators) == fc.compute_E(h_fraction, h_fraction.generators)
    certificates = [dump_json(certificate_json(fc.certify(a, fc.validate(a)), raw, "0" * 64))
                    for a in (h, h_fraction)]
    assert certificates[0] == certificates[1]
