"""Certificates are fixed byte for byte across commits.

Each digest is the sha256 of `json.dumps(certificate_json(cert, raw, digest),
sort_keys=True)` for one input, where `raw` is the input object and `digest`
the sha256 of its sorted JSON.  `GOLDEN` is taken at the default cap, and
`GOLDEN_AT_CAP` at the caps the benchmark's workloads run.  A change that
moves any field of any certificate (a value, an order, a key) moves its
digest.
The rebased inputs (`change_basis` with a seeded `random.Random`) have E
classes with several terms and coefficients other than 1, so their digests
pin how a class is written; a change in the rebasing moves them too.
Regenerate a digest only for a change that means to alter the certificate.
"""

import hashlib
import json
import random

import pytest

import formacheck as fc
from formacheck.formats import certificate_json

from util import (algebra, change_basis, corpus_objects, cp2_power_3, dependent_family,
                  dependent_pair, s2_power_4, serialize_algebra, sphere_wedge_8)

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
    "rebased(dependent_family,1)":
        "b0b6e6fabae6bbedeef6583288ff39ab21854b099468ee13954ba42916c258ab",
    "rebased(dependent_pair,1)":
        "4783090e061553e59f7fc711cf607eeb81ac2008bcb386dcf56875ac0066ff95",
}

# name -> (builder, seed) of the rebased inputs
REBASED = {
    "rebased(cp2_power_3,1)": (cp2_power_3, 1),
    "rebased(dependent_family,1)": (dependent_family, 1),
    "rebased(dependent_pair,1)": (dependent_pair, 1),
}

# (input, cap) -> digest
GOLDEN_AT_CAP = {
    ("s2_power_4", 13): "45d2c1472fb07c5fa611365060bc395bb635a1973fad640a18e9ae41f9209a0d",
    ("cp2_power_3", 12): "62658c94bb8a547211c237a6876bf994c529f91eaaf9622e1496fe895b3ca435",
    ("sphere_wedge_8", 9): "46087b2c11c775fb1ca75d99fb2db93ba6a29b62a7e9cd19626c79403b356f7a",
}


def inputs() -> dict:
    """Each golden input's algebra-file object, by name."""
    out = {obj["name"]: obj for obj in corpus_objects()}
    out["dependent_family"] = serialize_algebra(dependent_family(), name="dependent_family")
    out["sphere_wedge_8"] = serialize_algebra(sphere_wedge_8(), name="sphere_wedge_8")
    out["s2_power_4"] = serialize_algebra(s2_power_4(), name="s2_power_4")
    out["cp2_power_3"] = serialize_algebra(cp2_power_3(), name="cp2_power_3")
    for name, (build, seed) in REBASED.items():
        out[name] = serialize_algebra(change_basis(build(), random.Random(seed)), name=name)
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


@pytest.mark.parametrize("name,cap", sorted(GOLDEN_AT_CAP))
def test_certificate_digest_at_cap(name, cap):
    assert certificate_digest(inputs()[name], cap) == GOLDEN_AT_CAP[(name, cap)]
