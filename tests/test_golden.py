"""Certificates are fixed byte for byte across commits.

Each digest is the sha256 of `json.dumps(certificate_json(cert, raw, digest),
sort_keys=True)` for one input, where `raw` is the input object and `digest`
the sha256 of its sorted JSON.  `GOLDEN` is taken at the default cap, and
`GOLDEN_AT_CAP` at the caps the benchmark's workloads run, and the 8-fold
S^2 wedge also at caps 15 and 17, where its boundary ranks are large.
`WORKLOAD_GOLDEN` pins the inputs the benchmark's `check` ops read: the
last file of each workload's corpus chain put through `rebase` of
`perfbench/harness.py` (read from its source, not imported) with
`random.Random(f"{workload}:{seed}")`, at the workload's cap.  The
rings of `GROEBNER_RINGS` are monomial in no basis.  A change that
moves any field of any certificate (a value, an order, a key) moves its
digest.
A file's table is read as `int`s, times the lcm of its denominators; a
table built from the file's coefficients as `Fraction`s is made integral
the same way, and gives the same algebra, stages and certificate, byte for
byte.
The rebased inputs (`change_basis` with a seeded `random.Random`) have E
classes with several terms and coefficients other than 1, so their digests
pin how a class is written; a change in the rebasing moves them too.  Their
coefficients are all integers; `HALF_SQUARE`, CP^2 with x*x = 1/2 x^2,
`THIRD_CUBE`, CP^3 with x*x = 1/3 x^2 and x*x^2 = 2/3 x^3, and their
product pin how a class with a coefficient `p/q` is written.
`CORPUS_GOLDEN` pins the files `formacheck corpus` writes, byte for byte:
the sha256 of `dump_json(obj) + "\n"` for spheres, truncated polynomial
rings, the benchmark's chains, and products and wedges of a table with two
degree-3 classes (the Koszul sign, primed labels), of one with a `"1/2"`
coefficient, of that one and `THIRD_CUBE` (two denominators), and of one
without a name; `test_corpus_command_on_a_non_integral_factor` runs the
non-integral ones through the `corpus` command.
Regenerate a digest only for a change that means to alter the certificate
or the corpus file.
A digest pins bytes the pipeline made; `oracles.contract_violations` reads
each pinned certificate back from its JSON and checks that its verdict,
discrepancy flag, exit code and summary follow from its flags and rows, and
`oracles.claim_violations` checks its E, good objects, model and rows
against the algebra file it echoes.
"""

import ast
import functools
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

import formacheck as fc
from formacheck.cli import main
from formacheck.corpus import even_sphere, product, truncated_poly, wedge
from formacheck.formats import certificate_json, dump_json, parse_rational

from oracles import claim_violations, contract_violations, file_table
from util import (GROEBNER_RINGS, ODD_PAIR, algebra, change_basis, corpus_objects,
                  cp2_power_3, cp2_power_4, dependent_family, dependent_pair, s2_power_4,
                  serialize_algebra, sphere_wedge_8)

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
    "third_cube(truncated_poly(2,4))":
        "62eb8143a58e31b6839eed6fcabbcfffb83d6cc5a888972ccee846ac89613149",
    "product(half_square,third_cube)":
        "e8d0a8271958916f9454c8bf01c4d237ae577274ce331ba21f0476d7b37cfcca",
    "grassmannian_2_4": "3628db8436a393a5b6d41aa7583472e51df6f4603dc2c117df40b61598458698",
    "flag_3": "63cc1b3cdf91a4b74015c54400141a41f2c0f7d674897f0fcd173d183373d9af",
    "quadric_intersection": "218e47f24b6af9c66bd2c8c3fba8ace10387fec714f70598727232fe8a6a7be9",
    "grassmannian_2_5": "42c66897253059c0f2b0610e7326bda9428dc00ea6049bbe0fb9e68ea89d0092",
    "flag_4": "2a519c233447d45c9cc1a4d9254c1eb29dae4655dc8bf4f6b24435d1ad6d3476",
    "rebased(grassmannian_2_4,1)":
        "d012a9180757fadfdf14c1ae2b3eac94948fdb23a46eae645da4a50a7325bfa6",
    "rebased(flag_3,1)":
        "bb96101eede79cc36ef0c3ca73140bf180aa79884aee196a9521f0c12c879bc6",
    "rebased(quadric_intersection,1)":
        "81cb60091f5935329a8067a26c51b635225d5ab386d11a6bdaa30be04cf9c95a",
    "rebased(grassmannian_2_5,1)":
        "5296c99f27a0d2f9db78291cbb087774cf3cfebfc6ab62036ccd05634ba5509e",
    "rebased(flag_4,1)":
        "b60d822f6f331168d8fbfa30ee716cff9a9cf81ff3de5e15c67c5a35a27ef429",
}
HALF_SQUARE = "half_square(truncated_poly(2,3))"
THIRD_CUBE = "third_cube(truncated_poly(2,4))"
HALF_BY_THIRD = "product(half_square,third_cube)"

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

# (workload, seed) -> digest; the workload's chain file and cap are in WORKLOADS
WORKLOAD_GOLDEN = {
    ("sphere-product", 1): "c01406136797f88ffab2873896460fe61bc1a6470107aa6d843bf42202230225",
    ("sphere-product", 2): "9ba12208f8c8093d4371842a230e2760f0cf9841462369116cf722c5fc5281ef",
    ("sphere-product", 3): "877999ff93bb8a4a348f3b4b3f3f9e6da0ad57964c2ae51adbc454acfb9b2ed5",
    ("validate-dim27", 1): "a8cb3a5c65a8c294120f2f7ae625927b97b5bda6d453d47d98d8873657f27bad",
    ("validate-dim27", 2): "1c29f7820f698b6a68402e4a618939d9882e7b9592e1895b276ac15a9158930d",
    ("validate-dim27", 3): "ccfed5c852684979269e8e0d0738afb3e03f18df86e12e8c8864c1f78f4fcd85",
    ("sphere-wedge", 1): "6b3e933f35c3ba9fa1b255f3c7b438d14b59769748d900185bac974fab517526",
    ("sphere-wedge", 2): "263c2ede8170dcf520fdef9da7555f64bd1d3ad317f96e679cfca8bda136b840",
    ("sphere-wedge", 3): "d36b745d7092a5f559b0ac8b8017e6c17de6eb064dec75ce6eeb89b433188745",
}
# workload -> (its last corpus file, its cap), as `perfbench/harness.py` runs it
WORKLOADS = {"sphere-product": ("s2x4", 13), "validate-dim27": ("cp2x3", 12),
             "sphere-wedge": ("w8", None)}
HARNESS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "harness.py")


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
    out[HALF_SQUARE] = half_square()
    out[THIRD_CUBE] = third_cube()
    out[HALF_BY_THIRD] = dict(product(half_square(), third_cube()), name=HALF_BY_THIRD)
    return out


def half_square() -> dict:
    """CP^2 with x*x = 1/2 x^2."""
    obj = truncated_poly(2, 3)
    obj["name"] = HALF_SQUARE
    obj["products"][0]["value"][0]["coeff"] = "1/2"
    return obj


def third_cube() -> dict:
    """CP^3 with x*x = 1/3 x^2 and x*x^2 = 2/3 x^3."""
    obj = truncated_poly(2, 4)
    obj["name"] = THIRD_CUBE
    for item, coeff in zip(obj["products"], ("1/3", "2/3")):
        item["value"][0]["coeff"] = coeff
    return obj


# corpus output -> sha256 of the file `formacheck corpus` writes for it
CORPUS_GOLDEN = {
    "even_sphere 2":
        "719dabc299706baec622e0e49ce205ebb99e8013add3aeadb693bf6fad3538fe",
    "even_sphere 4":
        "52dc6e6ea579bbced9e8ce35136d0ac4a6d0587382a1922b86d034fa36b98f84",
    "truncated_poly 2 3":
        "4964cc63b78d212c8491f26ae926a1a5cc733426246c086c0ce0fd5250d36380",
    "truncated_poly 2 6":
        "56db53919e368815ed85e76633711c9b964fc460047a4888168bcf1fe15b014c",
    "truncated_poly 3 2":
        "41d620216ebbb221dca7e3b6f90df71197643f568ada396efba6d5c48ebd646f",
    "s2x4":
        "d685a5470230937041e7547fc743b8893b2342c78d3eb081c4f8e2c7d0afced3",
    "cp2x3":
        "b2ea9341d192e5f96f16a192bc4b8e55ca286ca7e7c2e98f02a5efda92235335",
    "w8":
        "2bf3df1d66e0e25ccad83d8c0bc5fd8df0cc9d9457829b59a39437617ba8a5ef",
    "product odd_pair odd_pair":
        "52a6d24a4b7172e5f927dfcdc14d04d17c582a8a25a43d92c86c130de43444a3",
    "wedge odd_pair odd_pair":
        "af63b17aae9bc96a75674e39d5b9e5d28300eb1d7216274a5ed7a9e22aaf85f0",
    "product half_square half_square":
        "245cdf77fe335b1f0d894cfd9d368679cc9c3c625fe5aa83ae3f2c6a3528a35f",
    "wedge half_square even_sphere(2)":
        "46f75b94016eb39fc3591bf720b43b07b49eba5f6a4622c985e9e5c5fb8f6510",
    "product nameless even_sphere(2)":
        "09d4cbf9a25b0db0da39637cb6ea1407ff1b3cea458de9377b696cacba824f53",
    "wedge even_sphere(2) nameless":
        "3b6c919384ac9b1a37f13310ad44d8a77910cfbc7c09198eca971707973e3427",
    "product half_square third_cube":
        "26818acfca1bd414e70ada25bb137741a105f204efac031ff03af55b24408322",
    "product third_cube even_sphere(2)":
        "219b43b2436cbb0c6e03464f83d7339189f5a506663539ce70fd2940ebdc7337",
    "wedge half_square third_cube":
        "7c3f55b69e02e108a3f44aabedf4be5a5433021d22919c85deee799029ac8f93",
    "wedge third_cube half_square":
        "25bb8000aae4310fef35318b7df42d9701555ec2a807263f70d7ca59f0e9bf7d",
}


@functools.cache
def corpus_files() -> dict:
    """Each pinned corpus output's object, by name; s2x4, cp2x3 and w8 are
    the last files of the benchmark's three chains."""
    s2, cp2, half, third = even_sphere(2), truncated_poly(2, 3), half_square(), third_cube()
    s2x2, w2 = product(s2, s2), wedge(s2, s2)
    w4 = wedge(w2, w2)
    nameless = {key: value for key, value in ODD_PAIR.items() if key != "name"}
    return {
        "even_sphere 2": s2,
        "even_sphere 4": even_sphere(4),
        "truncated_poly 2 3": cp2,
        "truncated_poly 2 6": truncated_poly(2, 6),
        "truncated_poly 3 2": truncated_poly(3, 2),
        "s2x4": product(s2x2, s2x2),
        "cp2x3": product(product(cp2, cp2), cp2),
        "w8": wedge(w4, w4),
        "product odd_pair odd_pair": product(ODD_PAIR, ODD_PAIR),
        "wedge odd_pair odd_pair": wedge(ODD_PAIR, ODD_PAIR),
        "product half_square half_square": product(half, half),
        "wedge half_square even_sphere(2)": wedge(half, s2),
        "product nameless even_sphere(2)": product(nameless, s2),
        "wedge even_sphere(2) nameless": wedge(s2, nameless),
        "product half_square third_cube": product(half, third),
        "product third_cube even_sphere(2)": product(third, s2),
        "wedge half_square third_cube": wedge(half, third),
        "wedge third_cube half_square": wedge(third, half),
    }


def file_digest(obj: dict) -> str:
    return hashlib.sha256((dump_json(obj) + "\n").encode()).hexdigest()


def certificate_digest(raw: dict, cap=None) -> str:
    h = algebra(raw)
    cert = fc.certify(h, cap)
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
    cert = fc.certify(h)
    assert (cert.verdict.classification, cert.exit_code) == (fc.FORMAL_BY_THEOREM, 0)
    assert dump_json(certificate_json(cert, raw, "0" * 64)).count('"1/2"') == 3


@pytest.mark.parametrize("name,cap", sorted(GOLDEN_AT_CAP))
def test_certificate_digest_at_cap(name, cap):
    assert certificate_digest(inputs()[name], cap) == GOLDEN_AT_CAP[(name, cap)]


def certificate_read_back(raw: dict, cap=None) -> dict:
    """The certificate of `raw` as `check` writes it, parsed again."""
    cert = fc.certify(algebra(raw), cap)
    return json.loads(dump_json(certificate_json(cert, raw, "0" * 64)))


@pytest.mark.parametrize("name,cap", [(name, None) for name in sorted(GOLDEN)]
                         + sorted(GOLDEN_AT_CAP))
def test_pinned_certificate_keeps_its_contract(name, cap):
    assert contract_violations(certificate_read_back(inputs()[name], cap)) == []


# (input, cap) -> the last row whose model cohomology `claim_violations`
# checks with the sympy oracle, where checking every row would take more than
# a few seconds: its degree-by-degree basis grows fast on these models
BRUTE_ROWS = {("rebased(cp2_power_4,1)", None): 18, ("sphere_wedge_8", 15): 7,
              ("sphere_wedge_8", 17): 7}


@pytest.mark.parametrize("name,cap", [(name, None) for name in sorted(GOLDEN)]
                         + sorted(GOLDEN_AT_CAP))
def test_pinned_certificate_claims_hold(name, cap):
    cert = certificate_read_back(inputs()[name], cap)
    assert claim_violations(cert, BRUTE_ROWS.get((name, cap))) == []


def shifted(sparse: dict) -> dict:
    """A sparse class with its first coefficient raised by one."""
    first = next(iter(sparse))
    return {**sparse, first: str(Fraction(sparse[first]) + 1)}


# certificate -> the same certificate with one claim about its algebra changed
CLAIM_BREAKS = {
    "e class": lambda c: c["e_family"][0].update({"class": shifted(c["e_family"][0]["class"])}),
    "divisor dropped": lambda c: c["good_objects"][-1]["divisors"].pop(),
    "divisor class": lambda c: c["good_objects"][-1]["divisors"][0].update(
        {"class": shifted(c["good_objects"][-1]["divisors"][0]["class"])}),
    "good object": lambda c: c["good_objects"][-1].update(
        monomial=c["e_family"][0]["monomial"]),
    "odd degree": lambda c: c["model"]["odd_generators"][0].update(
        degree=c["model"]["odd_generators"][0]["degree"] + 2),
    "model dim": lambda c: c["quasi_isomorphism"]["degrees"][4].update(
        model_cohomology_dim=c["quasi_isomorphism"]["degrees"][4]["model_cohomology_dim"] + 1),
    "target dim": lambda c: c["quasi_isomorphism"]["degrees"][4].update(
        target_dim=c["quasi_isomorphism"]["degrees"][4]["target_dim"] + 1),
    "rank": lambda c: c["quasi_isomorphism"]["degrees"][4].update(
        induced_map_rank=c["quasi_isomorphism"]["degrees"][4]["induced_map_rank"] - 1),
}


@pytest.mark.parametrize("name", ["truncated_poly(2,3)", "dependent_family"])
@pytest.mark.parametrize("claim", sorted(CLAIM_BREAKS))
def test_claim_checker_catches_a_changed_claim(name, claim):
    # CP^2 and dependent_family both have E in degree 4 and good objects
    # with divisors; the change is caught also where the flags still agree
    cert = certificate_read_back(inputs()[name])
    CLAIM_BREAKS[claim](cert)
    assert claim_violations(cert) != []


# certificate -> the same certificate with one claim changed
BREAKS = {
    "classification": lambda c: c["verdict"].update(classification={
        "INCONCLUSIVE": "FORMAL_BY_THEOREM"}.get(c["verdict"]["classification"], "INCONCLUSIVE")),
    "exit_code": lambda c: c.update(exit_code=(c["exit_code"] + 1) % 5),
    "discrepancy": lambda c: c["verdict"].update(discrepancy=not c["verdict"]["discrepancy"]),
    "hypothesis_ok": lambda c: c["verdict"].update(hypothesis_ok=not c["verdict"]["hypothesis_ok"]),
    "conditions": lambda c: c["verdict"].update(
        condition_i_trivial_products=not c["verdict"]["classification"].startswith("FORMAL"),
        condition_ii_independent_family=not c["verdict"]["classification"].startswith("FORMAL")),
    "overall": lambda c: c["quasi_isomorphism"].update(
        overall=not c["quasi_isomorphism"]["overall"]),
    "first_failure": lambda c: c["quasi_isomorphism"].update(first_failure=1),
    "bijective": lambda c: c["quasi_isomorphism"]["degrees"][2].update(bijective=False),
    "rank": lambda c: c["quasi_isomorphism"]["degrees"][2].update(induced_map_rank=0),
    "row dropped": lambda c: c["quasi_isomorphism"]["degrees"].pop(),
}


@pytest.mark.parametrize("name", ["truncated_poly(2,3)", "wedge(even_sphere(2),even_sphere(2))",
                                  "dependent_family"])
@pytest.mark.parametrize("claim", sorted(BREAKS))
def test_contract_checker_catches_a_changed_claim(name, claim):
    # CP^2 is formal and clean, the wedge a discrepancy, dependent_family inconclusive
    cert = certificate_read_back(inputs()[name])
    BREAKS[claim](cert)
    assert contract_violations(cert) != []


def test_contract_checker_reads_a_violated_hypothesis():
    # two degree-3 classes: no condition flags, no check, exit 3
    cert = certificate_read_back(ODD_PAIR)
    assert (cert["quasi_isomorphism"], cert["exit_code"]) == (None, 3)
    assert contract_violations(cert) == []
    for claim in ("classification", "exit_code", "hypothesis_ok", "conditions"):
        broken = json.loads(json.dumps(cert))
        BREAKS[claim](broken)
        assert contract_violations(broken) != [], claim


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
    # each table is made integral, times the lcm of the file's denominators, as the parser's is
    assert all(type(c) is int for a in (h, h_fraction) for row in a.mult.values() for _, c in row)
    assert h == h_fraction == algebra(raw)
    assert h.generators == h_fraction.generators
    assert fc.compute_E(h, h.generators) == fc.compute_E(h_fraction, h_fraction.generators)
    certificates = [dump_json(certificate_json(fc.certify(a), raw, "0" * 64))
                    for a in (h, h_fraction)]
    assert certificates[0] == certificates[1]


@functools.cache
def harness_rebase():
    """`rebase` of `perfbench/harness.py` and the `SCALES` it draws from,
    compiled from the file's source alone: its module is never run."""
    with open(HARNESS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    nodes = [node for node in tree.body if getattr(node, "name", None) == "rebase"
             or isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SCALES"]
    namespace = {"Fraction": Fraction, "random": random}
    exec(compile(ast.Module(nodes, []), HARNESS, "exec"), namespace)
    return namespace["rebase"]


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_GOLDEN))
def test_workload_input_certificate_digest(workload, seed):
    chain, cap = WORKLOADS[workload]
    raw = harness_rebase()(corpus_files()[chain], random.Random(f"{workload}:{seed}"))
    assert certificate_digest(raw, cap) == WORKLOAD_GOLDEN[workload, seed]


@pytest.mark.parametrize("rebase", [False, True])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_holds_each_product_once(name, rebase):
    # the algebra keeps the file's half table; both orders are the file's,
    # mirrored by the oracle, times the scale
    raw = inputs()[name]
    if rebase:
        raw = serialize_algebra(change_basis(algebra(raw), random.Random(name)), name=name)
    h = algebra(raw)
    assert all(i <= j for i, j in h.mult)
    table = file_table(raw)[2].mult
    assert h.both_orders() == {p: tuple((k, c * h.scale) for k, c in row)
                               for p, row in table.items()}


def test_every_corpus_file_has_a_digest():
    assert sorted(corpus_files()) == sorted(CORPUS_GOLDEN)


@pytest.mark.parametrize("name", sorted(CORPUS_GOLDEN))
def test_corpus_file_digest(name):
    assert file_digest(corpus_files()[name]) == CORPUS_GOLDEN[name]


def test_corpus_command_writes_the_pinned_bytes(tmp_path, capsys):
    out = tmp_path / "s2.json"
    assert main(["corpus", "even_sphere", "2", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORPUS_GOLDEN["even_sphere 2"]


# the corpus outputs of a factor with a `p/q` coefficient, by command
NON_INTEGRAL_CORPUS = ["product half_square half_square", "wedge half_square even_sphere(2)",
                       "product half_square third_cube", "product third_cube even_sphere(2)",
                       "wedge half_square third_cube", "wedge third_cube half_square"]


@pytest.mark.parametrize("name", NON_INTEGRAL_CORPUS)
def test_corpus_command_on_a_non_integral_factor(tmp_path, name):
    # the whole `corpus product` and `corpus wedge` commands, from the files
    factors = {"half_square": half_square(), "third_cube": third_cube(),
               "even_sphere(2)": even_sphere(2)}
    kind, *names = name.split()
    paths = []
    for factor in names:
        paths.append(str(tmp_path / f"{factor}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(factors[factor], fh)
    out = tmp_path / "out.json"
    assert main(["corpus", kind, *paths, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORPUS_GOLDEN[name]
