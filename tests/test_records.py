"""The record types subclass `collections.namedtuple`: immutable, compared and
hashed by value, pickled, rebuilt by `_replace` and read by `_asdict`, with
their fields in a fixed order, and cheap to define at import time, as no
field annotation is compiled.  `Monomial`, `DegreeSet` and `MatQ` keep a
validating `__new__`, which `_replace` and `_make` go through too."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import formacheck as fc
from formacheck.corpus import product, truncated_poly
from formacheck.formality import DegreeSet
from formacheck.model import Monomial
from formacheck.reference import MatQ, rref

from util import algebra, cp2, pipeline


def sample_records():
    """One instance of every record type, from a run on CP^2."""
    h = cp2()
    gens, e, goods, model, report = pipeline(h)
    verdict = fc.render_verdict(h, e, report)
    return [
        MatQ.identity(1), rref(MatQ.identity(1)), h, fc.validate(h), gens[0],
        goods[0].monomial, e[0], goods[0],
        model.odd_generators[0], model, report.reports[0], report, DegreeSet.from_algebra(h),
        verdict, fc.certify(h),
    ]


# every record's fields, in order; certificates and `_asdict` read them by name
FIELDS = {
    "MatQ": "rows cols entries",
    "RrefResult": "rref pivot_cols rank",
    "GradedAlgebra": "labels degrees unit_index mult scale",
    "ValidationReport": ("single_unit_in_degree_zero graded_multiplicativity unit_law "
                         "associativity graded_commutativity finite_dimensional "
                         "odd_degrees_vanish failures"),
    "Generator": "label degree class_vector",
    "Monomial": "even odd degree",
    "EEntry": "monomial class_vector",
    "GoodObject": "monomial divisor_witnesses",
    "OddGenerator": "label degree target",
    "Model": "generators odd_generators",
    "DegreeReport": ("degree model_cohomology_dim target_dim induced_map_rank "
                     "injective surjective"),
    "QuasiIsoReport": "cap reports overall first_failure",
    "DegreeSet": "degrees",
    "Verdict": ("condition_i condition_ii corollary_integer corollary_nonnegative "
                "classification discrepancy"),
    "Certificate": "algebra cap e_family good_objects model quasi_isomorphism verdict",
}


def test_check_path_does_not_import_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, formacheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


RECORDS = sample_records()
# a valid value of each record's last field, other than the sample's
LAST = {
    "MatQ": ((Fraction(2),),),
    "RrefResult": 0,
    "GradedAlgebra": 2,
    "ValidationReport": ("unit law fails on x",),
    "Generator": ((1, 2),),
    "Monomial": 8,
    "EEntry": ((2, 3),),
    "GoodObject": (),
    "OddGenerator": Monomial(((0, 2),), (), 4),
    "Model": (),
    "DegreeReport": False,
    "QuasiIsoReport": 5,
    "DegreeSet": (2, 6),
    "Verdict": True,
    "Certificate": RECORDS[-1].verdict._replace(discrepancy=True),
}


def test_every_record_type_is_sampled():
    assert len({type(r).__name__ for r in RECORDS}) == 15
    assert {type(r).__name__ for r in RECORDS} == set(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_keep_their_order(record):
    assert record._fields == tuple(FIELDS[type(record).__name__].split())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_rebuilds_from_its_fields(record):
    fields = record._asdict()
    assert list(fields) == list(record._fields)
    assert type(record)(**fields) == record
    assert type(record)(*record) == record
    last = LAST[type(record).__name__]
    changed = record._replace(**{record._fields[-1]: last})
    assert type(changed) is type(record)
    assert changed[:-1] == record[:-1] and changed[-1] == last != record[-1]


# a record with a validating `__new__`, a field and a value it rejects
INVALID = [(DegreeSet((2, 4)), "degrees", (4, 2, -1)),
           (Monomial(((0, 1),), (), 2), "odd", (3, 1, 1)),
           (MatQ.identity(1), "entries", ())]


@pytest.mark.parametrize("record, field, bad", INVALID, ids=lambda x: type(x).__name__)
def test_replace_and_make_validate(record, field, bad):
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(record)._make(bad if name == field else value
                           for name, value in zip(record._fields, record))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_survives_pickle(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_equal_inputs_give_equal_models():
    obj = product(truncated_poly(2, 3), truncated_poly(2, 3))
    first, second = pipeline(algebra(obj))[3], pipeline(algebra(obj))[3]
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first: 0, second: 1}) == 1

