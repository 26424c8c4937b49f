"""The record types are NamedTuples: immutable, compared and hashed by value,
and cheap to define at import time."""

import os
import pickle
import subprocess
import sys

import pytest

import formacheck as fc
from formacheck.corpus import product, truncated_poly
from formacheck.duality import ChainComplexQ, duality_check
from formacheck.formality import DegreeSet
from formacheck.reference import MatQ

from util import algebra, cp2, pipeline


def sample_records():
    """One instance of every record type, from a run on CP^2."""
    h = cp2()
    gens, e, goods, model, report = pipeline(h)
    verdict = fc.render_verdict(h, e, goods, report)
    complex_q = ChainComplexQ((1, 1), (((1,),),))
    return [
        MatQ.identity(1), h, fc.validate(h), gens[0],
        goods[0].monomial, e[0], goods[0],
        model.odd_generators[0], model, report.reports[0], report, complex_q,
        duality_check(complex_q)[0], DegreeSet.from_algebra(h), verdict,
    ]


def test_check_path_does_not_import_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, formacheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


RECORDS = sample_records()


def test_every_record_type_is_sampled():
    assert len({type(r).__name__ for r in RECORDS}) == 15


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

