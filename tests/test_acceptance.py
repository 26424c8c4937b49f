"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
happen.
"""

import itertools
import json
import random
import time

import numpy as np

import formacheck as fc
from formacheck.cli import main
from formacheck.corpus import even_sphere, truncated_poly, wedge
from formacheck.formality import DegreeSet
from formacheck.linalg import rank
from formacheck.model import build_model, good_objects
from formacheck.reference import as_row, differential_matrix, monomials_of_degree, phi_tilde

import oracles
from util import (algebra, corpus_objects, integer_rows, pipeline, random_chain_complex,
                  random_even_monomial_algebra)


def conclude(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_sphere_model():
    start = time.monotonic()
    h = algebra(even_sphere(2))
    gens, e, goods, model, report = pipeline(h, cap=12)
    elapsed = time.monotonic() - start
    ok = (
        [(g.label, g.degree) for g in gens] == [("v1", 2)]
        and [g.monomial.even for g in goods] == [((0, 2),)]
        and [(w.label, w.degree) for w in model.odd_generators] == [("w1", 3)]
        and model.odd_generators[0].target.even == ((0, 2),)
        and report.overall
        and [r.model_cohomology_dim for r in report.reports] == [1, 0, 1] + [0] * 10
        and all(r.bijective for r in report.reports)
        and elapsed < 5.0
    )
    conclude("criterion 1: even_sphere(2) model and quasi-isomorphism",
             ok, f"{elapsed:.2f}s")


def test_criterion_2_truncated_polynomial_rings():
    details = []
    ok = True
    for height, expected_e, expected_good in (
            (3, [((0, 2),)], ((0, 3),)),
            (4, [((0, 2),), ((0, 3),)], ((0, 4),))):
        start = time.monotonic()
        h = algebra(truncated_poly(2, height))
        gens, e, goods, model, report = pipeline(h, cap=12)
        elapsed = time.monotonic() - start
        ok = ok and (
            [entry.monomial.even for entry in e] == expected_e
            and fc.check_condition_ii(e)
            and [g.monomial.even for g in goods] == [expected_good]
            and report.overall
            and all(r.bijective for r in report.reports)
            and all(r.model_cohomology_dim == h.dim_in_degree(r.degree)
                    for r in report.reports)
            and elapsed < 10.0
        )
        details.append(f"height {height}: {elapsed:.2f}s")
    conclude("criterion 2: truncated_poly(2,3) and (2,4)", ok, ", ".join(details))


def test_criterion_3_wedge_discrepancy(tmp_path):
    h = algebra(wedge(even_sphere(2), even_sphere(2)))
    gens, e, goods, model, report = pipeline(h, cap=12)
    verdict = fc.render_verdict(h, e, report)

    # confirm with the independent brute-force rank oracle, then hold the
    # frozen regression values against it
    oracle_dims = oracles.brute_model_dims(model, 12)
    target_dims = [h.dim_in_degree(n) for n in range(13)]
    oracle_first_failure = next(
        n for n in range(13) if oracle_dims[n] != target_dims[n])
    ok_oracle = (oracle_first_failure == 5 and oracle_dims[5] == 2)

    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(wedge(even_sphere(2), even_sphere(2))),
                    encoding="utf-8")
    exit_code = main(["check", str(path), "--cap", "12",
                      "--report", str(tmp_path / "cert.json")])

    ok = (
        ok_oracle
        and fc.check_condition_i(e)
        and verdict.classification == fc.FORMAL_BY_THEOREM
        and verdict.discrepancy
        and report.first_failure == 5
        and report.reports[5].model_cohomology_dim == 2
        and [r.model_cohomology_dim for r in report.reports] == oracle_dims
        and exit_code == 4
    )
    conclude("criterion 3: wedge(S2,S2) discrepancy at degree 5, exit 4", ok,
             f"oracle dims degree 5: {oracle_dims[5]}")


def test_criterion_4_differential_identities():
    objs = corpus_objects()
    assert len(objs) >= 10
    ok = True
    for obj in objs:
        h = algebra(obj)
        gens = fc.choose_generators(h)
        model = build_model(gens, good_objects(gens, fc.compute_E(h, gens)))
        cap = 2 * h.top_degree + 1
        for n in range(cap + 1):
            d_n = differential_matrix(model, n)
            ok = ok and differential_matrix(model, n + 1).matmul(d_n).is_zero()
            basis_next = monomials_of_degree(model, n + 1)
            for j in range(d_n.cols):
                combo = {basis_next[i]: d_n.entries[i][j]
                         for i in range(d_n.rows) if d_n.entries[i][j] != 0}
                image = phi_tilde(model, h, combo)
                ok = ok and all(c == 0 for c in image)
    conclude("criterion 4: d^2 = 0 and phi~ o d = 0 on every corpus model",
             ok, f"{len(objs)} algebras")


def test_criterion_5_duality_random_complexes():
    # over Q, rank d = rank d^T: each boundary against its transpose, and the
    # homology dims(n) - rank d_n - rank d_(n+1) against the construction
    rng = random.Random(20260810)
    start = time.monotonic()
    ok = True
    for _ in range(20):
        dims, boundaries, expected = random_chain_complex(rng, max_dim=5, max_deg=6)
        ranks = [rank(integer_rows(map(as_row, d))) for d in boundaries]
        ok = ok and ranks == [rank(integer_rows(map(as_row, zip(*d)))) for d in boundaries]
        ranks = [0, *ranks, 0]
        ok = ok and [dim - ranks[n] - ranks[n + 1] for n, dim in enumerate(dims)] == expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 2.0
    conclude("criterion 5: rank d = rank d^T and known homology on 20 random chain complexes",
             ok, f"{elapsed:.2f}s")


_COEFFS = np.arange(-40, 41, dtype=np.int64)


def _search_not_representable(prefix, target):
    """Exhaustive search for target = sum a_i n_i with |a_i| <= target.

    The coefficient grids enumerate every tuple within the bound, so this is
    a literal bounded search, just vectorized.
    """
    k = len(prefix)
    if k == 0:
        return True  # the empty sum is 0 < target
    a = _COEFFS[np.abs(_COEFFS) <= target]
    if k == 1:
        return target % prefix[0] != 0  # quotient is at most target
    if k == 2:
        rem = target - a * prefix[0]
    else:
        rem = target - (a[:, None] * prefix[0] + a[None, :] * prefix[1])
    last = prefix[-1]
    hit = (rem % last == 0) & (np.abs(rem // last) <= target)
    return not bool(hit.any())


def test_criterion_6_corollary_cross_oracle():
    # flag_k of any degree set depends only on the prefix n_1..n_k, so
    # checking the last flag of every increasing tuple of length <= 4 covers
    # every (F, k) pair with <= 4 elements and entries <= 40
    start = time.monotonic()
    checked = 0
    ok = True
    for k in (1, 2, 3, 4):
        for tup in itertools.combinations(range(1, 41), k):
            gcd_flag = fc.corollary_integer_check(DegreeSet(tup))[-1]
            search_flag = _search_not_representable(tup[:-1], tup[-1])
            ok = ok and (gcd_flag == search_flag)
            checked += 1
    elapsed = time.monotonic() - start
    conclude("criterion 6: gcd test agrees with bounded exhaustive search",
             ok, f"{checked} degree sets, {elapsed:.1f}s")


def test_criterion_7_certificate_determinism(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(truncated_poly(2, 3)), encoding="utf-8")
    certs = []
    for k in range(2):
        out = tmp_path / f"cert{k}.json"
        assert main(["check", str(path), "--cap", "12",
                     "--report", str(out)]) == 0
        certs.append(out.read_text(encoding="utf-8"))
    def body(text):
        return [line for line in text.splitlines()
                if not line.lstrip().startswith('"generated_at"')]
    timestamp_lines = [len(t.splitlines()) - len(body(t)) for t in certs]
    ok = body(certs[0]) == body(certs[1]) and timestamp_lines == [1, 1]
    conclude("criterion 7: byte-identical certificates modulo timestamp", ok)


def test_criterion_8_good_object_degree_bound():
    start = time.monotonic()
    ok = True
    worst = 0
    for seed in range(30):
        rng = random.Random(seed)
        h = random_even_monomial_algebra(rng)
        gens = fc.choose_generators(h)
        goods = good_objects(gens, fc.compute_E(h, gens))  # termination: this returns
        for g in goods:
            worst = max(worst, g.monomial.degree - 2 * h.top_degree)
            ok = ok and g.monomial.degree <= 2 * h.top_degree
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    conclude("criterion 8: good objects stay within twice the top degree",
             ok, f"30 random algebras, {elapsed:.2f}s, worst margin {worst}")
