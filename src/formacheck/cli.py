"""Command line pipeline and certificate emission.

Subcommands:
    check <file> [--cap N] [--report out.json] [--emit-model model.json]
    corpus <kind> [params] -o <file>
    duality <file>

Exit codes for check: 0 formal with a clean capped quasi-isomorphism check,
2 inconclusive, 3 hypothesis violated, 4 formal but the computational check
found a failing degree (discrepancy), 1 input error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Optional

from . import __version__
from .algebra import GeneratorSet, GradedAlgebra, choose_generators, validate
from .cohomology import ChainComplexError, QuasiIsoReport, duality_check, verify_quasi_iso
from .corpus import generate
from .formality import (FORMAL_BY_THEOREM, HYPOTHESIS_VIOLATED, INCONCLUSIVE,
                        DegreeSet, Verdict, render_verdict)
from .formats import (InputError, format_rational, load_algebra_file,
                      load_chain_complex_file, validation_report_json)
from .linalg import Vec
from .model import (EFamily, GoodObject, Model, Monomial, build_model,
                    compute_E, format_monomial, good_objects)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_DISCREPANCY = 4


def _sparse(h: GradedAlgebra, v: Vec) -> dict:
    return {h.labels[k]: format_rational(c) for k, c in enumerate(v) if c != 0}


def _monomial_json(m: Monomial, even_labels, odd_labels) -> dict:
    return {
        "text": format_monomial(m, even_labels, odd_labels),
        "even": [[even_labels[i], e] for i, e in m.even],
        "odd": [odd_labels[i] for i in m.odd],
        "degree": m.degree,
    }


def _generators_json(h: GradedAlgebra, gens: GeneratorSet) -> list:
    return [{"label": g.label, "degree": g.degree, "class": _sparse(h, g.class_vector)}
            for g in gens]


def _e_family_json(h: GradedAlgebra, gens: GeneratorSet, e: EFamily) -> list:
    labels = tuple(g.label for g in gens)
    return [{
        "monomial": _monomial_json(entry.monomial, labels, ()),
        "class": _sparse(h, entry.class_vector),
        "degree": entry.degree,
    } for entry in e]


def _good_objects_json(h: GradedAlgebra, gens: GeneratorSet,
                       goods: list[GoodObject]) -> list:
    labels = tuple(g.label for g in gens)
    return [{
        "monomial": _monomial_json(g.monomial, labels, ()),
        "phi_image": {},  # zero by definition of a good object
        "divisors": [{
            "monomial": _monomial_json(w.monomial, labels, ()),
            "class": _sparse(h, w.class_vector),
        } for w in g.divisor_witnesses],
    } for g in goods]


def _model_json(model: Model) -> dict:
    even_labels = model.even_labels()
    return {
        "even_generators": [{"label": g.label, "degree": g.degree}
                            for g in model.generators],
        "odd_generators": [{
            "label": w.label,
            "degree": w.degree,
            "differential": {
                "coefficient": "1",
                "monomial": _monomial_json(w.target, even_labels, ()),
            },
        } for w in model.odd_generators],
    }


def _quasi_json(report: QuasiIsoReport) -> dict:
    return {
        "cap": report.cap,
        "verified_up_to_cap_only": True,
        "overall": report.overall,
        "first_failure": report.first_failure,
        "degrees": [{
            "degree": r.degree,
            "model_cohomology_dim": r.model_cohomology_dim,
            "target_dim": r.target_dim,
            "induced_map_rank": r.induced_map_rank,
            "injective": r.injective,
            "surjective": r.surjective,
            "bijective": r.bijective,
        } for r in report.reports],
    }


def _verdict_json(verdict: Verdict, degree_set: DegreeSet) -> dict:
    return {
        "classification": verdict.classification,
        "discrepancy": verdict.discrepancy,
        "hypothesis_ok": verdict.hypothesis_ok,
        "odd_degrees_vanish": verdict.odd_degrees_vanish,
        "finite_dimensional": verdict.finite_dimensional,
        "condition_i_trivial_products": verdict.condition_i,
        "condition_ii_independent_family": verdict.condition_ii,
        "degrees_with_cohomology": list(degree_set.degrees),
        "corollary_integer": list(verdict.corollary_integer),
        "corollary_nonnegative": list(verdict.corollary_nonnegative),
    }


def exit_code_for(verdict: Verdict) -> int:
    if verdict.classification == HYPOTHESIS_VIOLATED:
        return EXIT_HYPOTHESIS_VIOLATED
    if verdict.classification == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_DISCREPANCY if verdict.discrepancy else EXIT_OK


def run_check(path, cap: Optional[int] = None, emit_model=None, report=None) -> int:
    """validate -> choose_generators -> E -> good objects -> model ->
    capped quasi-isomorphism check -> verdict + certificate."""
    h, raw_obj, digest = load_algebra_file(path)
    vreport = validate(h)
    top = h.top_degree
    used_cap = cap if cap is not None else 2 * top + 1
    if used_cap < top:
        raise InputError(f"cap {used_cap} is below the top degree {top}")

    gens = choose_generators(h)
    e = goods = model = qreport = None
    if vreport.odd_degrees_vanish:
        e = compute_E(h, gens)
        goods = good_objects(h, gens)
        model = build_model(h, gens, goods)
        qreport = verify_quasi_iso(model, h, used_cap)
    verdict = render_verdict(h, gens, e, goods, qreport)
    code = exit_code_for(verdict)

    certificate = {
        "tool": {"name": "formacheck", "version": __version__},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": raw_obj,
        "input_sha256": digest,
        "cap": used_cap,
        "validation": validation_report_json(vreport),
        "generators": _generators_json(h, gens),
        "e_family": _e_family_json(h, gens, e) if e is not None else None,
        "good_objects": _good_objects_json(h, gens, goods) if goods is not None else None,
        "model": _model_json(model) if model is not None else None,
        "quasi_isomorphism": _quasi_json(qreport) if qreport is not None else None,
        "verdict": _verdict_json(verdict, DegreeSet.from_algebra(h)),
        "exit_code": code,
    }
    text = json.dumps(certificate, indent=2, sort_keys=True) + "\n"
    if report is not None:
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if emit_model is not None and model is not None:
        with open(emit_model, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_model_json(model), indent=2, sort_keys=True) + "\n")

    summary = [f"classification: {verdict.classification}"]
    if verdict.condition_i is not None:
        summary.append(f"condition (i) trivial products: {verdict.condition_i}")
        summary.append(f"condition (ii) independent family: {verdict.condition_ii}")
    if qreport is not None:
        state = ("verified bijective for all degrees <= "
                 f"{qreport.cap}" if qreport.overall
                 else f"first failing degree {qreport.first_failure}")
        summary.append(f"quasi-isomorphism check ({state})")
    if verdict.discrepancy:
        summary.append("DISCREPANCY: theorem-level verdict is formal, but the "
                       "capped quasi-isomorphism check failed")
    print("\n".join(summary), file=sys.stderr)
    return code


def run_corpus(kind: str, params: list, out) -> int:
    obj = generate(kind, params)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {obj['name']} to {out}", file=sys.stderr)
    return EXIT_OK


def run_duality(path) -> int:
    complex_q, name = load_chain_complex_file(path)
    try:
        rows = duality_check(complex_q)
    except ChainComplexError as exc:
        raise InputError(f"{path}: {exc}") from exc
    result = {
        "name": name,
        "degrees": [{
            "degree": r.degree,
            "homology_dim": r.homology_dim,
            "dual_cohomology_dim": r.dual_cohomology_dim,
            "equal": r.equal,
        } for r in rows],
        "all_equal": all(r.equal for r in rows),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK if result["all_equal"] else EXIT_INPUT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="formacheck",
        description="Formality certificates for finite-dimensional graded "
                    "commutative algebras over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the formality pipeline on an algebra file")
    p_check.add_argument("file")
    p_check.add_argument("--cap", type=int, default=None,
                         help="verify the quasi-isomorphism up to this degree "
                              "(default: 2*top_degree + 1)")
    p_check.add_argument("--report", default=None, help="write the certificate here "
                                                        "instead of stdout")
    p_check.add_argument("--emit-model", default=None,
                         help="also write the model block to this file")

    p_corpus = sub.add_parser("corpus", help="generate a corpus algebra file")
    p_corpus.add_argument("kind",
                          choices=["even_sphere", "truncated_poly", "product", "wedge"])
    p_corpus.add_argument("params", nargs="*")
    p_corpus.add_argument("-o", "--output", required=True)

    p_duality = sub.add_parser("duality",
                               help="check homology/dual-cohomology equality for a "
                                    "chain complex file")
    p_duality.add_argument("file")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_check(args.file, cap=args.cap, emit_model=args.emit_model,
                             report=args.report)
        if args.command == "corpus":
            return run_corpus(args.kind, args.params, args.output)
        return run_duality(args.file)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
