"""Command line front end: reads input files, writes certificates.

Subcommands:
    check <file> [--cap N] [--report out.json] [--emit-model model.json]
    corpus <kind> [params] -o <file>
    duality <file>

Exit codes for check: 0 formal with a clean capped quasi-isomorphism check,
2 inconclusive, 3 hypothesis violated, 4 formal but the computational check
found a failing degree (discrepancy), 1 input error.

`corpus` and `duality` import their modules when they run, so that a
`check` process neither loads nor compiles them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .formality import EXIT_INPUT_ERROR, EXIT_OK, certify
from .formats import InputError, certificate_json, load_algebra_file


def _write(path, text: str):
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _utc_now() -> str:
    """The current UTC time as YYYY-MM-DDTHH:MM:SS.ffffff+00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


def run_check(path, cap: Optional[int] = None, emit_model=None, report=None) -> int:
    """Load an algebra file, certify it, and write the certificate."""
    h, vreport, raw_obj, digest = load_algebra_file(path)
    if cap is not None and cap < h.top_degree:
        raise InputError(f"cap {cap} is below the top degree {h.top_degree}")
    cert = certify(h, vreport, cap)
    certificate = {
        "tool": {"name": "formacheck", "version": __version__},
        "generated_at": _utc_now(),
        **certificate_json(cert, raw_obj, digest),
    }
    # the model first: a run that fails to write it leaves no certificate
    if emit_model is not None and cert.model is not None:
        _write(emit_model, json.dumps(certificate["model"], indent=2, sort_keys=True) + "\n")
    text = json.dumps(certificate, indent=2, sort_keys=True) + "\n"
    if report is not None:
        _write(report, text)
    else:
        sys.stdout.write(text)

    verdict, qreport = cert.verdict, cert.quasi_isomorphism
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
    return cert.exit_code


def run_corpus(kind: str, params: list, out) -> int:
    from .corpus import generate

    obj = generate(kind, params)
    _write(out, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {obj['name']} to {out}", file=sys.stderr)
    return EXIT_OK


def run_duality(path) -> int:
    from .duality import ChainComplexError, duality_check, load_chain_complex_file

    complex_q, name = load_chain_complex_file(path)
    try:
        rows = duality_check(complex_q)
    except ChainComplexError as exc:
        raise InputError(f"{path}: {exc}") from exc
    result = {
        "name": name,
        "degrees": [r._asdict() for r in rows],
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
