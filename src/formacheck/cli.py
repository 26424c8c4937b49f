"""Command line front end: reads input files, writes certificates.

`HELP` is the command line's reference: its grammar, options and exit
codes; `formacheck -h` prints it.  `run_check` loads, certifies and writes:
the cap rule, `MAX_CAP` included, is `formality.certify`'s, and a cap it
refuses exits 1 with its message.  `parse_command_line` reads that grammar
by hand: a stdlib parser's import and set-up would cost every process a few
milliseconds.  `corpus` imports its module when it runs, so that a `check`
process neither loads nor compiles it.  Nor does it load `reference`, the
degree-by-degree code the tests compare against, or OpenSSL: `formats`
takes its sha256 from `_sha256` where Python has it.

Every line for standard error goes through `_stderr`, which flushes it at
once and ignores a standard error that cannot be written, so a full disk
or a closed pipe there never changes the exit code.  The `formacheck`
script and `python -m formacheck` run `entrypoint`, which flushes standard
output and ends the process with `os._exit`: `atexit` hooks do not run,
and the interpreter is not torn down.  That teardown frees every module,
code object and result one at a time, and it took about 10 ms of a
`check` process that lasts about 0.1 s at the benchmark's sizes.  Ending
early is safe because every file a command writes is closed before `main`
returns (`_write` uses `with`), and no command registers an `atexit` hook,
starts a thread or leaves a temporary file.  An exception that escapes
`main` still ends the process the normal way, with a traceback and exit 1.
`main()` and `certify()` return normally, for tests and library use.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional

from . import __version__
from .cohomology import covered_degree
from .formality import EXIT_INPUT_ERROR, EXIT_OK, MAX_CAP, certify
from .formats import InputError, certificate_json, dump_json, load_algebra_file


USAGE = """usage: formacheck check FILE [--cap N] [--report PATH] [--emit-model PATH]
       formacheck corpus KIND [PARAM ...] (-o | --output) PATH"""
HELP = USAGE + f"""

  check                run the formality pipeline on an algebra file
    --cap N            verify the quasi-isomorphism up to this degree
                       (default: 2*top_degree + 1); either way at most {MAX_CAP}
    --report PATH      write the certificate here instead of stdout
    --emit-model PATH  also write the model block to this file
  corpus               generate an algebra file: even_sphere, truncated_poly, product or wedge
    -o, --output PATH  write the algebra file here
  -h, --help           show this help

Options may come before or after the arguments, as `--name value`, `--name=value` or a unique
prefix of the name; `--` ends them.  check exits 0 formal with a clean capped quasi-isomorphism
check, 2 inconclusive, 3 hypothesis violated, 4 formal with a failing degree (discrepancy); every
command exits 1 on an input or usage error."""
# each command and its options, every one of which takes a value
_COMMANDS = {"check": ("--cap", "--report", "--emit-model"), "corpus": ("--output",)}


def _write(path, text: str):
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _stderr(text: str):
    """Print `text` to standard error and flush it; if standard error cannot
    be written, the line is dropped."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        pass


def _stdout(code: int, text: Optional[str] = None) -> int:
    """Write `text` to standard output, or flush it when `text` is None, and
    return `code`.  If standard output cannot be written (a pipe whose reader
    has gone, a full disk), say so on stderr and return EXIT_INPUT_ERROR."""
    try:
        if text is None:
            sys.stdout.flush()
        else:
            sys.stdout.write(text)
    except OSError as exc:
        _stderr(f"error: cannot write standard output: {exc.strerror or exc}")
        return EXIT_INPUT_ERROR
    return code


def _utc_now() -> str:
    """The current UTC time as YYYY-MM-DDTHH:MM:SS.ffffff+00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


def run_check(path, cap: Optional[int] = None, emit_model=None, report=None) -> int:
    """Load an algebra file, certify it, and write the certificate; a cap
    that `certify` refuses is an input error."""
    h, raw_obj, digest = load_algebra_file(path)
    try:
        cert = certify(h, cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    certificate = {
        "tool": {"name": "formacheck", "version": __version__},
        "generated_at": _utc_now(),
        **certificate_json(cert, raw_obj, digest),
    }
    # the model first: a run that fails to write it leaves no certificate
    if emit_model is not None and cert.model is not None:
        _write(emit_model, dump_json(certificate["model"]) + "\n")
    text = dump_json(certificate) + "\n"
    if report is not None:
        _write(report, text)
    elif _stdout(EXIT_OK, text) != EXIT_OK:
        return EXIT_INPUT_ERROR

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
        top = covered_degree(cert.model, h)
        if top is not None and qreport.cap >= top:
            summary.append(f"the check covers every degree: the model's cohomology and H "
                           f"vanish above {top} = max(box degree, top degree)")
    if verdict.discrepancy:
        summary.append("DISCREPANCY: theorem-level verdict is formal, but the "
                       "capped quasi-isomorphism check failed")
    _stderr("\n".join(summary))
    return cert.exit_code


def run_corpus(kind: str, params: list, out) -> int:
    from .corpus import generate

    obj = generate(kind, params)
    _write(out, dump_json(obj) + "\n")
    _stderr(f"wrote {obj['name']} to {out}")
    return EXIT_OK


def parse_command_line(argv):
    """(command, arguments, options by keyword) from `argv`, by the grammar of
    HELP; `-h` or `--help` returns at once with the options {"help": True}.
    The token after an option is its value even when it starts with `-`."""
    command, args, opts = None, [], {}
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            args.extend(tokens)  # every token left is an argument; this ends the loop
        elif tok[:1] != "-" or tok[1:2] in "0123456789.":  # "-", -1 and -.5 are arguments
            if command:
                args.append(tok)
            elif tok in _COMMANDS:
                command = tok
            else:
                raise InputError(f"unknown command {tok!r}")
        else:  # --name[=value], or -h or -o with the value attached, after "=" or next
            key, eq, value = (tok.partition("=") if tok[1] == "-" else
                              ({"-h": "--help", "-o": "--output"}.get(tok[:2], tok),
                               tok[2:], tok[2:].removeprefix("=")))
            names = [n for n in ("--help", *_COMMANDS.get(command, ())) if n.startswith(key)]
            if len(names) != 1:  # no option name is a prefix of another
                raise InputError(f"unrecognized option {tok!r}")
            if names == ["--help"]:
                return command, args, {"help": True}
            value = value if eq else next(tokens, None)
            if value is None:
                raise InputError(f"option {names[0]} needs a value")
            try:
                opts[names[0][2:].replace("-", "_")] = int(value) if names == ["--cap"] else value
            except ValueError:
                raise InputError(f"--cap needs an integer, not {value!r}") from None
    if command is None or not args:
        raise InputError("missing " + ("KIND" if command == "corpus" else
                                       "FILE" if command else "command"))
    if command == "corpus" and "output" not in opts:
        raise InputError("missing -o/--output PATH")
    if command != "corpus" and len(args) > 1:
        raise InputError(f"unexpected arguments after the file: {' '.join(args[1:])}")
    return command, args, opts


def main(argv=None) -> int:
    try:
        command, args, opts = parse_command_line(sys.argv[1:] if argv is None else argv)
    except InputError as exc:
        _stderr(f"error: {exc}\n{USAGE}")
        return EXIT_INPUT_ERROR
    if opts.get("help"):
        return _stdout(EXIT_OK, HELP + "\n")
    try:
        if command == "check":
            return run_check(*args, **opts)
        return run_corpus(args[0], args[1:], opts["output"])
    except InputError as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT_ERROR


def entrypoint():
    """Run `main`, flush its output and end the process without tearing the
    interpreter down (see the module docstring).  A write error still held in
    the buffer shows up in this flush and exits 1."""
    os._exit(_stdout(main()))


if __name__ == "__main__":
    entrypoint()
