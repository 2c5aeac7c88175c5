"""Command-line interface.

Reads ideals from the plain-text format of :mod:`symbpow.parsing` and
exposes the library as batch subcommands.  Output goes to stdout (or
--output FILE) as human text or line-delimited JSON; rationals are always
exact "p/q" strings.  Exit codes: 0 success, 1 a proven statement failed
(a bug somewhere), 2 usage or parse error or an unreadable file, 3
resource budget exceeded, 4 a computed result failed its own verification,
5 an internal error (any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections import namedtuple

from . import harness
from .decomposition import (associated_primes, big_height,
                            max_associated_primes, sigma)
from .errors import ResourceLimitError, VerificationError
from .geometry import (alpha_polyhedron, enumerate_vertices,
                       symbolic_polyhedron)
from .invariants import alpha, beta, invariant_report
from .parsing import ParseError, format_ideal, load_ideal
from .results import encode_value, json_line
from .symbolic import symbolic_power

TEXT, STRUCTURED = "text", "structured"


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _var_counts(text: str) -> tuple[int, ...]:
    """Comma-separated variable counts; a scan needs at least two variables
    to draw an ideal with two incomparable associated primes."""
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if min(counts) < 2:
        raise argparse.ArgumentTypeError(f"variable counts must be at least 2: {text!r}")
    return counts


def _check_list(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"empty check list: {text!r}")
    for name in names:
        if name not in harness.CHECK_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; known: {', '.join(harness.CHECK_NAMES)}")
    return names


def _given(args, fields) -> dict:
    """The options among fields that the command line gave (see build_parser)."""
    return {field: getattr(args, field) for field in fields if field in args}


def _scalar(invariant):
    """A command that prints one value of the ideal."""
    def run(args, doc):
        value = invariant(doc.ideal)
        if args.format == STRUCTURED:
            return json_line({args.command: value}), 0
        return f"{encode_value(value)}\n", 0
    return run


def _primes(invariant):
    """A command that prints a list of primes of the ideal."""
    def run(args, doc):
        primes, names = invariant(doc.ideal), doc.names
        if args.format == STRUCTURED:
            return json_line({args.command: [[names[i] for i in P.variables]
                                             for P in primes]}), 0
        return "".join(P.render(names) + "\n" for P in primes), 0
    return run


def _info(args, doc):
    report = invariant_report(doc.ideal, doc.names)
    if args.format == STRUCTURED:
        return json_line(report), 0
    return "".join(f"{k}: {encode_value(v)}\n" for k, v in report.items()), 0


def _symbolic(args, doc):
    sym, names = symbolic_power(doc.ideal, args.m), doc.names
    if args.format == STRUCTURED:
        return json_line({"m": args.m, "vars": names,
                          "gens": sym.rendered_gens(names)}), 0
    return format_ideal(sym, names), 0


def _waldschmidt(args, doc):
    value, point = alpha_polyhedron(symbolic_polyhedron(doc.ideal))
    if args.format == STRUCTURED:
        return json_line({"waldschmidt": value, "point": point}), 0
    return f"{encode_value(value)}\n", 0


def _polyhedron(args, doc):
    Q, names = symbolic_polyhedron(doc.ideal), doc.names
    value, point = alpha_polyhedron(Q)
    vertices = enumerate_vertices(Q) if args.vertices else ()
    if args.format == STRUCTURED:
        record = {"alpha": value, "alpha_point": point, "components": [
            {"prime": [names[i] for i in P.variables], "gens": N.gens}
            for P, N in Q.components]}
        return json_line(record | ({"vertices": vertices} if args.vertices else {})), 0
    if args.dump:
        lines = [line for P, N in Q.components
                 for line in ("P " + " ".join(names[i] for i in P.variables),
                              *("G " + " ".join(map(str, g)) for g in N.gens))]
    else:
        lines = [f"alpha: {encode_value(value)}"]
        if not args.vertices:
            lines += [f"alpha point: ({', '.join(encode_value(x) for x in point)})",
                      f"components: {len(Q.components)}"]
    lines.extend("V " + " ".join(encode_value(x) for x in v) for v in vertices)
    return "\n".join(lines) + "\n", 0


def _containment(args, doc):
    res = harness.check("symbolic_in_mpower", doc.ideal,
                        {"m": args.m, "s": args.s, "r": args.r})
    if args.format == STRUCTURED:
        return json_line(harness.result_to_dict(res, doc.names)), 0
    line = f"I^({args.m}) <= m^{args.s} * I^{args.r}: {res.classify()}"
    if res.witness is not None:
        line += f"  witness={res.witness.render(doc.names)}"
    return line + "\n", 0


def _suite(args, doc):
    ranges = harness.SuiteRanges(**_given(args, harness.SuiteRanges._fields))
    report = harness.run_suite(doc.ideal, ranges=ranges, names=doc.names,
                               label=doc.label, **_given(args, ("checks", "seed")))
    return (harness.suite_jsonl(report) if args.format == STRUCTURED
            else harness.suite_text(report, args.timings)), int(report.has_bug)


def _scan(args, doc):
    report = harness.scan(harness.ScanConfig(**_given(args, harness.ScanConfig._fields)))
    if args.findings:
        with open(args.findings, "w") as fh:
            fh.write(harness.findings_jsonl(report))
    return (harness.scan_jsonl(report) if args.format == STRUCTURED
            else harness.scan_text(report, args.timings)), int(report.has_bug)


# A command: its help line, run(args, doc) giving its report and exit code,
# its own options as (flag, add_argument keywords) pairs, and whether it
# reads an ideal file (doc, that file's IdealDocument, else None).
Command = namedtuple("Command", "help run options file", defaults=((), True))
_TIMINGS = ("--timings", dict(action="store_true", default=False,
                              help="append wall-clock timings (text format only)"))

COMMANDS = {
    "info": Command("all scalar invariants of the ideal", _info),
    "ass": Command("associated primes", _primes(associated_primes)),
    "maxass": Command("maximal associated primes", _primes(max_associated_primes)),
    "bigheight": Command("largest height of an associated prime", _scalar(big_height)),
    "sigma": Command("smallest generator support size", _scalar(sigma)),
    "symbolic": Command("minimal generators of a symbolic power", _symbolic, [
        ("-m", dict(type=_int_at_least(0), required=True, metavar="M"))]),
    "alpha": Command("least generator degree", _scalar(alpha)),
    "beta": Command("largest generator degree", _scalar(beta)),
    "waldschmidt": Command("Waldschmidt constant (exact rational)", _waldschmidt),
    "polyhedron": Command("symbolic polyhedron summary", _polyhedron, [
        ("--dump", dict(action="store_true", default=False, help="emit P/G component lines")),
        ("--vertices", dict(action="store_true", default=False,
                            help="also enumerate vertices (V lines)"))]),
    "containment": Command("exploratory check I^(m) <= m^s I^r", _containment, [
        (flag, dict(type=_int_at_least(0), required=True))
        for flag in ("--m", "--s", "--r")]),
    "suite": Command("run named checks against one ideal", _suite, [
        ("--checks", dict(type=_check_list, help="comma-separated names (default: all)")),
        ("--seed", dict(type=int)),
        *((flag, dict(type=_int_at_least(1))) for flag in ("--m-max", "--t-max", "--r-max")),
        _TIMINGS]),
    "scan": Command("run suites against pseudo-random ideals", _scan, [
        ("--count", dict(type=_int_at_least(0))),
        ("--seed", dict(type=int)),
        ("--vars", dict(type=_var_counts, dest="num_vars", metavar="VARS",
                        help="ambient variable counts to draw from, e.g. 3,4")),
        ("--max-exp", dict(type=_int_at_least(1))),
        ("--max-gens", dict(type=_int_at_least(2))),
        ("--sqfree", dict(action="store_true", dest="squarefree_only",
                          help="generate only square-free ideals")),
        ("--checks", dict(type=_check_list)),
        ("--findings", dict(metavar="FILE", default=None,
                            help="write bug/candidate findings to this JSONL file")),
        _TIMINGS], file=False),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of COMMANDS.  An option not given is left out
    of args, so the library's default applies, unless the option says its own."""
    parser = argparse.ArgumentParser(
        prog="symbpow",
        description="symbolic powers, symbolic polyhedra and containment "
                    "checks for monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help,
                           argument_default=argparse.SUPPRESS)
        if command.file:
            p.add_argument("file", help="ideal description file")
        p.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)
        p.add_argument("--output", metavar="FILE", default=None,
                       help="write the report here instead of stdout")
        for flag, options in command.options:
            p.add_argument(flag, **options)
    return parser


def _document(path):
    """The ideal file at path; a zero or unit ideal is bad input."""
    doc = load_ideal(path)
    if doc.ideal.is_zero or doc.ideal.is_unit:
        raise ParseError(f"{path}: every command needs a proper non-zero ideal, this "
                         f"file gives the {'zero' if doc.ideal.is_zero else 'unit'} ideal")
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text, code = command.run(args, _document(args.file) if command.file else None)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"note: {message}", file=sys.stderr)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    # an unreadable or unwritable file is bad input, not a failed statement
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    # a crash is not a failed statement (exit 1): the program's boundary
    # reports it in one line with its own code
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5
    return code


if __name__ == "__main__":
    sys.exit(main())
