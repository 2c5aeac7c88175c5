"""Command-line interface.

Reads ideals from the plain-text format of :mod:`symbpow.parsing` and
exposes the library as batch subcommands.  Output goes to stdout (or
--output FILE) as human text or line-delimited JSON; rationals are always
exact "p/q" strings.  Exit codes: 0 success, 1 a proven statement failed
(a bug somewhere), 2 usage or parse error or an unreadable file, 3
resource budget exceeded, 4 a computed result failed its own verification.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import harness
from .decomposition import (associated_primes, big_height,
                            max_associated_primes, sigma)
from .errors import ResourceLimitError, VerificationError
from .geometry import (alpha_polyhedron, enumerate_vertices,
                       symbolic_polyhedron)
from .invariants import alpha, beta, invariant_report, waldschmidt_point
from .parsing import ParseError, format_ideal, load_ideal
from .results import encode_value
from .symbolic import symbolic_power

TEXT, STRUCTURED = "text", "structured"


def _common(parser):
    parser.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)
    parser.add_argument("--output", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--timings", action="store_true",
                        help="append wall-clock timings (text format only)")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbpow",
        description="symbolic powers, symbolic polyhedra and containment "
                    "checks for monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_, needs_file=True):
        p = sub.add_parser(name, help=help_)
        if needs_file:
            p.add_argument("file", help="ideal description file")
        _common(p)
        return p

    cmd("info", "all scalar invariants of the ideal")
    cmd("ass", "associated primes")
    cmd("maxass", "maximal associated primes")
    cmd("bigheight", "largest height of an associated prime")
    cmd("sigma", "smallest generator support size")
    p = cmd("symbolic", "minimal generators of a symbolic power")
    p.add_argument("-m", type=_int_at_least(0), required=True, metavar="M")
    cmd("alpha", "least generator degree")
    cmd("beta", "largest generator degree")
    cmd("waldschmidt", "Waldschmidt constant (exact rational)")
    p = cmd("polyhedron", "symbolic polyhedron summary")
    p.add_argument("--dump", action="store_true",
                   help="emit P/G component lines")
    p.add_argument("--vertices", action="store_true",
                   help="also enumerate vertices (V lines)")
    p = cmd("containment", "exploratory check I^(m) <= m^s I^r")
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--r", type=_int_at_least(0), required=True)
    p = cmd("suite", "run named checks against one ideal")
    p.add_argument("--checks", type=_check_list, default=None,
                   help="comma-separated names (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-max", type=_int_at_least(1), default=3)
    p.add_argument("--t-max", type=_int_at_least(1), default=3)
    p.add_argument("--r-max", type=_int_at_least(1), default=3)
    p = cmd("scan", "run suites against pseudo-random ideals", needs_file=False)
    p.add_argument("--count", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", type=_var_counts, default=(3, 4),
                   help="ambient variable counts to draw from, e.g. 3,4")
    p.add_argument("--max-exp", type=_int_at_least(1), default=4)
    p.add_argument("--max-gens", type=_int_at_least(2), default=6)
    p.add_argument("--sqfree", action="store_true",
                   help="generate only square-free ideals")
    p.add_argument("--checks", type=_check_list, default=None)
    p.add_argument("--findings", metavar="FILE",
                   help="write bug/candidate findings to this JSONL file")
    return parser


def _scalar(args, key, value, names) -> str:
    if args.format == STRUCTURED:
        return json.dumps({key: encode_value(value)}, sort_keys=True) + "\n"
    return f"{encode_value(value)}\n"


def _primes_out(args, key, primes, names) -> str:
    if args.format == STRUCTURED:
        return json.dumps(
            {key: [[names[i] for i in P.variables] for P in primes]},
            sort_keys=True) + "\n"
    return "".join(P.render(names) + "\n" for P in primes)


# command -> (the invariant of the ideal it prints, how it prints it)
_INVARIANT_COMMANDS = {
    "ass": (associated_primes, _primes_out),
    "maxass": (max_associated_primes, _primes_out),
    "bigheight": (big_height, _scalar),
    "sigma": (sigma, _scalar),
    "alpha": (alpha, _scalar),
    "beta": (beta, _scalar),
}


def _dispatch(args) -> tuple[str, int]:
    if args.command == "scan":
        config = harness.ScanConfig(
            count=args.count, seed=args.seed, num_vars=args.vars,
            max_exp=args.max_exp, max_gens=args.max_gens,
            squarefree_only=args.sqfree, checks=args.checks)
        report = harness.scan(config)
        if args.findings:
            with open(args.findings, "w") as fh:
                fh.write(harness.findings_jsonl(report))
        text = (harness.scan_jsonl(report) if args.format == STRUCTURED
                else harness.scan_text(report, args.timings))
        return text, (1 if report.has_bug else 0)

    doc = load_ideal(args.file)
    I, names = doc.ideal, doc.names
    if I.is_zero or I.is_unit:
        raise ParseError(f"{args.file}: every command needs a proper non-zero "
                         f"ideal, this file gives the {'zero' if I.is_zero else 'unit'} ideal")

    if args.command == "info":
        report = invariant_report(I, names)
        if args.format == STRUCTURED:
            return json.dumps({k: encode_value(v) for k, v in report.items()},
                              sort_keys=True) + "\n", 0
        lines = [f"{k}: {encode_value(v)}" for k, v in report.items()]
        return "\n".join(lines) + "\n", 0
    if args.command in _INVARIANT_COMMANDS:
        invariant, render = _INVARIANT_COMMANDS[args.command]
        return render(args, args.command, invariant(I), names), 0
    if args.command == "waldschmidt":
        value, point = alpha_polyhedron(symbolic_polyhedron(I))
        if args.format == STRUCTURED:
            return json.dumps({"waldschmidt": encode_value(value),
                               "point": [encode_value(x) for x in point]},
                              sort_keys=True) + "\n", 0
        return f"{encode_value(value)}\n", 0
    if args.command == "symbolic":
        sym = symbolic_power(I, args.m)
        if args.format == STRUCTURED:
            return json.dumps({"m": args.m, "vars": list(names),
                               "gens": [g.render(names) for g in sym.gens]},
                              sort_keys=True) + "\n", 0
        return format_ideal(sym, names), 0
    if args.command == "polyhedron":
        return _polyhedron_cmd(args, I, names)
    if args.command == "containment":
        res = harness.check("symbolic_in_mpower", I,
                            {"m": args.m, "s": args.s, "r": args.r})
        if args.format == STRUCTURED:
            return json.dumps(harness.result_to_dict(res, names),
                              sort_keys=True) + "\n", 0
        verdict = res.classify()
        line = (f"I^({args.m}) <= m^{args.s} * I^{args.r}: {verdict}")
        if res.witness is not None:
            line += f"  witness={res.witness.render(names)}"
        return line + "\n", 0
    if args.command == "suite":
        ranges = harness.SuiteRanges(m_max=args.m_max, t_max=args.t_max,
                                     r_max=args.r_max)
        report = harness.run_suite(I, checks=args.checks, ranges=ranges,
                                   seed=args.seed, names=names,
                                   label=doc.label)
        text = (harness.suite_jsonl(report) if args.format == STRUCTURED
                else harness.suite_text(report, args.timings))
        return text, (1 if report.has_bug else 0)
    raise AssertionError(f"unhandled command {args.command}")


def _polyhedron_cmd(args, I, names) -> tuple[str, int]:
    Q = symbolic_polyhedron(I)
    value, point = alpha_polyhedron(Q)
    vertices = enumerate_vertices(Q) if args.vertices else None
    if args.format == STRUCTURED:
        payload = {
            "alpha": encode_value(value),
            "alpha_point": [encode_value(x) for x in point],
            "components": [
                {"prime": [names[i] for i in P.variables],
                 "gens": [list(g) for g in N.gens]}
                for P, N in Q.components],
        }
        if vertices is not None:
            payload["vertices"] = [[encode_value(x) for x in v]
                                   for v in vertices]
        return json.dumps(payload, sort_keys=True) + "\n", 0
    lines = [f"alpha: {encode_value(value)}",
             f"alpha point: ({', '.join(encode_value(x) for x in point)})",
             f"components: {len(Q.components)}"]
    if args.dump or args.vertices:
        lines = []
        for P, N in Q.components:
            if args.dump:
                lines.append("P " + " ".join(names[i] for i in P.variables))
                lines.extend("G " + " ".join(str(e) for e in g)
                             for g in N.gens)
        if vertices is not None:
            lines.extend("V " + " ".join(encode_value(x) for x in v)
                         for v in vertices)
        if not args.dump:
            lines.insert(0, f"alpha: {encode_value(value)}")
    return "\n".join(lines) + "\n", 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text, code = _dispatch(args)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
