"""Verdict record shared by every containment/bound check."""

from __future__ import annotations

from collections import namedtuple
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
                                           "witness in_hypothesis elapsed")):
    """Outcome of one check instance.

    verdict: holds / fails / not_applicable / resource_limit.
    kind: theorem (a failure is a bug), conjecture (a failure is a candidate
          counterexample), exploration (failures are informative only).
    in_hypothesis: False when the check ran outside its theorem's hypothesis
          (then a failure contradicts nothing).
    params are the requested inputs; details carry every computed exponent
    and flag; witness is a failing monomial when one exists.  elapsed is
    wallclock and never enters serialized reports.  params and details
    default to a new empty dict per result.
    """

    __slots__ = ()

    def __new__(cls, name: str, verdict: str, kind: str = THEOREM,
                params: dict | None = None, details: dict | None = None,
                witness: Monomial | None = None, in_hypothesis: bool = True,
                elapsed: float = 0.0):
        return super().__new__(cls, name, verdict, kind,
                               {} if params is None else params,
                               {} if details is None else details,
                               witness, in_hypothesis, elapsed)

    def classify(self) -> str:
        """Reporting bucket: holds | bug | candidate | fails |
        not_applicable | resource_limit.

        A failing theorem inside its hypothesis is a bug; a failing
        conjecture is a candidate counterexample; a failing exploration (or
        a theorem probed outside its hypothesis) is just "fails".
        """
        if self.verdict == HOLDS:
            return "holds"
        if self.verdict == NOT_APPLICABLE:
            return "not_applicable"
        if self.verdict == RESOURCE_LIMIT:
            return "resource_limit"
        if self.kind == THEOREM and self.in_hypothesis:
            return "bug"
        if self.kind == CONJECTURE:
            return "candidate"
        return "fails"


def encode_value(value):
    """JSON-safe encoding: Fractions become 'p/q' strings, monomials become
    exponent lists, tuples become lists; never floats for exact data."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Monomial):
        return list(value.exponents)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return str(value)
