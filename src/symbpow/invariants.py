"""Numeric invariants of monomial ideals.

alpha / beta are the extreme generator degrees; the Waldschmidt constant is
the least coordinate sum over the symbolic polyhedron, computed by one
exact LP.  The suite's checks compare these invariants against each other
(see the check table in harness.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .decomposition import (_big_height, associated_primes,
                            max_associated_primes, sigma,
                            warn_if_powers_coincide)
from .errors import ResourceLimitError
from .geometry import (alpha_polyhedron, newton_polyhedron, np_member,
                       symbolic_polyhedron)
from .monomial import MonomialIdeal, _in_staircase, is_squarefree, require_proper
from .symbolic import symbolic_equals_ordinary

CLOSURE_BUDGET = 200_000  # the most lattice points is_integrally_closed scans


def alpha(I: MonomialIdeal) -> int:
    """Least degree of a minimal generator."""
    require_proper(I)
    return sum(I.vectors[0])  # vectors are sorted by (degree, lex)


def beta(I: MonomialIdeal) -> int:
    """Largest degree of a minimal generator."""
    require_proper(I)
    return sum(I.vectors[-1])


def is_equigenerated(I: MonomialIdeal) -> bool:
    require_proper(I)
    return sum(I.vectors[0]) == sum(I.vectors[-1])


def waldschmidt(I: MonomialIdeal) -> Fraction:
    """Least coordinate sum over the symbolic polyhedron; equals the limit
    of alpha of the m-th symbolic power over m."""
    value, _ = alpha_polyhedron(symbolic_polyhedron(I))
    return value


def waldschmidt_point(I: MonomialIdeal) -> tuple[Fraction, ...]:
    """A point of the symbolic polyhedron attaining the Waldschmidt value."""
    return alpha_polyhedron(symbolic_polyhedron(I))[1]


def chudnovsky_bound(I: MonomialIdeal) -> Fraction:
    """(alpha(I) + e - 1) / e where e is the big height."""
    warn_if_powers_coincide(I)
    return _chudnovsky_bound(I)


def _chudnovsky_bound(I: MonomialIdeal) -> Fraction:
    """chudnovsky_bound without the warning, for callers inside the package."""
    e = _big_height(I)
    return Fraction(alpha(I) + e - 1, e)


# ---------------------------------------------------------------------------
# integral closure


def is_integrally_closed(I: MonomialIdeal) -> bool:
    """Whether every lattice point of the Newton polyhedron lies in the
    staircase of I.  It suffices to scan the box up to the componentwise
    maximum M of the generators: clamping a counterexample to the box keeps
    it inside the polyhedron and outside the staircase.  A box of more than
    CLOSURE_BUDGET points raises ResourceLimitError."""
    require_proper(I)
    corner = tuple(map(max, zip(*I.vectors)))
    volume = prod(c + 1 for c in corner)
    if volume > CLOSURE_BUDGET:
        raise ResourceLimitError("integral closure box", volume, CLOSURE_BUDGET)
    N = newton_polyhedron(I)
    for pt in product(*(range(c + 1) for c in corner)):
        if not _in_staircase(I, pt) and np_member(N, pt):
            return False
    return True


# ---------------------------------------------------------------------------
# summary report


def invariant_report(I: MonomialIdeal, names=None) -> dict:
    """All the scalar invariants at once, for the CLI info command."""
    require_proper(I)
    warn_if_powers_coincide(I)
    w, pt = alpha_polyhedron(symbolic_polyhedron(I))
    try:
        closed = is_integrally_closed(I)
    except ResourceLimitError:
        closed = None
    return {
        "ambient_dim": I.ambient_dim,
        "num_gens": len(I.vectors),
        "alpha": alpha(I),
        "beta": beta(I),
        "equigenerated": is_equigenerated(I),
        "squarefree": is_squarefree(I),
        "big_height": _big_height(I),
        "sigma": sigma(I),
        "ass": [P.render(names) for P in associated_primes(I)],
        "maxass": [P.render(names) for P in max_associated_primes(I)],
        "waldschmidt": w,
        "waldschmidt_point": list(pt),
        "chudnovsky_bound": _chudnovsky_bound(I),
        "symbolic_equals_ordinary": symbolic_equals_ordinary(I),
        "integrally_closed": closed,
    }
