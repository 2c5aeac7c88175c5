"""Numeric invariants of monomial ideals.

alpha / beta are the extreme generator degrees; the Waldschmidt constant is
the least coordinate sum over the symbolic polyhedron, computed by an exact
LP over its facet rows, whose point a tangent-cone certificate proves the
only optimum; at a tie, or over the ray budget, the V-block LP gives the
point (geometry._optimize_over).  The suite's checks compare these
invariants against each other (see the check table in harness.py).
"""

from __future__ import annotations

from fractions import Fraction

from .decomposition import (_big_height, associated_primes,
                            irreducible_decomposition, max_associated_primes,
                            sigma, warn_if_powers_coincide)
from .errors import ResourceLimitError
from .geometry import alpha_polyhedron, newton_polyhedron, symbolic_polyhedron
from .monomial import MonomialIdeal, is_squarefree, require_proper
from .symbolic import symbolic_equals_ordinary


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
    """Whether I equals its integral closure, the span of the lattice
    points of its Newton polyhedron N (Huneke and Swanson, Integral Closure
    of Ideals, Rings, and Modules, 1.4).  The lattice points outside a
    component (x_i^b_i : i in S) of I are those at most b_i - 1 on S.  As
    N's facet normals are non-negative, N misses them all exactly when some
    facet row with its normal inside S has normal.(b - 1) < offset.  A
    facet table over MAX_RAYS raises ResourceLimitError.  A square-free I
    is radical, so integrally closed, and needs no table."""
    require_proper(I)
    if is_squarefree(I):
        return True
    facets = newton_polyhedron(I).facets
    for comp in irreducible_decomposition(I):
        b = dict(comp.powers)
        if not any(all(i in b for i, n in enumerate(normal) if n)
                   and sum(n * (b[i] - 1) for i, n in enumerate(normal) if n) < offset
                   for normal, offset in facets):
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
